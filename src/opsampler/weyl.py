"""The phase-weighted trace transform of rank-one operators, as fibers, and
the symplectic Fourier transform on the full phase space.

Every stage reads an operator S through the adjoint-coset fibers (see
``lattice``) of its phase-weighted trace transform

    F_S(x, omega) = L**-0.5 * exp(-2*pi*i*c*x*omega/L) * sum_t exp(-2*pi*i*omega*t/L) * S[t + x, t],

with c = (L+1)//2 the inverse of 2 mod L.  The transform is unitary from
operators (HS inner product) onto phase-space functions (L x L complex
arrays indexed ``F[x, omega]``), so no stage needs the operator itself.
The half-phase values are L-th roots of unity, read from the L roots at
the residues ``(-c*x*omega) % L`` rather than exponentiated at every point.

``symplectic_ft`` (factor 1/L, self-inverse and unitary) maps a trace
transform to the operator's Weyl symbol, which is what ``export`` writes.
DFT lengths never exceed L, so ``numpy.fft`` is used for the inner sums.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .lattice import Lattice, _fiber_grid

__all__ = ["symplectic_ft", "rank_one_fibers"]


def _as_square_stack(F, what: str) -> np.ndarray:
    F = np.asarray(F, dtype=complex)
    if F.ndim < 2 or F.shape[-1] != F.shape[-2]:
        raise ValueError(f"{what} must be square in the last two axes, got shape {F.shape}")
    return F


def symplectic_ft(F) -> np.ndarray:
    """Symplectic Fourier transform on the full phase space.

    out(z) = (1/L) * sum_{z'} F(z') * exp(-2*pi*i*sigma(z, z')/L)

    with sigma(z, z') = omega*x' - omega'*x.  Self-inverse and unitary.
    Batches over leading axes.
    """
    F = _as_square_stack(F, "phase-space function")
    # (1/L) sum_{x'} e^{-2 pi i omega x'/L} [ sum_{omega'} F(x',omega') e^{+2 pi i omega' x/L} ]
    # inner bracket = L * ifft over omega'; outer sum = fft over x'; 1/L cancels the L.
    return np.fft.fft(np.fft.ifft(F, axis=-1), axis=-2).swapaxes(-1, -2)


def rank_one_fibers(u, v, lat: Lattice, out: np.ndarray | None = None) -> np.ndarray:
    """The (|Lambda|, a*b) fibers of the trace transform of the rank-one
    operator u (x) v*, which acts as f -> <f, v> u, written into ``out`` (a
    C-contiguous complex array of that shape) when it is given.

    Its kernel's diagonals are the products u[(t + x) % L] * conj(v[t]): a
    sliding window over u extended by its first L - 1 entries, times
    conj(v).  The FFT over t runs in place on them, and the half-phase
    multiply writes straight into the fiber buffer through its
    ``(b, L/b, a, L/a)`` grid view, so no L x L kernel is formed.
    """
    L = lat.L
    u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    if u.shape != (L,) or v.shape != (L,):
        raise ValueError(f"expected two signals of length {L}, got shapes {u.shape} and {v.shape}")
    shape = (lat.size, lat.a * lat.b)
    if out is not None and (out.shape != shape or out.dtype != complex
                            or not out.flags.c_contiguous):
        # the grid view below must be a view of out, not a copy
        raise ValueError(f"out must be a C-contiguous complex array of shape {shape}")
    c = (L + 1) // 2  # the inverse of 2 mod L; the Lattice has checked L
    x = np.arange(L)[:, None]
    t = np.arange(L)[None, :]
    diagonals = sliding_window_view(np.concatenate([u, u[:-1]]), L) * np.conj(v)
    trp = np.fft.fft(diagonals, axis=-1, out=diagonals)
    phase = np.exp(2j * np.pi * np.arange(L) / L)[(-c * x * t) % L]
    if out is None:  # allocated last, after the L x L temporaries above
        out = np.empty(shape, dtype=complex)
    dest = _fiber_grid(out, lat)
    np.multiply(phase.reshape(dest.shape), trp.reshape(dest.shape), out=dest)
    out /= np.sqrt(L)
    return out
