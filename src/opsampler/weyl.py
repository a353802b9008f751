"""The phase-weighted trace transform of rank-one operators, as fibers, and
the symplectic Fourier transform on the full phase space.

Every stage reads an operator S through the adjoint-coset fibers (see
``lattice``) of its phase-weighted trace transform

    F_S(x, omega) = L**-0.5 * exp(-2*pi*i*c*x*omega/L) * sum_t exp(-2*pi*i*omega*t/L) * S[t + x, t],

with c = (L+1)//2 the inverse of 2 mod L.  The transform is unitary from
operators (HS inner product) onto phase-space functions (L x L complex
arrays indexed ``F[x, omega]``), so no stage needs the operator itself.
For a rank-one S = u (x) v* the half-phase is a shift, not a multiply:
substituting t -> t - c*x cancels it, since x - c*x = c*x mod L, and
leaves the discrete Wigner product u(t + x/2) * conj(v(t - x/2)) with
1/2 = c (Gross, "Hudson's theorem for finite-dimensional quantum
systems", J. Math. Phys. 47, 122107, 2006), so ``rank_one_fibers`` forms
no phase.

``symplectic_ft`` (factor 1/L, self-inverse and unitary) maps a trace
transform to the operator's Weyl symbol, which is what ``export`` writes.
DFT lengths never exceed L, so ``numpy.fft`` is used for the inner sums.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .lattice import Lattice, _fiber_grid, _fiber_slot

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


def rank_one_fibers(u, v, lat: Lattice, out: np.ndarray) -> np.ndarray:
    """The (|Lambda|, a*b) fibers of the trace transform of the rank-one
    operator u (x) v*, which acts as f -> <f, v> u, written into ``out`` (a
    C-contiguous complex array of that shape) and returned.

    The transform is the discrete Wigner product F(x, omega) = L**-0.5 *
    sum_t exp(-2*pi*i*omega*t/L) * u[(t + c*x) % L] * conj(v[(t - c*x) % L]).
    Its row y = c*x is a window of u extended by its first L - 1 entries
    times a reversed window of conj(v), and lands at row x = 2*y mod L: the
    first c rows fill the even rows, the rest the odd ones.  The orthonormal
    FFT runs in place on them and one copy writes them into the fibers
    through their ``(b, L/b, a, L/a)`` grid view, so no L x L kernel, index
    table or phase is formed.
    """
    L = lat.L
    u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    if u.shape != (L,) or v.shape != (L,):
        raise ValueError(f"expected two signals of length {L}, got shapes {u.shape} and {v.shape}")
    _fiber_slot(out, lat)
    c = (L + 1) // 2  # the inverse of 2 mod L; the Lattice has checked L
    ups = sliding_window_view(np.concatenate([u, u[:-1]]), L)  # ups[y, t] = u[t + y mod L]
    downs = sliding_window_view(np.conj(np.concatenate([v[1:], v])), L)[::-1]  # conj(v[t - y mod L])
    wig = np.empty((L, L), dtype=complex)
    np.multiply(ups[:c], downs[:c], out=wig[0::2])
    np.multiply(ups[c:], downs[c:], out=wig[1::2])
    np.fft.fft(wig, axis=-1, norm="ortho", out=wig)
    dest = _fiber_grid(out, lat)
    dest[...] = wig.reshape(dest.shape)
    return out
