"""Weyl calculus on the finite phase space Z_L x Z_L.

The quantization map between phase-space functions (L x L complex arrays
indexed ``F[x, omega]``) and Hilbert-Schmidt operators, together with its
relatives: cross-Wigner distributions, the symplectic Fourier transform on
the full phase space, the phase-weighted trace transform and the
short-time Fourier transform.

Normalization conventions, fixed once so that every map below is exactly
unitary or self-inverse:

* ``cross_wigner`` / ``weyl_symbol``: plain sum over the chord variable t
  with a global factor L**-0.5,

      a_S(x, omega) = L**-0.5 * sum_t S[x + c*t, x - c*t] * exp(-2*pi*i*omega*t/L)

  where c = (L+1)//2 is the inverse of 2 mod L.  With this choice
  ``<S, T>_HS == <weyl_symbol(S), weyl_symbol(T)>`` holds exactly.
* ``symplectic_ft``: factor 1/L, making it self-inverse and unitary.
* ``fourier_wigner``: factor L**-0.5 together with the half-phase
  ``exp(-2*pi*i*c*x*omega/L)``.  The sign of the half-phase is the one for
  which ``fourier_wigner(S) == symplectic_ft(weyl_symbol(S))`` identically
  (the opposite sign breaks that identity); it is frozen here and covered
  by tests.  The half-phase makes the shift symmetric: with
  ``rho(z) = exp(-2*pi*i*c*x*omega/L) * pi(z)``, the finite form of
  ``exp(-pi*i*x*omega) M_omega T_x`` (c stands for 1/2 mod L),
  ``fourier_wigner(S)(z) = L**-0.5 * tr(rho(-z) S)``.  Its values are
  L-th roots of unity, so it is read from the L roots at the residues
  ``(-c*x*omega) % L`` rather than exponentiated at every point.

DFT lengths never exceed L, so ``numpy.fft`` is used for the inner sums;
the results agree with direct summation to machine precision.

``inverse_fourier_wigner`` quantizes a trace transform in one inverse
FFT and one gather: the symplectic FT's DFT over x and the
quantization's DFT over omega cancel, and the half-phase becomes a shift
of the gathered index, so it equals ``weyl_transform(symplectic_ft(F))``
without their three FFT passes.

``weyl_transform``, ``symplectic_ft``, ``fourier_wigner`` and
``inverse_fourier_wigner`` batch over leading axes: they map
``(..., L, L)`` stacks slice by slice, and each slice of the result
equals the single-slice call bit for bit.

``fourier_wigner(S, lat)`` is ``fibers(fourier_wigner(S), lat)`` bit for
bit, its phase multiply writing into the fiber buffer through a strided
view instead of a reordering copy.  Its L**-0.5 is ``core._divide_real``.
"""

from __future__ import annotations

import numpy as np

from .core import (
    _as_operator,
    _as_signal,
    _divide_real,
    _reduce_point,
    half_inverse,
)
from .lattice import _fiber_grid

__all__ = [
    "cross_wigner",
    "weyl_symbol",
    "weyl_transform",
    "symplectic_ft",
    "fourier_wigner",
    "inverse_fourier_wigner",
    "stft",
    "translate_phase",
]


def _as_square_stack(F, what: str) -> np.ndarray:
    F = np.asarray(F, dtype=complex)
    if F.ndim < 2 or F.shape[-1] != F.shape[-2]:
        raise ValueError(f"{what} must be square in the last two axes, got shape {F.shape}")
    return F


def _as_phase_function(F) -> np.ndarray:
    F = np.asarray(F, dtype=complex)
    if F.ndim != 2 or F.shape[0] != F.shape[1]:
        raise ValueError(f"phase-space function must be a square array, got shape {F.shape}")
    return F


def cross_wigner(psi, phi) -> np.ndarray:
    """Cross-Wigner distribution of two signals.

    W(psi, phi)(x, omega) =
        L**-0.5 * sum_t psi(x + c*t) * conj(phi(x - c*t)) * exp(-2*pi*i*omega*t/L)

    with c the inverse of 2 mod L.  Equals the Weyl symbol of the rank-one
    operator psi (x) phi, and satisfies the Moyal identity
    <W(psi1, phi1), W(psi2, phi2)> = <psi1, psi2> * conj(<phi1, phi2>).
    """
    psi = _as_signal(psi)
    phi = _as_signal(phi)
    if psi.shape != phi.shape:
        raise ValueError(f"size mismatch: {psi.shape} vs {phi.shape}")
    L = psi.shape[0]
    c = half_inverse(L)
    x = np.arange(L)[:, None]
    t = np.arange(L)[None, :]
    g = psi[(x + c * t) % L] * np.conj(phi[(x - c * t) % L])
    return np.fft.fft(g, axis=1) / np.sqrt(L)


def weyl_symbol(S) -> np.ndarray:
    """Weyl symbol of a Hilbert-Schmidt operator.

    a_S(x, omega) = L**-0.5 * sum_t S[x + c*t, x - c*t] * exp(-2*pi*i*omega*t/L).

    Unitary from operators (HS inner product) onto phase-space functions;
    ``weyl_transform`` is its exact inverse.
    """
    S = _as_operator(S)
    L = S.shape[0]
    c = half_inverse(L)
    x = np.arange(L)[:, None]
    t = np.arange(L)[None, :]
    g = S[(x + c * t) % L, (x - c * t) % L]
    return np.fft.fft(g, axis=1) / np.sqrt(L)


def weyl_transform(F) -> np.ndarray:
    """Operator with the given Weyl symbol (exact inverse of weyl_symbol).

    Kernel: out[u, v] = L**-0.5 * sum_omega F(c*(u+v), omega) * exp(2*pi*i*omega*(u-v)/L).
    Batches over leading axes.
    """
    F = _as_square_stack(F, "phase-space function")
    L = F.shape[-1]
    c = half_inverse(L)
    g = np.sqrt(L) * np.fft.ifft(F, axis=-1)
    u = np.arange(L)[:, None]
    v = np.arange(L)[None, :]
    return g[..., (c * (u + v)) % L, (u - v) % L]


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


def fourier_wigner(S, lat=None) -> np.ndarray:
    """Phase-weighted trace transform of an operator.

    out(x, omega) = L**-0.5 * exp(-2*pi*i*c*x*omega/L) * tr(pi(-z) S),
    where tr(pi(-z) S) = sum_t exp(-2*pi*i*omega*t/L) * S[t + x, t].

    Coincides exactly with ``symplectic_ft(weyl_symbol(S))``.  Batches
    over leading axes.  Given a lattice, returns the fibers
    ``(..., |Lambda|, |adjoint|)`` instead.
    """
    S = _as_square_stack(S, "operator kernel")
    L = S.shape[-1]
    c = half_inverse(L)
    x = np.arange(L)[:, None]
    t = np.arange(L)[None, :]
    diagonals = _flat(S).take(((t + x) % L) * L + t, axis=-1)  # S[..., (t + x) % L, t]
    trp = np.fft.fft(diagonals, axis=-1, out=diagonals)  # the gather is a fresh buffer
    phase = np.exp(2j * np.pi * np.arange(L) / L)[(-c * x * t) % L]
    out = dest = trp
    if lat is not None:
        if lat.L != L:
            raise ValueError(f"expected {lat.L} x {lat.L} operators, got {S.shape}")
        if lat.a * lat.b == 1:  # the fibers are the grid, flattened: multiply in place
            out = trp.reshape(S.shape[:-2] + (lat.size, 1))
        else:
            out = np.empty(S.shape[:-2] + (lat.size, lat.a * lat.b), dtype=complex)
            dest = _fiber_grid(out, lat)
            phase, trp = phase.reshape(dest.shape[-4:]), trp.reshape(dest.shape)
    np.multiply(phase, trp, out=dest)
    return _divide_real(out, np.sqrt(L))


def inverse_fourier_wigner(F) -> np.ndarray:
    """Operator with the given phase-weighted trace transform.

    out[u, v] = L**0.5 * ifft(F, axis=-1)[(u - v) % L, (c*(u + v)) % L].

    Exact inverse of ``fourier_wigner`` and equal to
    ``weyl_transform(symplectic_ft(F))``: undoing the half-phase at x = u - v
    shifts the inverse DFT's output index from v to v + c*(u - v), which is
    c*(u + v) mod L.  Batches over leading axes.
    """
    F = _as_square_stack(F, "phase-space function")
    L = F.shape[-1]
    c = half_inverse(L)
    u = np.arange(L)[:, None]
    v = np.arange(L)[None, :]
    g = np.fft.ifft(F, axis=-1, norm="ortho")  # the sqrt(L) * ifft of the kernel
    return _flat(g).take(((u - v) % L) * L + (c * (u + v)) % L, axis=-1)


def _flat(F) -> np.ndarray:
    """(..., L, L) to (..., L*L), so that a 2-D gather is one ``take``."""
    return F.reshape(F.shape[:-2] + (-1,))


def stft(phi, psi) -> np.ndarray:
    """Short-time Fourier transform of ``phi`` with window ``psi``.

    out(x, omega) = <phi, pi(z) psi> = sum_t phi(t) * conj(psi(t - x)) * exp(-2*pi*i*omega*t/L).
    """
    phi = _as_signal(phi)
    psi = _as_signal(psi)
    if psi.shape != phi.shape:
        raise ValueError(f"size mismatch: {phi.shape} vs {psi.shape}")
    L = phi.shape[0]
    x = np.arange(L)[:, None]
    t = np.arange(L)[None, :]
    m = phi[None, :] * np.conj(psi[(t - x) % L])
    return np.fft.fft(m, axis=1)


def translate_phase(z, F) -> np.ndarray:
    """Translate a phase-space function: out(w) = F(w - z)."""
    F = _as_phase_function(F)
    L = F.shape[0]
    x, w = _reduce_point(z, L)
    return np.roll(F, (x, w), axis=(0, 1))
