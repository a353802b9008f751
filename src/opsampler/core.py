"""Finite phase-space arithmetic: signals, Hilbert-Schmidt operators and
time-frequency shifts over Z_L.

The cyclic group Z_L (with L odd, so that 2 is invertible mod L) stands in
for the real line.  A signal is a complex vector of length L; a
Hilbert-Schmidt operator is an L x L complex matrix whose entries are the
values of its kernel, so ``(S f)(t) = sum_x S[t, x] f(x)`` and the
Hilbert-Schmidt inner product is the Frobenius inner product of kernels.

Phase-space points are pairs ``z = (x, omega)`` of residues mod L; the
time-frequency shift ``pi(z)`` acts on signals by

    (pi(z) f)(t) = exp(2*pi*i*omega*t/L) * f(t - x)

and conjugation with it translates operators:  alpha_z(S) = pi(z) S pi(z)*.

All functions are pure; indices are reduced to [0, L) internally.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "validate_mod_size",
    "half_inverse",
    "symplectic_form",
    "tf_shift",
    "tf_shift_adjoint",
    "translate_operator",
    "rank_one",
    "hs_inner",
    "hs_norm",
    "trace",
    "parity",
    "check_operator",
]


def validate_mod_size(L: int) -> int:
    """Check that L is a valid modulus (integer, >= 3, odd) and return it."""
    L = int(L)
    if L < 3:
        raise ValueError(f"modulus must be >= 3, got {L}")
    if L % 2 == 0:
        raise ValueError(f"modulus must be odd so that 2 is invertible mod L, got {L}")
    return L


def half_inverse(L: int) -> int:
    """The inverse of 2 mod L, i.e. (L+1)//2 for odd L."""
    L = validate_mod_size(L)
    return (L + 1) // 2


def _divide_real(z: np.ndarray, s) -> np.ndarray:
    """``z /= s`` in place for a complex array z and a real scalar s; returns z.

    numpy divides by ``s + 0j``: ``((re + im*0) * (1/s), (im - re*0) * (1/s))``.
    Without zero components (which would move signed zeros) that is, for
    finite z, a multiply of the float view of a C-contiguous z by ``1/s``.
    """
    flat = z.view(np.float64) if z.flags.c_contiguous else None
    if flat is not None and flat.all():
        flat *= 1.0 / s
    else:
        z /= s
    return z


def _as_signal(f) -> np.ndarray:
    f = np.asarray(f, dtype=complex)
    if f.ndim != 1:
        raise ValueError(f"signal must be one-dimensional, got shape {f.shape}")
    return f


def _as_operator(S) -> np.ndarray:
    S = np.asarray(S, dtype=complex)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"operator kernel must be a square matrix, got shape {S.shape}")
    return S


def _reduce_point(z, L: int) -> tuple[int, int]:
    x, w = z
    return int(x) % L, int(w) % L


def _char(residues, L: int) -> np.ndarray:
    """exp(2*pi*i*r/L) for integer residues r, reduced mod L first."""
    r = np.asarray(residues, dtype=np.int64) % L
    return np.exp(2j * np.pi * r / L)


def symplectic_form(z, z2, L: int) -> int:
    """Standard symplectic form sigma(z, z') = omega*x' - omega'*x mod L."""
    x, w = _reduce_point(z, L)
    x2, w2 = _reduce_point(z2, L)
    return (w * x2 - w2 * x) % L


def tf_shift(z, f) -> np.ndarray:
    """Time-frequency shift: out(t) = exp(2*pi*i*omega*t/L) * f(t - x)."""
    f = _as_signal(f)
    L = f.shape[0]
    x, w = _reduce_point(z, L)
    phase = _char(w * np.arange(L), L)
    return phase * np.roll(f, x)


def tf_shift_adjoint(z, f) -> np.ndarray:
    """Adjoint of the time-frequency shift.

    pi(z)* = exp(-2*pi*i*x*omega/L) * pi(-z), so that
    <pi(z) f, g> = <f, pi(z)* g> holds exactly.
    """
    f = _as_signal(f)
    L = f.shape[0]
    x, w = _reduce_point(z, L)
    phase = _char(-x * w, L)
    return phase * tf_shift((-x, -w), f)


def translate_operator(z, S) -> np.ndarray:
    """Conjugation alpha_z(S) = pi(z) S pi(z)*.

    Realized directly on the kernel:
    out[t, s] = exp(2*pi*i*omega*(t-s)/L) * S[t-x, s-x].  Unitary on the
    Hilbert-Schmidt space; the cocycle phase of pi cancels in conjugation,
    so alpha is an exact group action.
    """
    S = _as_operator(S)
    L = S.shape[0]
    x, w = _reduce_point(z, L)
    p = _char(w * np.arange(L), L)
    return np.outer(p, p.conj()) * np.roll(S, (x, x), axis=(0, 1))


def rank_one(psi, phi) -> np.ndarray:
    """Rank-one operator psi (x) phi, acting as e -> <e, phi> psi."""
    psi = _as_signal(psi)
    phi = _as_signal(phi)
    if psi.shape != phi.shape:
        raise ValueError(f"size mismatch: {psi.shape} vs {phi.shape}")
    return np.outer(psi, phi.conj())


def hs_inner(S, T) -> complex:
    """Hilbert-Schmidt inner product <S, T> = tr(S T*) = sum S * conj(T)."""
    S = _as_operator(S)
    T = _as_operator(T)
    if S.shape != T.shape:
        raise ValueError(f"size mismatch: {S.shape} vs {T.shape}")
    return complex(np.vdot(T, S))


def hs_norm(S) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(_as_operator(S)))


def trace(S) -> complex:
    """Trace of the operator (sum of diagonal kernel values)."""
    return complex(np.trace(_as_operator(S)))


def parity(f) -> np.ndarray:
    """Parity flip: out(t) = f(-t mod L)."""
    f = _as_signal(f)
    L = f.shape[0]
    return f[(-np.arange(L)) % L]


def check_operator(S) -> np.ndarray:
    """P S P with P the parity operator: kernel (t, x) -> S[-t, -x]."""
    S = _as_operator(S)
    L = S.shape[0]
    idx = (-np.arange(L)) % L
    return S[np.ix_(idx, idx)]
