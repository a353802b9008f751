"""The modulus and its arithmetic.

The cyclic group Z_L (with L odd, so that 2 is invertible mod L) stands in
for the real line, and the phase space is Z_L x Z_L.  This module checks
the modulus, gives the inverse of 2 mod L, and divides complex arrays by
real scalars with numpy's bits.  The operator calculus on Z_L (kernels,
time-frequency shifts, operator translation, Hilbert-Schmidt inner
products) is not needed by any stage, which reads operators as fibers
(see ``lattice``); it lives with the test suite as its oracle.
"""

from __future__ import annotations

import numpy as np

__all__ = ["validate_mod_size", "half_inverse"]


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
