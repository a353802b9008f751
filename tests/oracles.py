"""Oracles that the test suite checks the spectral core against.

These compute by sums of translated operators, or by the Weyl symbol on
the full phase-space grid, what the library computes as per-fiber
products on the dual grid.  No CLI path reaches them, so they live with
the tests rather than in ``opsampler``.
"""

import numpy as np

from opsampler.core import translate_operator
from opsampler.lattice import Lattice, periodize_sq, unfibers
from opsampler.weyl import (
    inverse_fourier_wigner,
    symplectic_ft,
    translate_phase,
    weyl_symbol,
    weyl_transform,
)


def seq_operator_convolve(c, S, lat: Lattice) -> np.ndarray:
    """sum_lambda c(lambda) alpha_lambda(S); the span of all such sums is
    the sampling subspace of S."""
    c = np.asarray(c, dtype=complex)
    if c.shape != (lat.size,):
        raise ValueError(f"expected a sequence of length {lat.size}, got {c.shape}")
    S = np.asarray(S, dtype=complex)
    out = np.zeros_like(S)
    for i, (x, w) in enumerate(lat.points):
        if c[i] != 0:
            out += c[i] * translate_operator((x, w), S)
    return out


def operator_of(P, lat: Lattice) -> np.ndarray:
    """The operator whose trace transform has the (|Lambda|, a*b) fibers P."""
    return inverse_fourier_wigner(unfibers(P, lat))


def whiten_operator(S, lat: Lattice) -> np.ndarray:
    """Generator whose lattice translates are orthonormal, by the operator route.

    The trace transform of S, taken through its Weyl symbol on the full
    grid, is divided at every cell by |Lambda| times the square root of
    the periodization at the cell's adjoint coset, and quantized as
    ``weyl_transform(symplectic_ft(.))``; no fibers are formed.
    """
    F = symplectic_ft(weyl_symbol(S))
    power = periodize_sq(F, lat)
    x = np.arange(lat.L)[:, None] % lat.n_cols
    w = np.arange(lat.L)[None, :] % lat.n_rows
    return weyl_transform(symplectic_ft(F / (lat.size * np.sqrt(power[x * lat.n_rows + w]))))


def translation_covariance_check(F, z) -> float:
    """HS-norm residual of the covariance identity at the point z.

    Quantizing a translated symbol must agree with translating the
    quantized operator; returns
    ``|| weyl_transform(translate_phase(z, F)) - alpha_z(weyl_transform(F)) ||``.
    """
    direct = weyl_transform(translate_phase(z, F))
    conjugated = translate_operator(z, weyl_transform(F))
    return float(np.linalg.norm(direct - conjugated))
