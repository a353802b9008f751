"""Separable lattices in Z_L x Z_L and the dual-grid decomposition.

A lattice is the subgroup ``Lambda = a*Z_L x b*Z_L`` for divisors a, b of
L.  Its points are enumerated row-major over the index pair (j, k) with
j in [0, L/a) and k in [0, L/b), i.e. the i-th point is
``(a*j mod L, b*k mod L)`` with ``i = j*(L/b) + k``.  Sequences on the
lattice are flat complex vectors in that enumeration; the order is part
of the on-disk format.

The adjoint (annihilator) lattice is ``(L/b)*Z_L x (L/a)*Z_L``: exactly
the points whose symplectic pairing with every lattice point vanishes
mod L.  The dual grid, the coset representatives of the quotient of the
phase space by the adjoint lattice, is the rectangle
``{(x, omega): 0 <= x < L/b, 0 <= omega < L/a}`` enumerated row-major;
its size equals the lattice size.

This module is the spectral core of the package.  Everything that is
invariant under lattice translation diagonalizes on the dual grid, and
two maps say so:

* the symplectic Fourier series

      F(xi) = sum_lambda c(lambda) * exp(2*pi*i*sigma(lambda, z_xi)/L)

  is, on the (L/a, L/b) grid of a sequence, a forward DFT over j and an
  inverse (unnormalized) DFT over k, followed by a transpose into the
  dual-grid order; it satisfies the Parseval identity
  ``sum_xi |F(xi)|^2 = |Lambda| * sum_lambda |c(lambda)|^2``;
* the fibers of a phase-space function, ``fibers(F)[xi, mu] =
  F(z_xi + mu)`` over the adjoint lattice points mu, are a reshape of
  the L x L grid: no index table is built.

Lattice translation of an operator multiplies its phase-weighted trace
transform by the series of the coefficients, fiber by fiber, so
synthesis, sampling, transfer matrices and reconstruction all reduce to
per-fiber products between these two maps.  Both batch over leading
axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import validate_mod_size

__all__ = [
    "Lattice",
    "symplectic_series",
    "inverse_symplectic_series",
    "lattice_convolve",
    "fibers",
    "unfibers",
    "involution",
    "translate_seq",
    "periodize_sq",
]


@dataclass(frozen=True)
class Lattice:
    """The separable lattice a*Z_L x b*Z_L with a | L and b | L."""

    L: int
    a: int
    b: int

    def __post_init__(self):
        validate_mod_size(self.L)
        for name in ("a", "b"):
            step = getattr(self, name)
            if not (1 <= step <= self.L) or self.L % step != 0:
                raise ValueError(f"lattice step {name}={step} must divide L={self.L}")

    @property
    def n_rows(self) -> int:
        """Number of distinct first coordinates, L/a."""
        return self.L // self.a

    @property
    def n_cols(self) -> int:
        """Number of distinct second coordinates, L/b."""
        return self.L // self.b

    @property
    def size(self) -> int:
        return self.n_rows * self.n_cols

    @cached_property
    def points(self) -> np.ndarray:
        """(size, 2) integer array of lattice points, canonical order."""
        j = np.arange(self.n_rows)
        k = np.arange(self.n_cols)
        xs = (self.a * j)[:, None] % self.L
        ws = (self.b * k)[None, :] % self.L
        pts = np.stack(np.broadcast_arrays(xs, ws), axis=-1)
        return pts.reshape(-1, 2)

    @cached_property
    def dual_points(self) -> np.ndarray:
        """(size, 2) coset representatives (x, omega), x < L/b, omega < L/a."""
        xs = np.arange(self.n_cols)
        ws = np.arange(self.n_rows)
        pts = np.stack(np.broadcast_arrays(xs[:, None], ws[None, :]), axis=-1)
        return pts.reshape(-1, 2)

    @cached_property
    def adjoint(self) -> "Lattice":
        return Lattice(self.L, self.L // self.b, self.L // self.a)

    def index_of(self, point) -> int:
        """Flat index of a lattice point; raises if the point is not in the lattice."""
        x, w = int(point[0]) % self.L, int(point[1]) % self.L
        if x % self.a != 0 or w % self.b != 0:
            raise ValueError(f"point ({x}, {w}) is not in the lattice {self.a}Z x {self.b}Z mod {self.L}")
        return (x // self.a) * self.n_cols + (w // self.b)

    @cached_property
    def _neg_index(self) -> np.ndarray:
        """neg_index[i] = flat index of -lambda_i."""
        j = (-np.arange(self.n_rows)) % self.n_rows
        k = (-np.arange(self.n_cols)) % self.n_cols
        return (j[:, None] * self.n_cols + k[None, :]).reshape(-1)


def _as_seq(c, lat: Lattice) -> np.ndarray:
    c = np.asarray(c, dtype=complex)
    if c.ndim < 1 or c.shape[-1] != lat.size:
        raise ValueError(f"lattice sequence must have length {lat.size}, got shape {c.shape}")
    return c


def _grid_dft(grid, rows: int, cols: int) -> np.ndarray:
    """Forward DFT over axis -2, unnormalized inverse DFT over axis -1, transposed.

    Both directions of the series are this map: the forward one on the
    (L/a, L/b) sequence grid, the inverse one on the (L/b, L/a) dual grid.
    """
    grid = grid.reshape(grid.shape[:-1] + (rows, cols))
    out = np.fft.ifft(np.fft.fft(grid, axis=-2), axis=-1, norm="forward")
    return out.swapaxes(-1, -2).reshape(grid.shape[:-2] + (rows * cols,))


def symplectic_series(c, lat: Lattice) -> np.ndarray:
    """Symplectic Fourier series of ``c``, evaluated on the dual grid.

    sigma(lambda_jk, z_xi) = b*k*x - a*j*omega, so the character splits
    into exp(-2*pi*i*j*omega/(L/a)) * exp(2*pi*i*k*x/(L/b)).  Batches over
    leading axes.
    """
    return _grid_dft(_as_seq(c, lat), lat.n_rows, lat.n_cols)


def inverse_symplectic_series(F, lat: Lattice) -> np.ndarray:
    """Exact inverse of ``symplectic_series``.

    c(lambda) = (1/|Lambda|) * sum_xi F(xi) * exp(-2*pi*i*sigma(lambda, z_xi)/L).
    Batches over leading axes.
    """
    return _grid_dft(_as_seq(F, lat), lat.n_cols, lat.n_rows) / lat.size


def lattice_convolve(c, d, lat: Lattice) -> np.ndarray:
    """Group convolution (c * d)(lambda) = sum_mu c(mu) d(lambda - mu).

    Computed through the series: the series of the convolution is the
    pointwise product of the series.
    """
    return inverse_symplectic_series(symplectic_series(c, lat) * symplectic_series(d, lat), lat)


def fibers(F, lat: Lattice) -> np.ndarray:
    """Adjoint-coset fibers of phase-space functions.

    Maps ``(..., L, L)`` to ``(..., |Lambda|, |adjoint|)`` with
    ``out[..., xi, mu] = F(z_xi + mu)``, xi in dual-grid order and mu in
    the enumeration of the adjoint lattice.  Row x + (L/b)*p, column
    omega + (L/a)*q of the grid is z_xi + mu for xi = (x, omega) and
    mu = ((L/b)*p, (L/a)*q), so this is a reshape and an axis move.
    """
    F = np.asarray(F)
    if F.shape[-2:] != (lat.L, lat.L):
        raise ValueError(f"expected {lat.L} x {lat.L} phase-space arrays, got {F.shape}")
    lead = F.shape[:-2]
    grid = F.reshape(lead + (lat.b, lat.n_cols, lat.a, lat.n_rows))
    grid = np.moveaxis(grid, (-4, -2), (-2, -1))
    return grid.reshape(lead + (lat.size, lat.a * lat.b))


def unfibers(P, lat: Lattice) -> np.ndarray:
    """Exact inverse of ``fibers``: ``(..., |Lambda|, |adjoint|)`` to ``(..., L, L)``."""
    P = np.asarray(P)
    if P.shape[-2:] != (lat.size, lat.a * lat.b):
        raise ValueError(f"expected ({lat.size}, {lat.a * lat.b}) fibers, got {P.shape}")
    lead = P.shape[:-2]
    grid = P.reshape(lead + (lat.n_cols, lat.n_rows, lat.b, lat.a))
    grid = np.moveaxis(grid, (-2, -1), (-4, -2))
    return grid.reshape(lead + (lat.L, lat.L))


def involution(c, lat: Lattice) -> np.ndarray:
    """out(lambda) = conj(c(-lambda)); conjugates the symplectic series."""
    c = _as_seq(c, lat)
    return np.conj(c[..., lat._neg_index])


def translate_seq(point, c, lat: Lattice) -> np.ndarray:
    """out(lambda) = c(lambda - point); ``point`` must lie in the lattice."""
    c = _as_seq(c, lat)
    idx = lat.index_of(point)
    j0, k0 = divmod(idx, lat.n_cols)
    grid = c.reshape(lat.n_rows, lat.n_cols)
    return np.roll(grid, (j0, k0), axis=(0, 1)).reshape(-1)


def periodize_sq(F, lat: Lattice) -> np.ndarray:
    """Adjoint-lattice periodization of |F|^2, on the dual grid.

    out(xi) = (1/|Lambda|) * sum_{mu in adjoint} |F(z_xi + mu)|^2.
    Nonnegative; strictly positive everywhere exactly when the lattice
    translates of the operator behind F form a Riesz sequence.
    """
    F = np.asarray(F, dtype=complex)
    if F.shape != (lat.L, lat.L):
        raise ValueError(f"expected an {lat.L} x {lat.L} phase-space array, got {F.shape}")
    return (np.abs(fibers(F, lat)) ** 2).sum(axis=1) / lat.size
