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

This module holds the spectral algebra of the package.  Everything that is
invariant under lattice translation diagonalizes on the dual grid, and
two maps say so:

* the symplectic Fourier series

      F(xi) = sum_lambda c(lambda) * exp(2*pi*i*sigma(lambda, z_xi)/L)

  is, on the (L/a, L/b) grid of a sequence, a forward DFT over j and an
  inverse (unnormalized) DFT over k, followed by a transpose into the
  dual-grid order; it satisfies the Parseval identity
  ``sum_xi |F(xi)|^2 = |Lambda| * sum_lambda |c(lambda)|^2``;
* the fibers of a phase-space function, ``P[xi, mu] = F(z_xi + mu)``
  over the adjoint lattice points mu, are a reshape of the L x L grid:
  ``unfibers`` maps them back to the grid, and no index table is built.

Lattice translation of an operator multiplies its phase-weighted trace
transform by the series of the coefficients, fiber by fiber, so
synthesis, sampling, transfer matrices and reconstruction all reduce to
per-fiber products between these two maps.  Both batch over leading
axes.  Sequences are convolved, reflected and translated only through
the series; the direct sums over lattice points are the test suite's
oracle.

The per-dual-point algebra of the other modules lives here too, in the
private helpers ``_fiber_grid``, ``_adjoint``, ``_matmul`` and
``_coset_gram``, the one coset product of two fiber stacks: the Gram
matrices of the Riesz test in ``frames``, whose quadratic forms are also
the roundtrip's error norms, and, conjugated and scaled, the transfer
matrix in ``sampling``.  ``_fiber_slot`` is the one check on
the stack slot that ``builders`` and ``weyl`` write an operator's
fibers through.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Lattice",
    "symplectic_series",
    "inverse_symplectic_series",
    "unfibers",
    "periodize_sq",
]


@dataclass(frozen=True)
class Lattice:
    """The separable lattice a*Z_L x b*Z_L with a | L and b | L."""

    L: int
    a: int
    b: int

    def __post_init__(self):
        if self.L < 3:
            raise ValueError(f"modulus must be >= 3, got {self.L}")
        if self.L % 2 == 0:
            raise ValueError(f"modulus must be odd so that 2 is invertible mod L, got {self.L}")
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
    def dual_points(self) -> np.ndarray:
        """(size, 2) coset representatives (x, omega), x < L/b, omega < L/a."""
        xs = np.arange(self.n_cols)
        ws = np.arange(self.n_rows)
        pts = np.stack(np.broadcast_arrays(xs[:, None], ws[None, :]), axis=-1)
        return pts.reshape(-1, 2)

    @cached_property
    def adjoint(self) -> "Lattice":
        return Lattice(self.L, self.L // self.b, self.L // self.a)


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
    c = _grid_dft(_as_seq(F, lat), lat.n_cols, lat.n_rows)
    c /= lat.size
    return c


def unfibers(P, lat: Lattice) -> np.ndarray:
    """The phase-space grids ``(..., L, L)`` of fibers ``(..., |Lambda|, |adjoint|)``:
    grid cell ``z_xi + mu`` is ``P[..., xi, mu]``, xi in dual-grid order and
    mu in the enumeration of the adjoint lattice (see ``_fiber_grid``)."""
    P = np.asarray(P)
    if P.shape[-2:] != (lat.size, lat.a * lat.b):
        raise ValueError(f"expected ({lat.size}, {lat.a * lat.b}) fibers, got {P.shape}")
    return _fiber_grid(P, lat).reshape(P.shape[:-2] + (lat.L, lat.L))


def _fiber_slot(out, lat: Lattice) -> None:
    """Refuse, with a ``ValueError``, an ``out`` that is not a C-contiguous
    complex ``(|Lambda|, a*b)`` array: a build writes a whole operator's
    fibers through it, and its ``_fiber_grid`` must be a view, not a copy."""
    shape = (lat.size, lat.a * lat.b)
    if out.shape != shape or out.dtype != complex or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous complex array of shape {shape}")


def _fiber_grid(P, lat: Lattice) -> np.ndarray:
    """Fibers ``(..., |Lambda|, |adjoint|)`` as a ``(..., b, L/b, a, L/a)`` view
    whose element ``[p, x, q, omega]`` is grid cell ``(x + (L/b)*p, omega + (L/a)*q)``."""
    grid = P.reshape(P.shape[:-2] + (lat.n_cols, lat.n_rows, lat.b, lat.a))
    return np.moveaxis(grid, (-2, -1), (-4, -2))


def periodize_sq(P, lat: Lattice) -> np.ndarray:
    """Adjoint-lattice periodization of |F|^2, on the dual grid, from the
    ``(|Lambda|, |adjoint|)`` fibers P of F.

    out(xi) = (1/|Lambda|) * sum_{mu in adjoint} |F(z_xi + mu)|^2.
    Nonnegative; strictly positive everywhere exactly when the lattice
    translates of the operator behind F form a Riesz sequence.
    """
    P = np.asarray(P)
    if P.shape != (lat.size, lat.a * lat.b):
        raise ValueError(f"expected ({lat.size}, {lat.a * lat.b}) fibers, got {P.shape}")
    return (np.abs(P) ** 2).sum(axis=-1) / lat.size


def _adjoint(values: np.ndarray) -> np.ndarray:
    """Per-xi conjugate transpose of a (size, M, N) stack."""
    return values.conj().transpose(0, 2, 1)


def _matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``np.matmul(A, B)``; over a contracted dimension of 1 the outer
    products ``A * B``, which numpy would hand to BLAS once per matrix."""
    return A * B if A.shape[-1] == 1 else np.matmul(A, B)


def _coset_gram(Q: np.ndarray, P: np.ndarray) -> np.ndarray:
    """out[xi, m, n] = sum_mu Q[m, xi, mu] * conj(P[n, xi, mu]) from the
    (M, |Lambda|, a*b) and (N, |Lambda|, a*b) fiber stacks Q and P."""
    return _matmul(Q.transpose(1, 0, 2), P.conj().transpose(1, 2, 0))
