"""Average sampling and reconstruction pipelines for operator subspaces.

The subspace under study is spanned by the lattice translates
``alpha_lambda(S_n)`` of N generator operators.  Its elements are
synthesized from coefficient sequences; sampling an element T against M
averaging operators produces the sequences

    s_m(lambda) = <T, alpha_lambda(Q_m)>_HS,

which equal the convolution system ``A * c`` with filter entries
``A[m, n](lambda) = <S_n, alpha_lambda(Q_m)>_HS``.
Whenever that system is a frame, left-inverting its transfer matrix
yields reconstruction operators ``H_m`` in the generator span such that

    T = sum_m sum_lambda s_m(lambda) * alpha_lambda(H_m)

recovers every T in the subspace exactly.  For M == N the H_m are unique
(the left inverse is the inverse) and their own samples interpolate the
delta pattern; for M > N the family of left inverses, hence of valid
reconstructor sets, is parametrized by a free transfer matrix C.  The
one-generator theorem is the system N = M = 1: for a filter q without
zeros on the dual grid, the reconstructor's fibers are those of S / series(q).

Every stage runs on the dual grid.  The operator sets are built from the
adjoint-coset fibers P = fourier_wigner(op, lat) of their trace transforms
(see ``lattice``), which is the form the builders yield: no stage reads a
set's operators, so none is ever formed.  Two identities do the rest,
both exact since the quantization is unitary:

* translation: the trace transform of sum_lambda c(lambda) alpha_lambda(S)
  is series(c)(xi) * P_S[xi, mu], so synthesis, reconstructors and
  reconstruction are per-fiber products (one batched matrix product over
  the dual grid) quantized once at the end by
  ``weyl.inverse_fourier_wigner``; reconstructors are kept as fibers and
  quantized only when their operators are read;
* pairing: <S, alpha_lambda(Q)>_HS is the inverse series of
  |Lambda| * sum_mu P_S[xi, mu] * conj(P_Q[xi, mu]): that coset Gram sum is
  the transfer matrix, and samples and filter sequences add one inverse series.

Sums of translated operators compute the same things directly; they
live with the test suite as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import hs_norm
from .errors import SingularTransfer
from .frames import (
    DEFAULT_TOL_FACTOR,
    ConvolutionMatrix,
    FrameReport,
    TransferMatrix,
    _matmul,
    dual_sequences,
    gram_matrix_bounds,
    left_inverse_family,
)
from .lattice import Lattice, inverse_symplectic_series, symplectic_series, unfibers
from .weyl import fourier_wigner, inverse_fourier_wigner

__all__ = [
    "GeneratorSet",
    "AveragerSet",
    "Reconstructor",
    "synthesize_element",
    "average_samples",
    "system_transfer",
    "sample_filter_matrix",
    "build_reconstructor_multi",
    "reconstruct",
    "interpolation_check",
    "whiten_generator",
    "relative_error",
]


@dataclass(frozen=True)
class GeneratorSet:
    """N generators over a lattice, as the fibers of their trace transforms,
    with the Riesz report of their translates."""

    lattice: Lattice
    fibers: np.ndarray       # (N, size, n_adjoint)
    riesz: FrameReport

    @staticmethod
    def build(P, lattice: Lattice, tol_factor: float = DEFAULT_TOL_FACTOR) -> "GeneratorSet":
        P = _fiber_stack(P, lattice)
        return GeneratorSet(lattice, P, gram_matrix_bounds(P, lattice, tol_factor))

    @property
    def n(self) -> int:
        return self.fibers.shape[0]


@dataclass(frozen=True)
class AveragerSet:
    """M averaging operators over a lattice, as the fibers of their trace transforms."""

    lattice: Lattice
    fibers: np.ndarray       # (M, size, n_adjoint)

    @staticmethod
    def build(P, lattice: Lattice) -> "AveragerSet":
        return AveragerSet(lattice, _fiber_stack(P, lattice))

    @property
    def m(self) -> int:
        return self.fibers.shape[0]


@dataclass(frozen=True)
class Reconstructor:
    """Reconstruction operators H_m, kept as the fibers of their trace
    transforms, plus the left inverse they came from."""

    fibers: np.ndarray       # (M, size, n_adjoint)
    lattice: Lattice
    left_inverse: TransferMatrix
    system_report: FrameReport

    @property
    def ops(self) -> np.ndarray:
        """The operators H_m, shape (M, L, L), quantized on every access."""
        return _quantize(self.fibers, self.lattice)

    @property
    def m(self) -> int:
        return self.fibers.shape[0]


def _fiber_stack(P, lat: Lattice) -> np.ndarray:
    """Fibers as one (K, |Lambda|, a*b) complex stack; a complex array is used as it is."""
    P = np.asarray(P, dtype=complex)
    if P.ndim != 3 or P.shape[1:] != (lat.size, lat.a * lat.b):
        raise ValueError(f"expected fibers of shape ({lat.size}, {lat.a * lat.b}), got {P.shape}")
    return P


def _as_coeffs(c, n: int, size: int) -> np.ndarray:
    c = np.asarray(c, dtype=complex)
    if c.ndim == 1:
        c = c[None, :]
    if c.shape != (n, size):
        raise ValueError(f"expected ({n}, {size}) coefficient array, got {c.shape}")
    return c


def _quantize(P, lat: Lattice) -> np.ndarray:
    """Operators whose trace transforms have the fibers P; inverse of ``fourier_wigner(., lat)``."""
    return inverse_fourier_wigner(unfibers(P, lat))


def _combine(W, P) -> np.ndarray:
    """out[k, xi, mu] = sum_n W[xi, k, n] * P[n, xi, mu]: one matrix product per fiber."""
    return _matmul(W, P.transpose(1, 0, 2)).transpose(1, 0, 2)


def _coset_gram(P, Q, lat: Lattice) -> np.ndarray:
    """out[xi, m, n] = |Lambda| * sum_mu P[n, xi, mu] * conj(Q[m, xi, mu]) from fibers P, Q."""
    # the conjugate of sum_mu Q * conj(P): copies P, which never has more
    # channels than Q, and conjugates the small product in place
    gram = _matmul(Q.transpose(1, 0, 2), P.conj().transpose(1, 2, 0))
    np.conjugate(gram, out=gram)
    return np.multiply(gram, lat.size, out=gram)


def _pairings(P, Q, lat: Lattice) -> np.ndarray:
    """out[m, n](lambda) = <op_n, alpha_lambda(q_m)>_HS: one inverse series of the coset Gram."""
    return inverse_symplectic_series(np.moveaxis(_coset_gram(P, Q, lat), 0, -1), lat)


def synthesize_element(c, gens: GeneratorSet) -> np.ndarray:
    """Element of the generator span with coefficients c: sum c_n(lambda) alpha_lambda(S_n)."""
    lat = gens.lattice
    c = _as_coeffs(c, gens.n, lat.size)
    return _quantize(_combine(symplectic_series(c, lat).T[:, None, :], gens.fibers)[0], lat)


def average_samples(T, avg: AveragerSet) -> np.ndarray:
    """Samples s[m, i] = <T, alpha_{lambda_i}(Q_m)>_HS, shape (M, size)."""
    T = np.asarray(T, dtype=complex)
    L = avg.lattice.L
    if T.shape != (L, L):
        raise ValueError(f"size mismatch: {T.shape} vs {(L, L)}")
    return _pairings(fourier_wigner(T[None], avg.lattice), avg.fibers, avg.lattice)[:, 0]


def system_transfer(gens: GeneratorSet, avg: AveragerSet) -> TransferMatrix:
    """Transfer matrix of the filter system: the coset Gram of the fibers, no series."""
    if gens.lattice != avg.lattice:
        raise ValueError("generator and averager sets must share a lattice")
    return TransferMatrix(gens.lattice, _coset_gram(gens.fibers, avg.fibers, gens.lattice))


def sample_filter_matrix(gens: GeneratorSet, avg: AveragerSet) -> ConvolutionMatrix:
    """The M x N filter system A[m, n](lambda) = <S_n, alpha_lambda(Q_m)>_HS.

    Sampling a synthesized element is the same as applying this system to
    its coefficients: average_samples(synthesize_element(c)) == A * c.
    """
    return dual_sequences(system_transfer(gens, avg))


def build_reconstructor_multi(gens: GeneratorSet, T: TransferMatrix, report: FrameReport,
                              C: TransferMatrix | None = None) -> Reconstructor:
    """Reconstruction operators from a transfer matrix T (M >= N) and its
    ``frame_bounds`` report; refuses when the system is not a frame.

    With B_hat the left inverse (Moore-Penrose for C = None, else the
    C-parametrized member), the m-th operator is sum_n sum_lambda
    B[n, m](lambda) alpha_lambda(S_n), with fibers sum_n B_hat[xi, n, m] * P_{S_n}[xi, mu].
    """
    if T.m < gens.n:
        raise ValueError(f"need at least as many averagers as generators, got M={T.m} < N={gens.n}")
    if T.n != gens.n:
        raise ValueError(f"system has {T.n} input channels but there are {gens.n} generators")
    report.require("sampling system is not a frame: lower bound {alpha:.3e} at dual index {xi}")
    Bhat = left_inverse_family(T, report, C)
    return Reconstructor(_combine(Bhat.values.transpose(0, 2, 1), gens.fibers), gens.lattice,
                         Bhat, report)


def reconstruct(samples, rec: Reconstructor) -> np.ndarray:
    """Synthesis sum_m sum_lambda s[m](lambda) alpha_lambda(H_m)."""
    lat = rec.lattice
    s = _as_coeffs(samples, rec.m, lat.size)
    return _quantize(_combine(symplectic_series(s, lat).T[:, None, :], rec.fibers)[0], lat)


def interpolation_check(rec: Reconstructor, avg: AveragerSet, tol: float = 1e-9):
    """Check the square-system interpolation pattern of the reconstructors.

    For M == N the samples of each H_n must be the delta pattern
    delta_{n,n'} delta_{lambda,0}.  Returns (passed, max_deviation).
    """
    if rec.m != avg.m:
        raise ValueError(f"reconstructor has {rec.m} channels but averager has {avg.m}")
    n_gens = rec.left_inverse.m
    if rec.m != n_gens:
        raise ValueError(f"interpolation pattern needs a square system, got M={rec.m}, N={n_gens}")
    s = _pairings(rec.fibers, avg.fibers, avg.lattice)  # s[:, n]: samples of H_n
    expect = np.zeros_like(s)
    expect[:, :, 0] = np.eye(rec.m)
    dev = float(np.abs(s - expect).max())
    return dev <= tol, dev


def whiten_generator(P, lat: Lattice, tol_factor: float = DEFAULT_TOL_FACTOR) -> np.ndarray:
    """Fibers of a generator whose lattice translates are exactly orthonormal.

    Divides the (|Lambda|, a*b) fibers P of a generator's trace transform
    by the square root of |Lambda| times their coset power, the
    adjoint-lattice periodization.  Refuses when that power has a zero
    (the translates are not a Riesz sequence).  Whitened fibers have flat
    coset power, so whitening them again changes them only in roundoff.
    """
    power = (np.abs(P) ** 2).sum(axis=-1)
    if power.min() <= tol_factor * power.max():
        xi = int(np.argmin(power))
        raise SingularTransfer(
            f"cannot whiten: periodized spectrum vanishes near dual index {xi}",
            witness_xi=xi, witness_point=tuple(int(v) for v in lat.dual_points[xi]))
    return P / np.sqrt(lat.size * power)[:, None]


def relative_error(T_rec, T) -> float:
    """Relative HS-norm reconstruction error."""
    return float(np.linalg.norm(np.asarray(T_rec) - np.asarray(T)) / hs_norm(T))
