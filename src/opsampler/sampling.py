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
reconstructor sets, is parametrized by a free transfer matrix C.

Every stage runs on the dual grid.  The operator sets keep the
adjoint-coset fibers P = fibers(fourier_wigner(op)) (see ``lattice``),
and two identities do the rest, both exact since the quantization is
unitary:

* translation: the trace transform of sum_lambda c(lambda) alpha_lambda(S)
  is series(c)(xi) * P_S[xi, mu], so synthesis, reconstructors and
  reconstruction are per-fiber products (one batched matrix product over
  the dual grid) quantized once at the end by
  ``weyl.inverse_fourier_wigner``; reconstructors are kept as fibers and
  quantized only when their operators are read;
* pairing: <S, alpha_lambda(Q)>_HS is the inverse series of
  |Lambda| * sum_mu P_S[xi, mu] * conj(P_Q[xi, mu]), so samples and the
  filter system are coset Gram sums followed by one inverse series.

Sums of translated operators (``seq_operator_convolve`` with
``core.translate_operator``) compute the same things directly and serve
as the oracle in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import hs_norm, translate_operator
from .errors import SingularTransfer
from .frames import (
    DEFAULT_TOL_FACTOR,
    ConvolutionMatrix,
    FrameReport,
    TransferMatrix,
    frame_bounds,
    gram_matrix_bounds,
    left_inverse_family,
    single_gen_condition,
    transfer_matrix,
)
from .lattice import Lattice, fibers, inverse_symplectic_series, symplectic_series, unfibers
from .weyl import fourier_wigner, inverse_fourier_wigner, symplectic_ft, weyl_transform

__all__ = [
    "GeneratorSet",
    "AveragerSet",
    "Reconstructor",
    "synthesize_element",
    "average_samples",
    "sample_filter_matrix",
    "build_reconstructor_single",
    "build_reconstructor_multi",
    "reconstruct",
    "seq_operator_convolve",
    "interpolation_check",
    "whiten_generator",
    "relative_error",
]


def _check_same_size(A, B):
    if A.shape != B.shape:
        raise ValueError(f"size mismatch: {A.shape} vs {B.shape}")


@dataclass(frozen=True)
class GeneratorSet:
    """N generator operators over a lattice, with the fibers of their trace transforms."""

    ops: np.ndarray          # (N, L, L)
    lattice: Lattice
    fibers: np.ndarray       # (N, size, n_adjoint)
    riesz: FrameReport

    @staticmethod
    def build(ops, lattice: Lattice, tol_factor: float = DEFAULT_TOL_FACTOR) -> "GeneratorSet":
        ops = _stack_ops(ops, lattice.L)
        P = _spectra(ops, lattice)
        riesz = gram_matrix_bounds(ops, lattice, tol_factor, spectra=P)
        return GeneratorSet(ops, lattice, P, riesz)

    @property
    def n(self) -> int:
        return self.ops.shape[0]


@dataclass(frozen=True)
class AveragerSet:
    """M averaging operators over a lattice, with the fibers of their trace transforms."""

    ops: np.ndarray          # (M, L, L)
    lattice: Lattice
    fibers: np.ndarray       # (M, size, n_adjoint)

    @staticmethod
    def build(ops, lattice: Lattice) -> "AveragerSet":
        ops = _stack_ops(ops, lattice.L)
        return AveragerSet(ops, lattice, _spectra(ops, lattice))

    @property
    def m(self) -> int:
        return self.ops.shape[0]


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


def _stack_ops(ops, L: int) -> np.ndarray:
    arr = np.stack([np.asarray(op, dtype=complex) for op in ops])
    if arr.ndim != 3 or arr.shape[1:] != (L, L):
        raise ValueError(f"expected operators of shape ({L}, {L}), got {arr.shape[1:]}")
    return arr


def _as_coeffs(c, n: int, size: int) -> np.ndarray:
    c = np.asarray(c, dtype=complex)
    if c.ndim == 1:
        c = c[None, :]
    if c.shape != (n, size):
        raise ValueError(f"expected ({n}, {size}) coefficient array, got {c.shape}")
    return c


def _spectra(ops, lat: Lattice) -> np.ndarray:
    """Fibers of the trace transforms of operators, (..., size, n_adjoint) from (..., L, L)."""
    return fibers(fourier_wigner(ops), lat)


def _quantize(P, lat: Lattice) -> np.ndarray:
    """Operators whose trace transforms have the fibers P; inverse of ``_spectra``."""
    return inverse_fourier_wigner(unfibers(P, lat))


def _combine(W, P) -> np.ndarray:
    """out[k, xi, mu] = sum_n W[xi, k, n] * P[n, xi, mu]: one matrix product per fiber."""
    return np.matmul(W, P.transpose(1, 0, 2)).transpose(1, 0, 2)


def _pairings(P, Q, lat: Lattice) -> np.ndarray:
    """out[m, n](lambda) = <op_n, alpha_lambda(q_m)>_HS from fibers P (N, ...) and Q (M, ...)."""
    return inverse_symplectic_series(lat.size * np.einsum("nxa,mxa->mnx", P, Q.conj()), lat)


def synthesize_element(c, gens: GeneratorSet) -> np.ndarray:
    """Element of the generator span with coefficients c: sum c_n(lambda) alpha_lambda(S_n)."""
    lat = gens.lattice
    c = _as_coeffs(c, gens.n, lat.size)
    return _quantize(_combine(symplectic_series(c, lat).T[:, None, :], gens.fibers)[0], lat)


def average_samples(T, avg: AveragerSet) -> np.ndarray:
    """Samples s[m, i] = <T, alpha_{lambda_i}(Q_m)>_HS, shape (M, size)."""
    T = np.asarray(T, dtype=complex)
    _check_same_size(T, avg.ops[0])
    return _pairings(_spectra(T[None], avg.lattice), avg.fibers, avg.lattice)[:, 0]


def sample_filter_matrix(gens: GeneratorSet, avg: AveragerSet) -> ConvolutionMatrix:
    """The M x N filter system A[m, n](lambda) = <S_n, alpha_lambda(Q_m)>_HS.

    Sampling a synthesized element is the same as applying this system to
    its coefficients: average_samples(synthesize_element(c)) == A * c.
    """
    if gens.lattice != avg.lattice:
        raise ValueError("generator and averager sets must share a lattice")
    return ConvolutionMatrix(gens.lattice, _pairings(gens.fibers, avg.fibers, gens.lattice))


def build_reconstructor_single(gens: GeneratorSet, q,
                               tol_factor: float = DEFAULT_TOL_FACTOR) -> Reconstructor:
    """Single-generator reconstruction from a scalar filter sequence q.

    Requires the series of q to be zero-free on the dual grid; the dual
    filter p has series 1/series(q), and the reconstruction operator is
    sum_lambda p(lambda) alpha_lambda(S): its fibers are those of S divided
    by series(q).
    """
    if gens.n != 1:
        raise ValueError(f"single-generator path needs exactly one generator, got {gens.n}")
    lat = gens.lattice
    report = single_gen_condition(q, lat, tol_factor)
    if not report.passed:
        raise SingularTransfer(
            f"filter series has a zero at dual index {report.witnesses[0]} "
            f"(min modulus {report.alpha:.3e})",
            witness_xi=report.witnesses[0], witness_point=report.witness_points[0])
    dual = 1.0 / symplectic_series(np.asarray(q, dtype=complex), lat)
    P = dual[None, :, None] * gens.fibers
    left = TransferMatrix(lat, dual[:, None, None])
    return Reconstructor(P, lat, left, report)


def build_reconstructor_multi(gens: GeneratorSet, A: ConvolutionMatrix,
                              C: TransferMatrix | None = None,
                              tol_factor: float = DEFAULT_TOL_FACTOR,
                              *, transfer: TransferMatrix | None = None,
                              report: FrameReport | None = None) -> Reconstructor:
    """Reconstruction operators for a sampling system A (M >= N).

    Left-inverts the transfer matrix (Moore-Penrose for C = None, else the
    C-parametrized member) B_hat; the m-th reconstruction operator is
    sum_n sum_lambda B[n, m](lambda) alpha_lambda(S_n), whose fibers are
    sum_n B_hat[xi, n, m] * P_{S_n}[xi, mu].  Refuses when the system is
    not a frame.  ``transfer`` (``transfer_matrix(A)``) and ``report``
    (``frame_bounds`` of it at ``tol_factor``) are computed unless the
    caller has them already.
    """
    if A.m < gens.n:
        raise ValueError(f"need at least as many averagers as generators, got M={A.m} < N={gens.n}")
    if A.n != gens.n:
        raise ValueError(f"system has {A.n} input channels but there are {gens.n} generators")
    lat = gens.lattice
    That = transfer_matrix(A) if transfer is None else transfer
    if report is None:
        report = frame_bounds(That, tol_factor)
    if not report.passed:
        raise SingularTransfer(
            f"sampling system is not a frame: lower bound {report.alpha:.3e} at "
            f"dual index {report.witnesses[0]}",
            witness_xi=report.witnesses[0], witness_point=report.witness_points[0])
    Bhat = left_inverse_family(That, C, tol_factor, report=report)
    return Reconstructor(_combine(Bhat.values.transpose(0, 2, 1), gens.fibers), lat, Bhat, report)


def reconstruct(samples, rec: Reconstructor) -> np.ndarray:
    """Synthesis sum_m sum_lambda s[m](lambda) alpha_lambda(H_m)."""
    lat = rec.lattice
    s = _as_coeffs(samples, rec.m, lat.size)
    return _quantize(_combine(symplectic_series(s, lat).T[:, None, :], rec.fibers)[0], lat)


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
    s = _pairings(_spectra(rec.ops, avg.lattice), avg.fibers, avg.lattice)  # s[:, n]: samples of H_n
    expect = np.zeros_like(s)
    expect[:, :, 0] = np.eye(rec.m)
    dev = float(np.abs(s - expect).max())
    return dev <= tol, dev


def whiten_generator(S, lat: Lattice, tol_factor: float = DEFAULT_TOL_FACTOR) -> np.ndarray:
    """Generator whose lattice translates are exactly orthonormal.

    Divides the phase-weighted trace transform of S pointwise by the
    square root of |Lattice| times its adjoint-lattice periodization, then
    maps back to an operator.  Refuses when the periodization has a zero
    (the translates of S are not a Riesz sequence).

    A whitened generator is an input: its bits show in exported symbol
    files and, its periodization being flat, decide which dual index wins
    the roundoff tie for the smallest Gram eigenvalue.  It is quantized as
    ``weyl_transform(symplectic_ft(.))``, which agrees with
    ``inverse_fourier_wigner`` to roundoff but not bit for bit, so that
    the same config keeps giving the same generator.
    """
    P = _spectra(S, lat)
    power = (np.abs(P) ** 2).sum(axis=1)
    if power.min() <= tol_factor * power.max():
        xi = int(np.argmin(power))
        raise SingularTransfer(
            f"cannot whiten: periodized spectrum vanishes near dual index {xi}",
            witness_xi=xi, witness_point=tuple(int(v) for v in lat.dual_points[xi]))
    return weyl_transform(symplectic_ft(unfibers(P / np.sqrt(lat.size * power)[:, None], lat)))


def relative_error(T_rec, T) -> float:
    """Relative HS-norm reconstruction error."""
    return float(np.linalg.norm(np.asarray(T_rec) - np.asarray(T)) / hs_norm(T))
