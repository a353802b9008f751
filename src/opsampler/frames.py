"""Riesz and frame condition analysis for lattice convolution systems.

A convolution system is an M x N matrix of lattice sequences; it maps N
input sequences to M output sequences by entrywise lattice convolution.
Its transfer matrix collects, per dual-grid index xi, the M x N matrix of
symplectic series values.  The extreme eigenvalues of the Hermitian
matrices ``A_hat(xi)* A_hat(xi)`` over the dual grid decide whether the
associated system of translates is a frame (lower bound strictly
positive), which for M == N makes it a Riesz basis.  Every shape is
gated the same way, on the lower bound alone.

Positivity of a floating-point minimum is gated relatively:
``alpha > tol_factor * beta`` with ``tol_factor = 1e-10`` by default,
``beta`` being the largest eigenvalue.  Reports always carry a dual-grid
index attaining the minimum, up to a roundoff band, so failures can be
localized.

Each transfer matrix is factorized once: one batched ``eigh`` of its
Gram matrices gives the bounds, ``delta`` and the Moore-Penrose left
inverse.

The verdict string is one of ``riesz_basis`` (pass with M == N, or a
Gram pass: a Riesz sequence is a Riesz basis for its span), ``frame``
(pass with M > N), ``fail`` (lower bound not positive; witnesses
attached).

Every stage is evaluated on the dual grid (see ``lattice``): transfer
matrices and dual sequences are batched symplectic series, and the Gram
test reads the adjoint-coset fibers of the trace transforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularTransfer
from .lattice import Lattice, inverse_symplectic_series, symplectic_series

__all__ = [
    "DEFAULT_TOL_FACTOR",
    "ConvolutionMatrix",
    "TransferMatrix",
    "FrameReport",
    "transfer_matrix",
    "frame_bounds",
    "gram_matrix_bounds",
    "left_inverse_family",
    "dual_sequences",
]

DEFAULT_TOL_FACTOR = 1e-10

VERDICT_RIESZ = "riesz_basis"
VERDICT_FRAME = "frame"
VERDICT_FAIL = "fail"

# Width of the roundoff band, in units of beta, within which lower
# eigenvalues tie for the first witness.
WITNESS_BAND = 16 * np.finfo(float).eps


@dataclass(frozen=True)
class ConvolutionMatrix:
    """M x N matrix of lattice sequences, stored as an (M, N, size) array."""

    lattice: Lattice
    seqs: np.ndarray

    def __post_init__(self):
        seqs = np.asarray(self.seqs, dtype=complex)
        if seqs.ndim != 3 or seqs.shape[2] != self.lattice.size:
            raise ValueError(
                f"expected an (M, N, {self.lattice.size}) array of sequences, got {seqs.shape}")
        object.__setattr__(self, "seqs", seqs)

    @property
    def m(self) -> int:
        return self.seqs.shape[0]

    @property
    def n(self) -> int:
        return self.seqs.shape[1]

    def convolve(self, c) -> np.ndarray:
        """Apply the system: out_m = sum_n seqs[m, n] * c_n (lattice convolution)."""
        c = np.asarray(c, dtype=complex)
        if c.shape != (self.n, self.lattice.size):
            raise ValueError(f"expected ({self.n}, {self.lattice.size}) coefficients, got {c.shape}")
        lat = self.lattice
        hat = np.einsum("mnx,nx->mx", symplectic_series(self.seqs, lat), symplectic_series(c, lat))
        return inverse_symplectic_series(hat, lat)


@dataclass(frozen=True)
class TransferMatrix:
    """Per-dual-grid-index M x N matrices, stored as a (size, M, N) array."""

    lattice: Lattice
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.ndim != 3 or values.shape[0] != self.lattice.size:
            raise ValueError(
                f"expected a ({self.lattice.size}, M, N) array, got {values.shape}")
        object.__setattr__(self, "values", values)

    @property
    def m(self) -> int:
        return self.values.shape[1]

    @property
    def n(self) -> int:
        return self.values.shape[2]


@dataclass(frozen=True)
class FrameReport:
    """Spectral bounds of a system plus the pass/fail verdict.

    ``alpha``/``beta`` are the extreme eigenvalue bounds over the dual
    grid; the verdict passes when ``alpha > tol``, ``tol = tol_factor *
    beta``.  ``delta`` is the minimum |det| for square systems, None
    otherwise; it is information only and takes no part in the verdict.
    ``witnesses`` lists dual-grid indices where the lower bound
    degenerates.  The first is the lowest index whose lower eigenvalue
    lies within ``WITNESS_BAND * beta`` of ``alpha``, so that roundoff
    ties do not make it depend on summation order; a failing report then
    lists every other index whose lower eigenvalue is ``<= tol``.

    ``eigenpairs`` holds the per-xi ascending eigenvalues and
    eigenvectors ``(w, V)`` of the transfer Gram matrices that
    ``frame_bounds`` factorized, for ``left_inverse_family``; it is None
    for Gram reports and takes no part in the JSON form, equality or repr.
    """

    alpha: float
    beta: float
    delta: float | None
    verdict: str
    witnesses: tuple[int, ...]
    witness_points: tuple[tuple[int, int], ...]
    tol: float
    kind: str
    eigenpairs: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, compare=False, repr=False)

    @property
    def passed(self) -> bool:
        return self.verdict in (VERDICT_FRAME, VERDICT_RIESZ)

    def to_jsonable(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "delta": self.delta,
            "verdict": self.verdict,
            "witness_xi": list(self.witnesses),
            "witness_points": [list(p) for p in self.witness_points],
            "tol": self.tol,
            "kind": self.kind,
        }

    def require(self, template: str) -> None:
        """Raise SingularTransfer at the first witness unless passed; the
        message is ``template`` formatted with alpha, beta, kind and xi."""
        if not self.passed:
            xi = self.witnesses[0]
            raise SingularTransfer(
                template.format(alpha=self.alpha, beta=self.beta, kind=self.kind, xi=xi),
                witness_xi=xi, witness_point=self.witness_points[0])


def _witnesses(lows: np.ndarray, tol: float, lat: Lattice,
               band: float = 0.0) -> tuple[tuple[int, ...], tuple]:
    """The lowest index with ``lows <= min + band``, then the other
    indices with ``lows <= tol``."""
    first = int(np.argmax(lows <= lows.min() + band))
    order = [first]
    order += [int(i) for i in np.flatnonzero(lows <= tol) if int(i) != first]
    points = tuple(divmod(i, lat.n_rows) for i in order)  # the rows of lat.dual_points
    return tuple(order), points


def transfer_matrix(A: ConvolutionMatrix) -> TransferMatrix:
    """Entrywise symplectic series of the system, evaluated on the dual grid."""
    return TransferMatrix(A.lattice, np.moveaxis(symplectic_series(A.seqs, A.lattice), -1, 0))


def _report(w: np.ndarray, lat: Lattice, tol_factor: float, kind: str, pass_verdict: str,
            delta: float | None = None, eigenpairs=None) -> FrameReport:
    """Report from per-xi ascending eigenvalues w, shape (size, K)."""
    lows = w[:, 0]
    alpha = float(lows.min())
    beta = float(w[:, -1].max())
    tol = tol_factor * beta
    passed = alpha > tol
    wit, pts = _witnesses(lows, -np.inf if passed else tol, lat, WITNESS_BAND * beta)
    return FrameReport(alpha, beta, delta, pass_verdict if passed else VERDICT_FAIL,
                       wit, pts, tol, kind, eigenpairs)


def _adjoint(values: np.ndarray) -> np.ndarray:
    """Per-xi conjugate transpose of a (size, M, N) stack."""
    return values.conj().transpose(0, 2, 1)


def frame_bounds(T: TransferMatrix, tol_factor: float = DEFAULT_TOL_FACTOR) -> FrameReport:
    """Extreme eigenvalues of A_hat(xi)* A_hat(xi) over the dual grid.

    alpha is the global smallest eigenvalue, beta the largest.  Verdict:
    when alpha > tol_factor * beta, riesz_basis for M == N and frame for
    M > N; fail otherwise, with witnesses (first one within
    ``WITNESS_BAND * beta`` of alpha, see ``FrameReport``).  For square
    systems delta = min |det A_hat(xi)| = min sqrt(prod of eigenvalues),
    negative roundoff eigenvalues clipped to 0.  delta is information
    only: a gate on it would give the same Gram matrices different
    verdicts by shape (diag(1e-4, 1e-4, 1e-4) at one xi has a |det| ratio
    of 1e-12 as a 3 x 3 system, while alpha / beta = 1e-8 in that shape
    and with a zero row appended).  For a 1 x 1 system with filter q,
    alpha = min |series q|^2.

    One batched ``eigh`` factorizes the Gram matrices; the report keeps
    its eigenpairs for ``left_inverse_family``.
    """
    if T.m < T.n:
        raise ValueError(f"system must have at least as many outputs as inputs, got {T.m} x {T.n}")
    w, V = np.linalg.eigh(np.matmul(_adjoint(T.values), T.values))
    square = T.m == T.n
    delta = float(np.sqrt(np.clip(w, 0.0, None).prod(axis=1).min())) if square else None
    return _report(w, T.lattice, tol_factor, "transfer",
                   VERDICT_RIESZ if square else VERDICT_FRAME, delta, (w, V))


def gram_matrix_bounds(V, lat: Lattice, tol_factor: float = DEFAULT_TOL_FACTOR) -> FrameReport:
    """Riesz-sequence test for lattice translates of N operators.

    ``V`` stacks the adjoint-coset fibers of the phase-weighted trace
    transforms of the generators, shape (N, size, n_adjoint).  Builds, per
    dual-grid representative z, the N x N Gram matrix
    ``G(z) = sum_mu v(z + mu) v(z + mu)^H`` over the adjoint lattice and
    returns the extreme eigenvalues over the grid.  For a single
    generator the bounds are |Lambda| times the extremes of the
    periodized square (scaling documented in ``periodize_sq``).
    """
    if len(V) == 0:
        raise ValueError("need at least one generator")
    Vx = V.transpose(1, 0, 2)
    gram = np.matmul(Vx, _adjoint(Vx))
    return _report(np.linalg.eigvalsh(gram), lat, tol_factor, "gram", VERDICT_RIESZ)


def left_inverse_family(T: TransferMatrix, report: FrameReport,
                        C: TransferMatrix | None = None) -> TransferMatrix:
    """Left inverses B_hat = A_dag + C (I - A A_dag), parametrized by C.

    ``report`` is ``frame_bounds(T)``; a system that fails it is refused
    with SingularTransfer, so no NaN/Inf is returned.  A_dag is the
    per-xi Moore-Penrose left inverse (A* A)^{-1} A* = V diag(1/w) V* A*,
    read from the eigenpairs (w, V) the report carries, the member
    C = None.  Every member satisfies ``B_hat(xi) A_hat(xi) = I`` for all
    xi; for square systems the projector I - A A_dag vanishes and C is
    irrelevant.
    """
    report.require("transfer matrix is singular at dual index {xi} "
                   "(alpha={alpha:.3e}, beta={beta:.3e})")
    if report.eigenpairs is None or report.eigenpairs[0].shape != (T.lattice.size, T.n):
        raise ValueError("report must be frame_bounds(T) of this transfer matrix")
    w, V = report.eigenpairs
    dag = np.matmul(V / w[:, None, :], np.matmul(_adjoint(V), _adjoint(T.values)))
    if C is None:
        return TransferMatrix(T.lattice, dag)
    if C.values.shape != dag.shape:
        raise ValueError(f"C must have shape {dag.shape}, got {C.values.shape}")
    proj = np.eye(T.m) - np.matmul(T.values, dag)
    return TransferMatrix(T.lattice, dag + np.matmul(C.values, proj))


def dual_sequences(B: TransferMatrix) -> ConvolutionMatrix:
    """Entrywise inverse symplectic series of a transfer matrix."""
    return ConvolutionMatrix(B.lattice, inverse_symplectic_series(np.moveaxis(B.values, 0, -1), B.lattice))
