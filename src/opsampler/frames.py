"""Riesz and frame condition analysis for lattice convolution systems.

A convolution system is an M x N matrix of lattice sequences; it maps N
input sequences to M output sequences by entrywise lattice convolution.
Its transfer matrix collects, per dual-grid index xi, the M x N matrix of
symplectic series values.  The extreme eigenvalues of the Hermitian
matrices ``A_hat(xi)* A_hat(xi)`` over the dual grid decide whether the
associated system of translates is a frame (lower bound strictly
positive) and, when M == N, whether it is a Riesz basis (lower bound
strictly positive and determinant bounded away from zero).

Positivity of a floating-point minimum is gated relatively:
``value > tol_factor * scale`` with ``tol_factor = 1e-10`` by default,
the scale being the corresponding maximum.  Reports always carry the
dual-grid index attaining the minimum so failures can be localized.

The verdict string is one of ``riesz_basis`` (pass with M == N, or a
Gram pass: a Riesz sequence is a Riesz basis for its span), ``frame``
(pass with M > N), ``fail`` (lower bound not positive; witnesses
attached).

Every stage is evaluated on the dual grid (see ``lattice``): transfer
matrices and dual sequences are batched symplectic series, and the Gram
test reads the adjoint-coset fibers of the trace transforms.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    grid.  ``delta`` is the minimum |det| for square systems, None
    otherwise.  ``witnesses`` lists dual-grid indices where the lower
    bound degenerates (the argmin always comes first).
    """

    alpha: float
    beta: float
    delta: float | None
    verdict: str
    witnesses: tuple[int, ...]
    witness_points: tuple[tuple[int, int], ...]
    tol: float
    kind: str

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


def _witnesses(lows: np.ndarray, tol: float, lat: Lattice) -> tuple[tuple[int, ...], tuple]:
    order = [int(np.argmin(lows))]
    order += [int(i) for i in np.flatnonzero(lows <= tol) if int(i) != order[0]]
    points = tuple(divmod(i, lat.n_rows) for i in order)  # the rows of lat.dual_points
    return tuple(order), points


def transfer_matrix(A: ConvolutionMatrix) -> TransferMatrix:
    """Entrywise symplectic series of the system, evaluated on the dual grid."""
    return TransferMatrix(A.lattice, np.moveaxis(symplectic_series(A.seqs, A.lattice), -1, 0))


def _report(eigs: np.ndarray, lat: Lattice, tol_factor: float, kind: str,
            pass_verdict: str, dets: np.ndarray | None = None) -> FrameReport:
    """Report from per-xi ascending eigenvalues (size, K); with ``dets``
    the smallest |det| must clear the relative gate too."""
    lows = eigs[:, 0]
    alpha = float(lows.min())
    beta = float(eigs[:, -1].max())
    tol = tol_factor * beta
    passed = alpha > tol
    delta = None
    if dets is not None:
        delta = float(dets.min())
        passed = passed and delta > tol_factor * float(dets.max())
    wit, pts = _witnesses(lows, -np.inf if passed else tol, lat)
    return FrameReport(alpha, beta, delta, pass_verdict if passed else VERDICT_FAIL,
                       wit, pts, tol, kind)


def frame_bounds(T: TransferMatrix, tol_factor: float = DEFAULT_TOL_FACTOR) -> FrameReport:
    """Extreme eigenvalues of A_hat(xi)* A_hat(xi) over the dual grid.

    alpha is the global smallest eigenvalue, beta the largest; for square
    systems delta is the smallest |det A_hat(xi)|.  Verdict: riesz_basis
    when M == N and both alpha and delta clear the relative gate, frame
    when M > N and alpha clears it, fail otherwise (with witnesses).  The
    alpha gate matters for square systems too: a rank-deficient system
    whose determinants are all roundoff can clear the delta gate alone.
    For a 1 x 1 system with filter q, alpha = min |series q|^2.
    """
    if T.m < T.n:
        raise ValueError(f"system must have at least as many outputs as inputs, got {T.m} x {T.n}")
    gram = np.einsum("xmn,xmk->xnk", T.values.conj(), T.values)
    square = T.m == T.n
    dets = np.abs(np.linalg.det(T.values)) if square else None
    return _report(np.linalg.eigvalsh(gram), T.lattice, tol_factor, "transfer",
                   VERDICT_RIESZ if square else VERDICT_FRAME, dets)


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
    gram = np.einsum("nxa,mxa->xnm", V, V.conj())
    return _report(np.linalg.eigvalsh(gram), lat, tol_factor, "gram", VERDICT_RIESZ)


def left_inverse_family(T: TransferMatrix, report: FrameReport,
                        C: TransferMatrix | None = None) -> TransferMatrix:
    """Left inverses B_hat = A_dag + C (I - A A_dag), parametrized by C.

    ``report`` is ``frame_bounds(T)``; a system that fails it is refused
    with SingularTransfer, so no NaN/Inf is returned.  A_dag is the
    per-xi Moore-Penrose left inverse (A* A)^{-1} A*, the member C = None.
    Every member satisfies ``B_hat(xi) A_hat(xi) = I`` for all xi; for
    square systems the projector I - A A_dag vanishes and C is irrelevant.
    """
    report.require("transfer matrix is singular at dual index {xi} "
                   "(alpha={alpha:.3e}, beta={beta:.3e})")
    adj = T.values.conj().transpose(0, 2, 1)
    dag = np.linalg.solve(np.matmul(adj, T.values), adj)
    if C is None:
        return TransferMatrix(T.lattice, dag)
    if C.values.shape != dag.shape:
        raise ValueError(f"C must have shape {dag.shape}, got {C.values.shape}")
    proj = np.eye(T.m) - np.matmul(T.values, dag)
    return TransferMatrix(T.lattice, dag + np.matmul(C.values, proj))


def dual_sequences(B: TransferMatrix) -> ConvolutionMatrix:
    """Entrywise inverse symplectic series of a transfer matrix."""
    return ConvolutionMatrix(B.lattice, inverse_symplectic_series(np.moveaxis(B.values, 0, -1), B.lattice))
