"""Riesz and frame condition analysis for lattice convolution systems.

A convolution system maps N input sequences on the lattice to M output
sequences by entrywise lattice convolution with an M x N matrix of
filter sequences.  Its transfer matrix is a plain (|Lambda|, M, N)
array: per dual-grid index xi, the M x N matrix of the filters'
symplectic series values.  The sampling system's is read off the fibers
directly (``sampling.system_transfer``), so the filter sequences
themselves are never formed.  Every function that reads the dual grid
takes the lattice ``lat`` alongside the arrays.  The extreme
eigenvalues of the Hermitian matrices ``A_hat(xi)* A_hat(xi)`` over the
dual grid decide whether the associated system of translates is a frame
(lower bound strictly positive), which for M == N makes it a Riesz
basis.  Every shape is gated the same way, on the lower bound alone.

Positivity of a floating-point minimum is gated relatively:
``alpha > tol_factor * beta`` with ``tol_factor = 1e-10`` by default,
``beta`` being the largest eigenvalue.  Reports always carry a dual-grid
index attaining the minimum, up to a roundoff band, so failures can be
localized.

Both reports read eigenvalues only, one batched ``eigvalsh`` (no LAPACK
for 1 x 1 matrices), and keep the Hermitian stack they bound as ``gram``;
the left inverse solves the transfer report's ``G = A* A``.

The verdict string is one of ``riesz_basis`` (pass with M == N, or a
Gram pass: a Riesz sequence is a Riesz basis for its span), ``frame``
(pass with M > N), ``fail`` (lower bound not positive; witnesses
attached).

Every stage is evaluated on the dual grid with ``lattice``'s algebra: the
Gram test is the coset product of the generators' fibers with themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularTransfer
from .lattice import Lattice, _adjoint, _coset_gram, _matmul

__all__ = [
    "DEFAULT_TOL_FACTOR",
    "FrameReport",
    "frame_bounds",
    "gram_matrix_bounds",
    "left_inverse_family",
]

DEFAULT_TOL_FACTOR = 1e-10

VERDICT_RIESZ = "riesz_basis"
VERDICT_FRAME = "frame"
VERDICT_FAIL = "fail"

# Width of the roundoff band, in units of beta, within which lower
# eigenvalues tie for the first witness.
WITNESS_BAND = 16 * np.finfo(float).eps


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

    ``gram`` holds the (|Lambda|, N, N) Hermitian stack whose eigenvalues
    the report bounds: ``A* A``, for ``left_inverse_family``, or the coset
    Gram, whose quadratic form at xi is the squared norm of an element's
    fiber there.  It takes no part in the JSON form, equality or repr.
    """

    alpha: float
    beta: float
    delta: float | None
    verdict: str
    witnesses: tuple[int, ...]
    witness_points: tuple[tuple[int, int], ...]
    tol: float
    kind: str
    gram: np.ndarray | None = field(default=None, compare=False, repr=False)

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


def _witnesses(lows: np.ndarray, tol: float, lat: Lattice,
               band: float = 0.0) -> tuple[tuple[int, ...], tuple]:
    """The lowest index with ``lows <= min + band``, then the other
    indices with ``lows <= tol``."""
    first = np.argmax(lows <= lows.min() + band)
    rest = np.flatnonzero(lows <= tol)
    order = np.concatenate(([first], rest[rest != first]))
    rows, cols = np.divmod(order, lat.n_rows)  # the rows of lat.dual_points
    return tuple(order.tolist()), tuple(zip(rows.tolist(), cols.tolist()))


def _report(w: np.ndarray, lat: Lattice, tol_factor: float, kind: str, pass_verdict: str,
            delta: float | None = None, gram=None) -> FrameReport:
    """Report from per-xi ascending eigenvalues w, shape (size, K)."""
    lows = w[:, 0]
    alpha = float(lows.min())
    beta = float(w[:, -1].max())
    tol = tol_factor * beta
    passed = alpha > tol
    wit, pts = _witnesses(lows, -np.inf if passed else tol, lat, WITNESS_BAND * beta)
    return FrameReport(alpha, beta, delta, pass_verdict if passed else VERDICT_FAIL,
                       wit, pts, tol, kind, gram)


def _eigvalsh(G: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvalsh(G)`` of a Hermitian stack.  For 1 x 1 matrices
    that is the real part (LAPACK's bits, signed zeros included), with no
    LAPACK call per matrix."""
    return G.real[..., 0] if G.shape[-1] == 1 else np.linalg.eigvalsh(G)


def _singular(report: FrameReport) -> SingularTransfer:
    """The refusal of a transfer matrix at its report's first witness."""
    xi = report.witnesses[0]
    return SingularTransfer(
        f"transfer matrix is singular at dual index {xi} "
        f"(alpha={report.alpha:.3e}, beta={report.beta:.3e})",
        witness_xi=xi, witness_point=report.witness_points[0])


def frame_bounds(A, lat: Lattice, tol_factor: float = DEFAULT_TOL_FACTOR) -> FrameReport:
    """Extreme eigenvalues of A_hat(xi)* A_hat(xi) over the dual grid.

    ``A`` is the (|Lambda|, M, N) transfer matrix, M >= N.  alpha is the
    global smallest eigenvalue, beta the largest.  Verdict:
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

    The report keeps the Gram matrices G = A* A for ``left_inverse_family``.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 3 or A.shape[0] != lat.size or A.shape[1] < A.shape[2]:
        raise ValueError(f"expected a ({lat.size}, M, N) transfer matrix with M >= N, got {A.shape}")
    G = _matmul(_adjoint(A), A)
    w = _eigvalsh(G)
    square = A.shape[1] == A.shape[2]
    delta = float(np.sqrt(np.clip(w, 0.0, None).prod(axis=1).min())) if square else None
    return _report(w, lat, tol_factor, "transfer",
                   VERDICT_RIESZ if square else VERDICT_FRAME, delta, G)


def gram_matrix_bounds(V, lat: Lattice, tol_factor: float = DEFAULT_TOL_FACTOR) -> FrameReport:
    """Riesz-sequence test for lattice translates of N operators.

    ``V`` stacks the adjoint-coset fibers of the phase-weighted trace
    transforms of the generators, shape (N, size, n_adjoint).  Builds, per
    dual-grid representative z, the N x N Gram matrix
    ``G(z) = sum_mu v(z + mu) v(z + mu)^H`` over the adjoint lattice (the
    coset product of V with itself) and returns the extreme eigenvalues
    over the grid.  For a single generator the bounds are |Lambda| times
    the extremes of the periodized square (scaling documented in
    ``periodize_sq``).  The report keeps G as ``gram``.
    """
    if len(V) == 0:
        raise ValueError("need at least one generator")
    G = _coset_gram(V, V)
    return _report(_eigvalsh(G), lat, tol_factor, "gram", VERDICT_RIESZ, gram=G)


def left_inverse_family(A, report: FrameReport, C=None, X=None) -> np.ndarray:
    """Left inverses B_hat = A_dag + C (I - A A_dag), parametrized by C,
    applied to X: returns B_hat X.

    ``A`` is a (|Lambda|, M, N) transfer matrix and ``report`` is
    ``frame_bounds(A, lat)``; a system that fails it is refused with
    SingularTransfer, so no NaN/Inf is returned.  A_dag is the per-xi
    Moore-Penrose left inverse G^{-1} A*, G = A* A from the report, the
    member C = None.  C is (|Lambda|, N, M).  ``X`` is (|Lambda|, M, k) and
    the result (|Lambda|, N, k), evaluated right to left without forming
    B_hat: D solves G D = A* X, then D + C (X - A D).  X = None stands for
    the identity, so the result is B_hat itself, (|Lambda|, N, M).  Every
    member satisfies ``B_hat(xi) A_hat(xi) = I`` for all xi; for square
    systems the projector I - A A_dag vanishes and C is irrelevant.  A
    passing G with an exactly zero pivot (only a ``tol_factor`` far below
    eps passes a numerically singular G) is refused the same way.
    """
    if not report.passed:
        raise _singular(report)
    size, m, n = A.shape
    G = report.gram
    if report.kind != "transfer" or G is None or G.shape != (size, n, n) or m < n:
        raise ValueError("report must be frame_bounds(A) of this transfer matrix")
    AX = _adjoint(A) if X is None else _matmul(_adjoint(A), X)
    if n == 1:
        D = AX / G.real
    else:
        try:
            D = np.linalg.solve(G, AX)
        except np.linalg.LinAlgError:
            raise _singular(report) from None
    if C is None:
        return D
    if np.shape(C) != (size, n, m):
        raise ValueError(f"C must have shape {(size, n, m)}, got {np.shape(C)}")
    return D + _matmul(C, (np.eye(m) if X is None else X) - _matmul(A, D))
