"""The average-sampling system and its Riesz and frame conditions.

The subspace under study is spanned by the lattice translates
``alpha_lambda(S_n)`` of N generator operators.  Sampling an element T
of it against M averaging operators produces the sequences

    s_m(lambda) = <T, alpha_lambda(Q_m)>_HS,

which equal the convolution system ``A * c`` applied to T's coefficient
sequences, with filter entries ``A[m, n](lambda) = <S_n,
alpha_lambda(Q_m)>_HS``.  Its transfer matrix is a plain (|Lambda|, M, N)
array: per dual-grid index xi, the M x N matrix of the filters'
symplectic series values.  It is read off the fibers directly
(``system_transfer``), so the filter sequences are never formed.

Whenever that system is a frame, left-inverting its transfer matrix
(``left_inverse_family``) yields reconstruction operators ``H_m`` in the
generator span such that

    T = sum_m sum_lambda s_m(lambda) * alpha_lambda(H_m)

recovers every T in the subspace exactly.  For M == N the H_m are unique
(the left inverse is the inverse) and their own samples interpolate the
delta pattern (``interpolation_check``); for M > N the family of left
inverses, hence of valid reconstructor sets, is parametrized by a free
transfer matrix C.  The one-generator theorem is the system N = M = 1:
for a filter q without zeros on the dual grid, the reconstructor's
fibers are those of S / series(q).  With H_m = sum_n b_nm * S_n the same
sum regroups over the generators,

    T = sum_n sum_lambda (sum_m b_nm * s_m)(lambda) * alpha_lambda(S_n),

so a reconstruction is the synthesis of the recovered coefficients, whose
series is d_hat(xi) = B_hat(xi) s_hat(xi).

Every stage runs on the dual grid, on the (|Lambda|, a*b) adjoint-coset
fibers of the operators' trace transforms (see ``lattice`` and
``weyl``): generator fibers P (N, |Lambda|, a*b) and averager fibers Q
(M, |Lambda|, a*b).  Every function that reads the dual grid takes the
lattice ``lat`` alongside the arrays.  Every fiber argument is fibers,
never an operator kernel, even at a*b = L where the two have the same
shape: no stage reads an operator, so none is ever formed.  Two
identities do the rest, both exact since the trace transform is unitary:

* translation: the trace transform of sum_lambda c(lambda) alpha_lambda(S)
  is series(c)(xi) * P_S[xi, mu], so an element's fiber at xi is
  sum_n c_hat_n(xi) P_n[xi], and its squared norm is the quadratic form
  of the generators' coset Gram G(xi) in c_hat(xi), the Gram matrix of
  the Riesz test (``gram_matrix_bounds``);
* pairing: <S, alpha_lambda(Q)>_HS is the inverse series of the transfer
  matrix |Lambda| * sum_mu P_S[xi, mu] * conj(P_Q[xi, mu]), ``lattice``'s
  coset product of the averagers and the generators, conjugated and
  scaled.  The coset Gram of the reconstructors and the averagers is A B,
  the transfer matrix times the left inverse, so the interpolation check
  reads no fibers.

The extreme eigenvalues of the Hermitian matrices ``A_hat(xi)* A_hat(xi)``
over the dual grid decide whether the associated system of translates is
a frame (lower bound strictly positive), which for M == N makes it a
Riesz basis.  Every shape is gated the same way, on the lower bound alone.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularTransfer
from .lattice import Lattice, _adjoint, _coset_gram, _matmul, inverse_symplectic_series

__all__ = [
    "DEFAULT_TOL_FACTOR",
    "FrameReport",
    "system_transfer",
    "frame_bounds",
    "gram_matrix_bounds",
    "left_inverse_family",
    "interpolation_check",
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


def _fiber_stack(P, lat: Lattice) -> np.ndarray:
    """Fibers as a complex (K, |Lambda|, a*b) stack; a complex array is used
    as it is.  P is always fibers: an operator kernel has the same shape at
    a*b = L and would be read as fibers, so none may be passed."""
    P = np.asarray(P, dtype=complex)
    if P.ndim != 3 or P.shape[-2:] != (lat.size, lat.a * lat.b):
        raise ValueError(f"expected a (K, {lat.size}, {lat.a * lat.b}) stack of fibers, "
                         f"got {P.shape}")
    return P


def system_transfer(P, Q, lat: Lattice) -> np.ndarray:
    """(|Lambda|, M, N) transfer matrix of the filter system of the generator
    fibers P and the averager fibers Q: their coset Gram, no series.

    out[xi, m, n] = |Lambda| * sum_mu P[n, xi, mu] * conj(Q[m, xi, mu]), the
    conjugate of the coset Gram of Q and P: it copies P, which never has
    more channels than Q, and conjugates the small product in place.
    """
    gram = _coset_gram(_fiber_stack(Q, lat), _fiber_stack(P, lat))
    np.conjugate(gram, out=gram)
    return np.multiply(gram, lat.size, out=gram)


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
    ``periodize_sq``).  The report keeps G as ``gram``.  Any other shape
    of ``V`` is refused with a ``ValueError`` naming the expected one.
    """
    V = _fiber_stack(V, lat)
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


def interpolation_check(A, B, lat: Lattice, tol: float):
    """Check the square-system interpolation pattern of the reconstructors.

    For M == N the samples of each reconstructor H_n against the averagers
    must be the delta pattern delta_{n,n'} delta_{lambda,0}.  The coset Gram
    of the fibers H and Q is the product of the transfer matrix A and the
    left inverse B, so the samples are the inverse series of A B and no
    fibers are read.  Returns (passed, max_deviation), passing when no
    entry deviates by more than ``tol``.

    The runner passes the Moore-Penrose member, B = ``left_inverse_family(A,
    report)``.  For a square system the projector I - A A_dag vanishes, so
    every member C equals it up to roundoff and the check covers the
    reconstructors the roundtrip used, whatever its C.
    """
    m, n = A.shape[1:]
    if not m == n or B.shape != (lat.size, n, m):
        raise ValueError(f"interpolation pattern needs a square system, got a {m} x {n} "
                         f"transfer matrix and left inverses of shape {B.shape}")
    s = inverse_symplectic_series(np.moveaxis(_matmul(A, B), 0, -1), lat)  # s[:, n]: samples of H_n
    s[:, :, 0] -= np.eye(n)  # the deviation from the delta pattern
    dev = float(np.abs(s).max())
    return dev <= tol, dev
