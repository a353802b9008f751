"""Average sampling and reconstruction pipelines for operator subspaces.

The subspace under study is spanned by the lattice translates
``alpha_lambda(S_n)`` of N generator operators.  Its elements are
synthesized from coefficient sequences; sampling an element T against M
averaging operators produces the sequences

    s_m(lambda) = <T, alpha_lambda(Q_m)>_HS,

which equal the convolution system ``A * c`` with filter entries
``A[m, n](lambda) = <S_n, alpha_lambda(Q_m)>_HS``; only its transfer
matrix is formed (``system_transfer``).
Whenever that system is a frame, left-inverting its transfer matrix
yields reconstruction operators ``H_m`` in the generator span such that

    T = sum_m sum_lambda s_m(lambda) * alpha_lambda(H_m)

recovers every T in the subspace exactly.  For M == N the H_m are unique
(the left inverse is the inverse) and their own samples interpolate the
delta pattern; for M > N the family of left inverses, hence of valid
reconstructor sets, is parametrized by a free transfer matrix C.  The
one-generator theorem is the system N = M = 1: for a filter q without
zeros on the dual grid, the reconstructor's fibers are those of S / series(q).

With H_m = sum_n b_nm * S_n the same sum regroups over the generators,

    T = sum_n sum_lambda (sum_m b_nm * s_m)(lambda) * alpha_lambda(S_n),

so ``reconstruct`` recovers the coefficients' series
d_hat(xi) = B_hat(xi) s_hat(xi) and synthesizes T from the generators;
neither B_hat nor the H_m are formed.  The explicit H_m of the formula
above live with the test suite, as the reference the coefficient form is
checked against.

Every stage runs on the dual grid, on the (|Lambda|, a*b) adjoint-coset
fibers of the operators' trace transforms (see ``lattice`` and
``weyl``), which is the form the builders yield.  The pipeline passes
plain arrays: generator fibers P (N, |Lambda|, a*b), averager fibers Q
(M, |Lambda|, a*b), transfer matrices (|Lambda|, M, N), left inverses
(|Lambda|, N, M) and samples (M, |Lambda|); every function that needs
the lattice takes it as ``lat``.  Every array argument of every function
here is fibers, never an operator kernel, even at a*b = L where the two
have the same shape: no stage reads an operator, so none is ever formed.  Two identities do the rest, both exact since the
trace transform is unitary:

* translation: the trace transform of sum_lambda c(lambda) alpha_lambda(S)
  is series(c)(xi) * P_S[xi, mu], so synthesis and reconstruction are
  per-fiber products (one batched matrix product over the dual grid);
  reconstruction is synthesis from the generators with the recovered
  coefficients, and elements stay fibers from synthesis to the error;
* pairing: <S, alpha_lambda(Q)>_HS is the inverse series of the transfer
  matrix |Lambda| * sum_mu P_S[xi, mu] * conj(P_Q[xi, mu]), ``lattice``'s
  coset product of the averagers and the generators, conjugated and
  scaled.  The coset Gram of the reconstructors and the averagers is A B,
  the transfer matrix times the left inverse, so the interpolation check
  reads no fibers.

Since the fibers are a reshape of a unitary transform, the Frobenius
norm of an element's fibers is its HS norm, so the reconstruction error
is read off the fibers too.  Sums of translated operators compute the
same things directly; they live with the test suite as its oracle.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularTransfer
from .frames import DEFAULT_TOL_FACTOR, FrameReport, left_inverse_family
from .lattice import Lattice, _coset_gram, _matmul, inverse_symplectic_series, symplectic_series

__all__ = [
    "synthesize_element",
    "average_samples",
    "system_transfer",
    "reconstruct",
    "interpolation_check",
    "whiten_generator",
    "relative_error",
]


def _fiber_stack(P, lat: Lattice, ndim: int = 3) -> np.ndarray:
    """Fibers as a complex (K, |Lambda|, a*b) stack, or with ndim=2 as the
    (|Lambda|, a*b) fibers of one element; a complex array is used as it is.
    P is always fibers: an operator kernel has the same shape at a*b = L and
    would be read as fibers, so none may be passed."""
    P = np.asarray(P, dtype=complex)
    if P.ndim != ndim or P.shape[-2:] != (lat.size, lat.a * lat.b):
        raise ValueError(f"expected fibers of shape ({lat.size}, {lat.a * lat.b}), got {P.shape}")
    return P


def _as_coeffs(c, n: int, size: int) -> np.ndarray:
    c = np.asarray(c, dtype=complex)
    if c.ndim == 1:
        c = c[None, :]
    if c.shape != (n, size):
        raise ValueError(f"expected ({n}, {size}) coefficient array, got {c.shape}")
    return c


def _combine(W, P) -> np.ndarray:
    """out[k, xi, mu] = sum_n W[xi, k, n] * P[n, xi, mu]: one matrix product per fiber."""
    return _matmul(W, P.transpose(1, 0, 2)).transpose(1, 0, 2)


def _transfer(P, Q, lat: Lattice) -> np.ndarray:
    """out[xi, m, n] = |Lambda| * sum_mu P[n, xi, mu] * conj(Q[m, xi, mu]) from fibers P, Q."""
    # the conjugate of the coset Gram of Q and P: copies P, which never has
    # more channels than Q, and conjugates the small product in place
    gram = _coset_gram(Q, P)
    np.conjugate(gram, out=gram)
    return np.multiply(gram, lat.size, out=gram)


def synthesize_element(c, P, lat: Lattice) -> np.ndarray:
    """Fibers series(c) * P of sum_n sum_lambda c_n(lambda) alpha_lambda(S_n),
    shape (|Lambda|, a*b), from the (K, |Lambda|, a*b) fibers P of the S_n."""
    P = _fiber_stack(P, lat)
    c = _as_coeffs(c, P.shape[0], lat.size)
    return _combine(symplectic_series(c, lat).T[:, None, :], P)[0]


def average_samples(E, Q, lat: Lattice) -> np.ndarray:
    """Samples s[m, i] = <T, alpha_{lambda_i}(Q_m)>_HS of the element T with
    the (|Lambda|, a*b) fibers E, from the (M, |Lambda|, a*b) averager
    fibers Q; shape (M, size)."""
    E = _fiber_stack(E, lat, ndim=2)
    A = _transfer(E[None], _fiber_stack(Q, lat), lat)
    return inverse_symplectic_series(np.moveaxis(A, 0, -1), lat)[:, 0]


def system_transfer(P, Q, lat: Lattice) -> np.ndarray:
    """(|Lambda|, M, N) transfer matrix of the filter system of the generator
    fibers P and the averager fibers Q: their coset Gram, no series."""
    return _transfer(_fiber_stack(P, lat), _fiber_stack(Q, lat), lat)


def reconstruct(s, P, A, report: FrameReport, lat: Lattice, C=None) -> np.ndarray:
    """Fibers (|Lambda|, a*b) of sum_m sum_lambda s_m(lambda) alpha_lambda(H_m),
    from the (M, |Lambda|) samples s, the generator fibers P, the transfer
    matrix A (M >= N), its ``frame_bounds`` report and the free parameter C.

    The same sum regrouped over the generators is
    sum_n sum_lambda d_n(lambda) alpha_lambda(S_n) with the recovered
    coefficients d = b * s, whose series is d_hat(xi) = B_hat(xi) s_hat(xi):
    the left inverse is applied to the samples' series and the element is
    synthesized from P, so neither B_hat nor the H_m are formed.
    """
    P = _fiber_stack(P, lat)
    if A.shape[2] != len(P):
        raise ValueError(f"system has {A.shape[2]} input channels but there are {len(P)} generators")
    s_hat = symplectic_series(_as_coeffs(s, A.shape[1], lat.size), lat)
    d_hat = left_inverse_family(A, report, C, s_hat.T[:, :, None])
    return _combine(d_hat.transpose(0, 2, 1), P)[0]


def interpolation_check(A, B, lat: Lattice, tol: float = 1e-9):
    """Check the square-system interpolation pattern of the reconstructors.

    For M == N the samples of each reconstructor H_n against the averagers
    must be the delta pattern delta_{n,n'} delta_{lambda,0}.  The coset Gram
    of the fibers H and Q is the product of the transfer matrix A and the
    left inverse B, so the samples are the inverse series of A B and no
    fibers are read.  Returns (passed, max_deviation).

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


def whiten_generator(P: np.ndarray, lat: Lattice) -> np.ndarray:
    """Whiten the (|Lambda|, a*b) complex fibers P of a generator's trace
    transform in place, so that its lattice translates are exactly
    orthonormal, and return P: divide P by the square root of |Lambda|
    times its coset power, the adjoint-lattice periodization.  Refuses,
    leaving P as it was, when that power has a zero (the translates are
    not a Riesz sequence).  Whitened fibers have flat coset power, so
    whitening them again changes them only in roundoff.
    """
    power = (np.abs(P) ** 2).sum(axis=-1)
    if power.min() <= DEFAULT_TOL_FACTOR * power.max():
        xi = int(np.argmin(power))
        raise SingularTransfer(
            f"cannot whiten: periodized spectrum vanishes near dual index {xi}",
            witness_xi=xi, witness_point=tuple(int(v) for v in lat.dual_points[xi]))
    return np.divide(P, np.sqrt(lat.size * power)[:, None], out=P)


def relative_error(P_rec, P) -> float:
    """Relative HS-norm error of a reconstruction, as the Frobenius ratio of
    the two elements' fibers (a reshape of a unitary transform)."""
    P = np.asarray(P)
    return float(np.linalg.norm(np.asarray(P_rec) - P) / np.linalg.norm(P))
