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

so a reconstruction is the synthesis of the recovered coefficients, whose
series is d_hat(xi) = B_hat(xi) s_hat(xi).  Synthesis is linear, so the
samples' series is s_hat = A c_hat for an element with coefficients c,
and the roundtrip (``runner``) stays in coefficient space: it applies the
left inverse to A c_hat and forms no element, sample or reconstructor.

Every stage runs on the dual grid, on the (|Lambda|, a*b) adjoint-coset
fibers of the operators' trace transforms (see ``lattice`` and
``weyl``), which is the form the builders yield.  The functions here
take plain arrays: generator fibers P (N, |Lambda|, a*b), averager
fibers Q (M, |Lambda|, a*b), transfer matrices (|Lambda|, M, N) and
left inverses (|Lambda|, N, M); every function that needs the lattice
takes it as ``lat``.  Every fiber argument is fibers, never an operator
kernel, even at a*b = L where the two have the same shape: no stage
reads an operator, so none is ever formed.  Two identities do the rest,
both exact since the trace transform is unitary:

* translation: the trace transform of sum_lambda c(lambda) alpha_lambda(S)
  is series(c)(xi) * P_S[xi, mu], so an element's fiber at xi is
  sum_n c_hat_n(xi) P_n[xi], and its squared norm is the quadratic form
  of the generators' coset Gram G(xi) in c_hat(xi);
* pairing: <S, alpha_lambda(Q)>_HS is the inverse series of the transfer
  matrix |Lambda| * sum_mu P_S[xi, mu] * conj(P_Q[xi, mu]), ``lattice``'s
  coset product of the averagers and the generators, conjugated and
  scaled.  The coset Gram of the reconstructors and the averagers is A B,
  the transfer matrix times the left inverse, so the interpolation check
  reads no fibers.

Synthesis, sampling and reconstruction as fibers, and the same things by
sums of translated operators, live with the test suite as the reference
the coefficient route is checked against.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularTransfer
from .frames import DEFAULT_TOL_FACTOR
from .lattice import Lattice, _coset_gram, _matmul, inverse_symplectic_series

__all__ = ["system_transfer", "interpolation_check", "whiten_generator"]


def _fiber_stack(P, lat: Lattice) -> np.ndarray:
    """Fibers as a complex (K, |Lambda|, a*b) stack; a complex array is used
    as it is.  P is always fibers: an operator kernel has the same shape at
    a*b = L and would be read as fibers, so none may be passed."""
    P = np.asarray(P, dtype=complex)
    if P.ndim != 3 or P.shape[-2:] != (lat.size, lat.a * lat.b):
        raise ValueError(f"expected fibers of shape ({lat.size}, {lat.a * lat.b}), got {P.shape}")
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
