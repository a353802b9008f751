import numpy as np
import pytest

from opsampler.errors import SingularTransfer
from opsampler.frames import (
    ConvolutionMatrix,
    _witnesses,
    TransferMatrix,
    dual_sequences,
    frame_bounds,
    gram_matrix_bounds,
    left_inverse_family,
    pseudo_inverse,
    single_gen_condition,
    transfer_matrix,
)
from opsampler.lattice import (
    Lattice,
    involution,
    periodize_sq,
    symplectic_series,
    translate_seq,
)
from opsampler.weyl import fourier_wigner, symplectic_ft, weyl_transform

rng = np.random.default_rng(333)


def rand_seq(lat):
    return rng.standard_normal(lat.size) + 1j * rng.standard_normal(lat.size)


def rand_system(lat, M, N):
    return ConvolutionMatrix(lat, np.stack(
        [np.stack([rand_seq(lat) for _ in range(N)]) for _ in range(M)]))


def rand_op(L):
    return rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))


def herm2_eigs(G):
    """Closed-form eigenvalues of a 2x2 Hermitian matrix (oracle)."""
    tr = G[0, 0].real + G[1, 1].real
    det = (G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]).real
    disc = np.sqrt(max(tr * tr - 4 * det, 0.0))
    return (tr - disc) / 2, (tr + disc) / 2


def delta_seq(lat):
    d = np.zeros(lat.size, complex)
    d[0] = 1
    return d


# ------------------------------------------------------------------ witnesses

@pytest.mark.parametrize("L,a,b", [(15, 3, 5), (15, 5, 3), (45, 3, 9), (21, 1, 7), (9, 9, 1)])
def test_witness_points_are_dual_points(L, a, b):
    lat = Lattice(L, a, b)
    lows = rng.permutation(lat.size).astype(float)
    order, points = _witnesses(lows, np.inf, lat)
    assert sorted(order) == list(range(lat.size)) and order[0] == int(np.argmin(lows))
    assert points == tuple((int(lat.dual_points[i, 0]), int(lat.dual_points[i, 1])) for i in order)
    assert all(type(v) is int for p in points for v in p)


# ------------------------------------------------------------ transfer matrix

def test_transfer_of_delta_system_is_one():
    lat = Lattice(15, 3, 5)
    A = ConvolutionMatrix(lat, delta_seq(lat)[None, None, :])
    T = transfer_matrix(A)
    assert np.allclose(T.values, 1.0)


def test_transfer_linearity():
    lat = Lattice(15, 3, 5)
    A1, A2 = rand_system(lat, 2, 2), rand_system(lat, 2, 2)
    combo = ConvolutionMatrix(lat, 2.0 * A1.seqs - 1j * A2.seqs)
    assert np.allclose(transfer_matrix(combo).values,
                       2.0 * transfer_matrix(A1).values - 1j * transfer_matrix(A2).values,
                       atol=1e-11)


def test_transfer_diagonalizes_convolution_action():
    lat = Lattice(15, 3, 5)
    A = rand_system(lat, 2, 1)
    c = rand_seq(lat)[None, :]
    out = A.convolve(c)
    That = transfer_matrix(A)
    chat = symplectic_series(c[0], lat)
    for m in range(2):
        lhs = symplectic_series(out[m], lat)
        rhs = That.values[:, m, 0] * chat
        assert np.allclose(lhs, rhs, atol=1e-9)


# -------------------------------------------------------------- frame bounds

def test_frame_bounds_identity_system():
    lat = Lattice(15, 3, 5)
    A = ConvolutionMatrix(lat, delta_seq(lat)[None, None, :])
    rep = frame_bounds(transfer_matrix(A))
    assert rep.verdict == "riesz_basis"
    assert rep.alpha == pytest.approx(1.0) and rep.beta == pytest.approx(1.0)
    assert rep.delta == pytest.approx(1.0)


def test_frame_bounds_zero_column_fails_with_witness():
    lat = Lattice(15, 3, 5)
    vals = np.stack([np.eye(3, 2, dtype=complex) for _ in range(lat.size)])
    vals[7] = 0.0
    rep = frame_bounds(TransferMatrix(lat, vals))
    assert rep.verdict == "fail"
    assert rep.alpha == pytest.approx(0.0)
    assert 7 in rep.witnesses
    assert rep.witness_points[rep.witnesses.index(7)] == tuple(lat.dual_points[7])


def test_frame_bounds_match_closed_form_oracle():
    lat = Lattice(15, 3, 5)
    A = rand_system(lat, 3, 2)
    That = transfer_matrix(A)
    rep = frame_bounds(That)
    lows, highs = [], []
    for xi in range(lat.size):
        G = That.values[xi].conj().T @ That.values[xi]
        lo, hi = herm2_eigs(G)
        lows.append(lo)
        highs.append(hi)
    assert rep.alpha == pytest.approx(min(lows), rel=1e-9)
    assert rep.beta == pytest.approx(max(highs), rel=1e-9)
    assert rep.alpha <= rep.beta


def test_frame_bounds_requires_tall_system():
    lat = Lattice(9, 3, 3)
    with pytest.raises(ValueError):
        frame_bounds(transfer_matrix(rand_system(lat, 1, 2)))


def test_square_system_delta_and_alpha_verdicts_agree():
    lat = Lattice(15, 3, 5)
    for _ in range(10):
        rep = frame_bounds(transfer_matrix(rand_system(lat, 2, 2)))
        assert rep.alpha <= rep.beta
        assert (rep.delta > rep.tol) == (rep.alpha > rep.tol) == rep.passed
    # touching spectrum kills both gates at once
    vals = np.stack([np.eye(2, dtype=complex)] * lat.size)
    vals[4, :, 1] = 0.0
    rep = frame_bounds(TransferMatrix(lat, vals))
    assert rep.verdict == "fail" and rep.alpha <= rep.tol and rep.delta <= rep.tol


# ------------------------------------------------------ single generator test

def test_single_gen_delta_passes():
    lat = Lattice(15, 3, 5)
    rep = single_gen_condition(delta_seq(lat), lat)
    assert rep.verdict == "riesz_basis"
    assert rep.alpha == pytest.approx(1.0) and rep.beta == pytest.approx(1.0)


def test_single_gen_difference_of_deltas_fails():
    # q = delta_0 - delta_lam has series 1 - chi(lam, .), zero at xi = 0
    lat = Lattice(15, 3, 5)
    q = delta_seq(lat)
    q[lat.index_of((3, 0))] -= 1.0
    rep = single_gen_condition(q, lat)
    assert rep.verdict == "fail"
    assert 0 in rep.witnesses


def test_single_gen_autocorrelation_cross_check():
    # min of |series(autocorrelation)| equals |Lambda|^2 times the minimum
    # of the periodized squared trace transform
    lat = Lattice(15, 3, 5)
    S = rand_op(15)
    from opsampler.weyl import weyl_symbol

    aS = weyl_symbol(S)
    q = np.array([np.vdot(np.roll(aS, tuple(p), (0, 1)), aS) for p in lat.points])
    rep = single_gen_condition(q, lat)
    P = periodize_sq(fourier_wigner(S), lat)
    assert rep.alpha == pytest.approx(lat.size**2 * P.min(), rel=1e-9)
    assert rep.beta == pytest.approx(lat.size**2 * P.max(), rel=1e-9)
    assert rep.passed == (P.min() > 1e-10 * P.max())


# ------------------------------------------------------------- Gram matrices

def test_gram_single_generator_scaling():
    lat = Lattice(15, 3, 5)
    S = rand_op(15)
    rep = gram_matrix_bounds([S], lat)
    P = periodize_sq(fourier_wigner(S), lat)
    assert rep.alpha == pytest.approx(lat.size * P.min(), rel=1e-9)
    assert rep.beta == pytest.approx(lat.size * P.max(), rel=1e-9)


def test_gram_duplicated_generator_fails():
    lat = Lattice(15, 3, 5)
    S = rand_op(15)
    rep = gram_matrix_bounds([S, S], lat)
    assert rep.verdict == "fail"
    assert rep.alpha <= rep.tol


def test_gram_two_random_generators_match_oracle():
    lat = Lattice(15, 3, 5)
    S1, S2 = rand_op(15), rand_op(15)
    rep = gram_matrix_bounds([S1, S2], lat)
    assert rep.verdict == "riesz_basis"
    V = np.stack([fourier_wigner(S1), fourier_wigner(S2)])
    lows, highs = [], []
    for z in lat.dual_points:
        G = np.zeros((2, 2), complex)
        for mu in lat.adjoint.points:
            v = V[:, (z[0] + mu[0]) % 15, (z[1] + mu[1]) % 15]
            G += np.outer(v, v.conj())
        lo, hi = herm2_eigs(G)
        lows.append(lo)
        highs.append(hi)
    assert rep.alpha == pytest.approx(min(lows), rel=1e-9)
    assert rep.beta == pytest.approx(max(highs), rel=1e-9)


# ------------------------------------------------------------- pseudo-inverse

def test_pseudo_inverse_identity_and_square():
    lat = Lattice(9, 3, 3)
    eye = np.stack([np.eye(2, dtype=complex)] * lat.size)
    dag = pseudo_inverse(TransferMatrix(lat, eye))
    assert np.allclose(dag.values, eye)
    A = rand_system(lat, 2, 2)
    That = transfer_matrix(A)
    dag = pseudo_inverse(That)
    inv = np.stack([np.linalg.inv(That.values[xi]) for xi in range(lat.size)])
    assert np.abs(dag.values - inv).max() <= 1e-10 * np.abs(inv).max()


def test_pseudo_inverse_rectangular_properties():
    lat = Lattice(15, 3, 5)
    That = transfer_matrix(rand_system(lat, 3, 2))
    dag = pseudo_inverse(That)
    for xi in range(lat.size):
        P = That.values[xi] @ dag.values[xi]
        assert np.abs(dag.values[xi] @ That.values[xi] - np.eye(2)).max() <= 1e-10
        assert np.abs(P @ P - P).max() <= 1e-9
        assert np.abs(P - P.conj().T).max() <= 1e-9


def test_pseudo_inverse_refuses_singular():
    lat = Lattice(9, 3, 3)
    vals = np.stack([np.eye(2, dtype=complex)] * lat.size)
    vals[3] = 0.0
    with pytest.raises(SingularTransfer) as err:
        pseudo_inverse(TransferMatrix(lat, vals))
    assert err.value.witness_xi == 3


# -------------------------------------------------------- left-inverse family

def test_left_inverse_family_zero_c_is_pseudo_inverse():
    lat = Lattice(9, 3, 3)
    That = transfer_matrix(rand_system(lat, 3, 2))
    B0 = left_inverse_family(That, None)
    assert np.allclose(B0.values, pseudo_inverse(That).values)


def test_left_inverse_family_square_ignores_c():
    lat = Lattice(9, 3, 3)
    That = transfer_matrix(rand_system(lat, 2, 2))
    C = TransferMatrix(lat, rng.standard_normal((lat.size, 2, 2))
                       + 1j * rng.standard_normal((lat.size, 2, 2)))
    B = left_inverse_family(That, C)
    assert np.abs(B.values - pseudo_inverse(That).values).max() <= 1e-9


def test_left_inverse_family_is_left_inverse():
    lat = Lattice(15, 3, 5)
    That = transfer_matrix(rand_system(lat, 3, 2))
    C = TransferMatrix(lat, rng.standard_normal((lat.size, 2, 3))
                       + 1j * rng.standard_normal((lat.size, 2, 3)))
    B = left_inverse_family(That, C)
    prod = np.einsum("xnm,xmk->xnk", B.values, That.values)
    assert np.abs(prod - np.eye(2)).max() <= 1e-10


# -------------------------------------------------------------- dual sequences

def test_dual_sequences_identity():
    lat = Lattice(15, 3, 5)
    B = dual_sequences(TransferMatrix(lat, np.ones((lat.size, 1, 1), complex)))
    assert np.allclose(B.seqs[0, 0], delta_seq(lat), atol=1e-13)


def test_dual_sequences_round_trip():
    lat = Lattice(15, 3, 5)
    vals = (rng.standard_normal((lat.size, 2, 3))
            + 1j * rng.standard_normal((lat.size, 2, 3)))
    Bhat = TransferMatrix(lat, vals)
    assert np.allclose(transfer_matrix(dual_sequences(Bhat)).values, vals, atol=1e-10)


def test_frame_expansion_recovers_coefficients():
    # c == sum_m sum_lam <c, T_lam a*_m> T_lam b_m, computed literally
    lat = Lattice(9, 3, 3)
    A = rand_system(lat, 3, 2)
    That = transfer_matrix(A)
    B = dual_sequences(left_inverse_family(That, None))
    c = np.stack([rand_seq(lat), rand_seq(lat)])
    recovered = np.zeros_like(c)
    for m in range(3):
        astar_m = np.stack([involution(A.seqs[m, n], lat) for n in range(2)])
        for i, lam in enumerate(lat.points):
            coeff = sum(np.vdot(translate_seq(lam, astar_m[n], lat), c[n]) for n in range(2))
            for n in range(2):
                recovered[n] += coeff * translate_seq(lam, B.seqs[n, m], lat)
    assert np.abs(recovered - c).max() <= 1e-9 * np.abs(c).max()


def test_empirical_frame_inequality():
    # alpha ||c||^2 <= ||A * c||^2 <= beta ||c||^2 (Parseval factor is 1
    # under this package's series normalization)
    lat = Lattice(15, 3, 5)
    A = rand_system(lat, 3, 2)
    rep = frame_bounds(transfer_matrix(A))
    for _ in range(50):
        c = np.stack([rand_seq(lat), rand_seq(lat)])
        energy = np.linalg.norm(A.convolve(c)) ** 2
        nc = np.linalg.norm(c) ** 2
        assert rep.alpha * nc <= energy * (1 + 1e-12)
        assert energy <= rep.beta * nc * (1 + 1e-12)


def test_three_way_riesz_verdict_consistency():
    # single_gen_condition on the autocorrelation, gram_matrix_bounds and
    # positivity of the periodization agree for passing and failing cases
    lat = Lattice(15, 3, 5)
    from opsampler.weyl import weyl_symbol

    def verdicts(S):
        aS = weyl_symbol(S)
        q = np.array([np.vdot(np.roll(aS, tuple(p), (0, 1)), aS) for p in lat.points])
        v1 = single_gen_condition(q, lat).passed
        v2 = gram_matrix_bounds([S], lat).passed
        P = periodize_sq(fourier_wigner(S), lat)
        v3 = P.min() > 1e-10 * P.max()
        return v1, v2, v3

    for _ in range(10):
        res = verdicts(rand_op(15))
        assert res[0] == res[1] == res[2] == True  # noqa: E712

    # engineered failure: zero out one adjoint-lattice coset of the spectrum
    for _ in range(3):
        spectrum = fourier_wigner(rand_op(15))
        z0 = lat.dual_points[rng.integers(0, lat.size)]
        for mu in lat.adjoint.points:
            spectrum[(z0[0] + mu[0]) % 15, (z0[1] + mu[1]) % 15] = 0.0
        S = weyl_transform(symplectic_ft(spectrum))
        res = verdicts(S)
        assert res[0] == res[1] == res[2] == False  # noqa: E712
