import numpy as np
import pytest

from opsampler.core import (
    check_operator,
    hs_inner,
    hs_norm,
    translate_operator,
)
from opsampler.errors import SingularTransfer
from opsampler.frames import TransferMatrix, frame_bounds, pseudo_inverse, transfer_matrix
from opsampler.lattice import Lattice, periodize_sq, symplectic_series
from opsampler.sampling import (
    AveragerSet,
    GeneratorSet,
    average_samples,
    build_reconstructor_multi,
    build_reconstructor_single,
    interpolation_check,
    reconstruct,
    relative_error,
    sample_filter_matrix,
    seq_operator_convolve,
    synthesize_element,
    whiten_generator,
)
from opsampler.weyl import fourier_wigner, symplectic_ft, weyl_transform

rng = np.random.default_rng(77)
LAT = Lattice(15, 3, 5)


def rand_op(L=15):
    return rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))


def rand_coeffs(n, lat=LAT):
    return rng.standard_normal((n, lat.size)) + 1j * rng.standard_normal((n, lat.size))


def gen_set(n, lat=LAT):
    return GeneratorSet.build([rand_op(lat.L) for _ in range(n)], lat)


def avg_set(m, lat=LAT):
    return AveragerSet.build([rand_op(lat.L) for _ in range(m)], lat)


def operator_route_synthesis(c, gens):
    out = np.zeros((gens.lattice.L, gens.lattice.L), complex)
    for n in range(gens.n):
        for i, lam in enumerate(gens.lattice.points):
            out += c[n, i] * translate_operator(tuple(lam), gens.ops[n])
    return out


def operator_convolve(S, T):
    """Operator convolution as a phase-space function, by direct summation.

    out(z) = tr(S * alpha_z(T_check)) with T_check the parity conjugation
    of T.  Restricted to lattice points this reproduces average samples:
    <T, alpha_lambda(Q)> = (T conv Q_tilde)(lambda) where Q_tilde is the
    parity conjugation of the adjoint of Q.
    """
    L = S.shape[0]
    Tc = check_operator(T)
    out = np.empty((L, L), dtype=complex)
    St = S.T.copy()
    for x in range(L):
        for w in range(L):
            out[x, w] = np.sum(St * translate_operator((x, w), Tc))
    return out


def failing_generator(lat=LAT):
    """Spectrum zeroed on one adjoint coset: translates are not Riesz."""
    spectrum = fourier_wigner(rand_op(lat.L))
    z0 = lat.dual_points[rng.integers(0, lat.size)]
    for mu in lat.adjoint.points:
        spectrum[(z0[0] + mu[0]) % lat.L, (z0[1] + mu[1]) % lat.L] = 0.0
    return weyl_transform(symplectic_ft(spectrum))


# ---------------------------------------------------------------- synthesis

def test_synthesize_delta_coefficients():
    gens = gen_set(2)
    c = np.zeros((2, LAT.size), complex)
    c[0, 0] = 1
    assert np.allclose(synthesize_element(c, gens), gens.ops[0], atol=1e-12)


def test_synthesize_linearity():
    gens = gen_set(2)
    c1, c2 = rand_coeffs(2), rand_coeffs(2)
    lhs = synthesize_element(2.0 * c1 - 1j * c2, gens)
    rhs = 2.0 * synthesize_element(c1, gens) - 1j * synthesize_element(c2, gens)
    assert np.allclose(lhs, rhs, atol=1e-11)


def test_synthesize_two_routes_agree():
    gens = gen_set(2)
    c = rand_coeffs(2)
    symbol_route = synthesize_element(c, gens)
    operator_route = operator_route_synthesis(c, gens)
    assert np.linalg.norm(symbol_route - operator_route) <= 1e-10 * np.linalg.norm(operator_route)


# ----------------------------------------------------------------- sampling

def test_average_samples_at_origin():
    Q1 = rand_op()
    avgs = AveragerSet.build([Q1], LAT)
    s = average_samples(Q1, avgs)
    assert s[0, 0] == pytest.approx(hs_norm(Q1) ** 2, rel=1e-12)


def test_average_samples_linearity():
    avgs = avg_set(2)
    T1, T2 = rand_op(), rand_op()
    lhs = average_samples(0.5j * T1 + 2.0 * T2, avgs)
    rhs = 0.5j * average_samples(T1, avgs) + 2.0 * average_samples(T2, avgs)
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_average_samples_operator_route_oracle():
    avgs = avg_set(3)
    T = rand_op()
    s = average_samples(T, avgs)
    for m in range(3):
        for i, lam in enumerate(LAT.points):
            direct = hs_inner(T, translate_operator(tuple(lam), avgs.ops[m]))
            assert abs(s[m, i] - direct) <= 1e-10 * (1 + abs(direct))


# ------------------------------------------------------------- filter matrix

def test_filter_matrix_autocorrelation_origin():
    S = rand_op()
    gens = GeneratorSet.build([S], LAT)
    avgs = AveragerSet.build([S], LAT)
    A = sample_filter_matrix(gens, avgs)
    assert A.seqs[0, 0, 0] == pytest.approx(hs_norm(S) ** 2, rel=1e-12)


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 2), (2, 3)])
def test_sampling_is_convolution(n, m):
    gens, avgs = gen_set(n), avg_set(m)
    A = sample_filter_matrix(gens, avgs)
    c = rand_coeffs(n)
    T = synthesize_element(c, gens)
    s = average_samples(T, avgs)
    conv = A.convolve(c)
    assert np.linalg.norm(s - conv) <= 1e-9 * np.linalg.norm(s)


def test_whitened_generator_gives_identity_system():
    S = whiten_generator(rand_op(), LAT)
    gens = GeneratorSet.build([S], LAT)
    avgs = AveragerSet.build([S], LAT)
    A = sample_filter_matrix(gens, avgs)
    delta = np.zeros(LAT.size, complex)
    delta[0] = 1
    assert np.abs(A.seqs[0, 0] - delta).max() <= 1e-10
    c = rand_coeffs(1)
    assert np.abs(A.convolve(c) - c).max() <= 1e-9 * np.abs(c).max()


def test_whitened_translates_orthonormal():
    S = whiten_generator(rand_op(), LAT)
    for i, lam in enumerate(LAT.points):
        val = hs_inner(S, translate_operator(tuple(lam), S))
        expect = 1.0 if i == 0 else 0.0
        assert abs(val - expect) <= 1e-10


# ------------------------------------------------------ single reconstruction

def test_single_reconstructor_delta_filter():
    S = rand_op()
    gens = GeneratorSet.build([S], LAT)
    q = np.zeros(LAT.size, complex)
    q[0] = 1
    rec = build_reconstructor_single(gens, q)
    assert np.allclose(rec.ops[0], S, atol=1e-11)


def test_single_roundtrip_q_equals_s():
    S = rand_op()
    gens = GeneratorSet.build([S], LAT)
    avgs = AveragerSet.build([S], LAT)
    A = sample_filter_matrix(gens, avgs)
    rec = build_reconstructor_single(gens, A.seqs[0, 0])
    c = rand_coeffs(1)
    T = synthesize_element(c, gens)
    assert relative_error(reconstruct(average_samples(T, avgs), rec), T) <= 1e-9


def test_single_roundtrip_random_averager():
    gens = gen_set(1)
    avgs = avg_set(1)
    A = sample_filter_matrix(gens, avgs)
    rec = build_reconstructor_single(gens, A.seqs[0, 0])
    c = rand_coeffs(1)
    T = synthesize_element(c, gens)
    assert relative_error(reconstruct(average_samples(T, avgs), rec), T) <= 1e-9


def test_single_reconstructor_refuses_zero_spectrum():
    gens = gen_set(1)
    q = np.zeros(LAT.size, complex)
    q[0] = 1
    q[LAT.index_of((3, 0))] -= 1.0  # series vanishes at xi = 0
    with pytest.raises(SingularTransfer) as err:
        build_reconstructor_single(gens, q)
    assert err.value.witness_xi is not None


# ------------------------------------------------------- multi reconstruction

def test_multi_reduces_to_single():
    S = rand_op()
    gens = GeneratorSet.build([S], LAT)
    avgs = AveragerSet.build([rand_op()], LAT)
    A = sample_filter_matrix(gens, avgs)
    rec_multi = build_reconstructor_multi(gens, A)
    rec_single = build_reconstructor_single(gens, A.seqs[0, 0])
    assert np.allclose(rec_multi.ops[0], rec_single.ops[0], atol=1e-9)


def test_multi_roundtrip_oversampled():
    gens, avgs = gen_set(2), avg_set(3)
    A = sample_filter_matrix(gens, avgs)
    c = rand_coeffs(2)
    T = synthesize_element(c, gens)
    s = average_samples(T, avgs)
    rec0 = build_reconstructor_multi(gens, A)
    assert relative_error(reconstruct(s, rec0), T) <= 1e-9
    C = TransferMatrix(LAT, rng.standard_normal((LAT.size, 2, 3))
                       + 1j * rng.standard_normal((LAT.size, 2, 3)))
    recC = build_reconstructor_multi(gens, A, C=C)
    assert relative_error(reconstruct(s, recC), T) <= 1e-9
    # different left inverses, same reconstruction on the subspace
    assert not np.allclose(rec0.ops, recC.ops)


def test_multi_square_ignores_c():
    gens, avgs = gen_set(2), avg_set(2)
    A = sample_filter_matrix(gens, avgs)
    C = TransferMatrix(LAT, rng.standard_normal((LAT.size, 2, 2))
                       + 1j * rng.standard_normal((LAT.size, 2, 2)))
    rec0 = build_reconstructor_multi(gens, A)
    recC = build_reconstructor_multi(gens, A, C=C)
    assert np.abs(rec0.ops - recC.ops).max() <= 1e-8


def test_multi_refuses_more_generators_than_averagers():
    # building the undersampled filter matrix is fine; the reconstructor
    # is where M >= N is enforced
    gens, avgs = gen_set(2), avg_set(1)
    A = sample_filter_matrix(gens, avgs)
    with pytest.raises(ValueError):
        build_reconstructor_multi(gens, A)


def test_rank_deficient_square_system_is_refused():
    # L=3, a=b=1: every fiber has one point, so each 2x2 transfer matrix is
    # rank one and its determinants are roundoff.  The determinant gate alone
    # let most such draws through, to a LinAlgError in the solve or to a
    # meaningless reconstructor; the eigenvalue gate refuses every one.
    lat = Lattice(3, 1, 1)
    local = np.random.default_rng(2024)
    for _ in range(20):
        ops = local.standard_normal((4, 3, 3)) + 1j * local.standard_normal((4, 3, 3))
        gens, avgs = GeneratorSet.build(ops[:2], lat), AveragerSet.build(ops[2:], lat)
        A = sample_filter_matrix(gens, avgs)
        T = transfer_matrix(A)
        rep = frame_bounds(T)
        assert rep.verdict == "fail" and rep.alpha <= rep.tol and rep.delta is not None
        with pytest.raises(SingularTransfer):
            pseudo_inverse(T)
        with pytest.raises(SingularTransfer):
            build_reconstructor_multi(gens, A)


# --------------------------------------------------------------- reconstruct

def test_reconstruct_zero_samples():
    gens, avgs = gen_set(1), avg_set(1)
    A = sample_filter_matrix(gens, avgs)
    rec = build_reconstructor_multi(gens, A)
    out = reconstruct(np.zeros((1, LAT.size)), rec)
    assert np.abs(out).max() <= 1e-14


def test_reconstruct_projection_idempotent():
    # arbitrary operator: sample->reconstruct lands in the subspace and is
    # reproduced exactly by a second pass
    gens, avgs = gen_set(2), avg_set(3)
    A = sample_filter_matrix(gens, avgs)
    rec = build_reconstructor_multi(gens, A)
    T = rand_op()
    T1 = reconstruct(average_samples(T, avgs), rec)
    T2 = reconstruct(average_samples(T1, avgs), rec)
    assert relative_error(T2, T1) <= 1e-9


def test_reconstruct_order_invariance():
    # explicit operator-route synthesis in two different summation orders
    gens, avgs = gen_set(1), avg_set(1)
    A = sample_filter_matrix(gens, avgs)
    rec = build_reconstructor_multi(gens, A)
    T = synthesize_element(rand_coeffs(1), gens)
    s = average_samples(T, avgs)
    terms = [s[0, i] * translate_operator(tuple(lam), rec.ops[0])
             for i, lam in enumerate(LAT.points)]
    forward = sum(terms[i] for i in range(len(terms)))
    perm = rng.permutation(len(terms))
    shuffled = sum(terms[i] for i in perm)
    assert np.linalg.norm(forward - shuffled) <= 1e-10 * np.linalg.norm(forward)
    assert np.linalg.norm(forward - reconstruct(s, rec)) <= 1e-9 * np.linalg.norm(forward)


# ------------------------------------------------------ operator convolutions

def test_operator_convolve_at_origin():
    S, T = rand_op(), rand_op()
    out = operator_convolve(S, T)
    assert out[0, 0] == pytest.approx(np.trace(S @ check_operator(T)), rel=1e-11)


def test_sample_identity_via_operator_convolution():
    # <T, alpha_lam(Q)> == (T conv Qtilde)(lam), Qtilde = parity conj of Q*
    T, Q = rand_op(), rand_op()
    Qtilde = check_operator(Q.conj().T)
    conv = operator_convolve(T, Qtilde)
    for lam in LAT.points:
        lhs = hs_inner(T, translate_operator(tuple(lam), Q))
        assert abs(lhs - conv[lam[0], lam[1]]) <= 1e-10 * (1 + abs(lhs))


def test_spectrum_identity_via_operator_convolution():
    # series of (S conv Scheck*) on the lattice equals |Lambda|^2 times the
    # periodized squared trace transform
    S = rand_op()
    conv = operator_convolve(S, check_operator(S.conj().T))
    seq = np.array([conv[lam[0], lam[1]] for lam in LAT.points])
    F = symplectic_series(seq, LAT)
    P = periodize_sq(fourier_wigner(S), LAT)
    assert np.abs(F - LAT.size**2 * P).max() <= 1e-9 * np.abs(F).max()


def test_seq_operator_convolve():
    S = rand_op()
    delta = np.zeros(LAT.size, complex)
    delta[0] = 1
    assert np.allclose(seq_operator_convolve(delta, S, LAT), S)
    c = rand_coeffs(1)
    gens = GeneratorSet.build([S], LAT)
    assert np.allclose(seq_operator_convolve(c[0], S, LAT),
                       synthesize_element(c, gens), atol=1e-10)


def test_full_convolution_form_of_sampling_formula():
    # T == (T conv Qtilde restricted to the lattice) conv H
    S = rand_op()
    gens = GeneratorSet.build([S], LAT)
    Q = rand_op()
    avgs = AveragerSet.build([Q], LAT)
    A = sample_filter_matrix(gens, avgs)
    rec = build_reconstructor_single(gens, A.seqs[0, 0])
    T = synthesize_element(rand_coeffs(1), gens)
    Qtilde = check_operator(Q.conj().T)
    conv = operator_convolve(T, Qtilde)
    s = np.array([conv[lam[0], lam[1]] for lam in LAT.points])
    T_rec = seq_operator_convolve(s, rec.ops[0], LAT)
    assert relative_error(T_rec, T) <= 1e-9


# --------------------------------------------------------------- interpolation

def test_interpolation_whitened_single():
    S = whiten_generator(rand_op(), LAT)
    gens = GeneratorSet.build([S], LAT)
    avgs = AveragerSet.build([S], LAT)
    A = sample_filter_matrix(gens, avgs)
    rec = build_reconstructor_single(gens, A.seqs[0, 0])
    ok, dev = interpolation_check(rec, avgs)
    assert ok and dev <= 1e-9


def test_interpolation_square_system():
    gens, avgs = gen_set(2), avg_set(2)
    A = sample_filter_matrix(gens, avgs)
    rec = build_reconstructor_multi(gens, A)
    ok, dev = interpolation_check(rec, avgs)
    assert ok and dev <= 1e-9


def test_interpolation_rejects_oversampled():
    gens, avgs = gen_set(2), avg_set(3)
    A = sample_filter_matrix(gens, avgs)
    rec = build_reconstructor_multi(gens, A)
    with pytest.raises(ValueError):
        interpolation_check(rec, avgs)


# ------------------------------------------------------------ refusal safety

def test_refusal_no_nan_reaches_caller():
    for _ in range(5):
        bad = failing_generator()
        gens = GeneratorSet.build([bad], LAT)
        avgs = AveragerSet.build([bad], LAT)
        A = sample_filter_matrix(gens, avgs)
        assert np.isfinite(A.seqs).all()
        with pytest.raises(SingularTransfer) as err:
            build_reconstructor_single(gens, A.seqs[0, 0])
        assert err.value.witness_xi is not None
        with pytest.raises(SingularTransfer):
            build_reconstructor_multi(gens, A)
        with pytest.raises(SingularTransfer):
            whiten_generator(bad, LAT)


def test_reconstructor_riesz_and_filter_condition_consistent():
    # admissible instances: the reconstructor translates pass the Riesz
    # check exactly when the filter passes the scalar condition
    from opsampler.frames import gram_matrix_bounds, single_gen_condition

    for _ in range(5):
        gens, avgs = gen_set(1), avg_set(1)
        A = sample_filter_matrix(gens, avgs)
        rep = single_gen_condition(A.seqs[0, 0], LAT)
        assert rep.passed
        rec = build_reconstructor_single(gens, A.seqs[0, 0])
        assert gram_matrix_bounds([rec.ops[0]], LAT).passed


@pytest.mark.parametrize("L,a,b", [(9, 3, 3), (15, 3, 5), (33, 3, 11)])
def test_sampling_is_convolution_across_sizes(L, a, b):
    lat = Lattice(L, a, b)
    for n, m in ((1, 2), (2, 3)):
        gens = GeneratorSet.build([rand_op(L) for _ in range(n)], lat)
        avgs = AveragerSet.build([rand_op(L) for _ in range(m)], lat)
        A = sample_filter_matrix(gens, avgs)
        c = rand_coeffs(n, lat)
        s = average_samples(synthesize_element(c, gens), avgs)
        assert np.linalg.norm(s - A.convolve(c)) <= 1e-9 * np.linalg.norm(s)
