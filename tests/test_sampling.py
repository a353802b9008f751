import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from opsampler import runner
from opsampler.config import parse_config

from opsampler.errors import SingularTransfer
from opsampler.builders import whiten_generator
from opsampler.frames import (
    frame_bounds,
    gram_matrix_bounds,
    interpolation_check,
    left_inverse_family,
    system_transfer,
)
from opsampler.lattice import (
    Lattice,
    _matmul,
    inverse_symplectic_series,
    periodize_sq,
    symplectic_series,
)
from opsampler.weyl import symplectic_ft
from oracles import (
    ConvolutionMatrix,
    average_samples,
    build_reconstructor_multi,
    check_operator,
    fiber_roundtrip,
    fibers,
    fourier_wigner,
    hs_inner,
    hs_norm,
    index_of,
    inverse_fourier_wigner,
    operator_of,
    points,
    reconstruct,
    relative_error,
    roundtrip_draws,
    sample_filter_matrix,
    seq_operator_convolve,
    synthesize_element,
    trace_fibers,
    transfer_matrix,
    translate_operator,
    weyl_transform,
    whiten_operator,
)
from strategies import designs

rng = np.random.default_rng(77)
LAT = Lattice(15, 3, 5)


def rand_op(L=15):
    return rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))


def rand_coeffs(n, lat=LAT):
    return rng.standard_normal((n, lat.size)) + 1j * rng.standard_normal((n, lat.size))


def rand_fibers(k, lat=LAT):
    """Fibers (k, |Lambda|, a*b) of k random operators."""
    return trace_fibers([rand_op(lat.L) for _ in range(k)], lat)


def operator_route_synthesis(c, ops, lat=LAT):
    out = np.zeros((lat.L, lat.L), complex)
    for n, op in enumerate(ops):
        for i, lam in enumerate(points(lat)):
            out += c[n, i] * translate_operator(tuple(lam), op)
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
    for mu in points(lat.adjoint):
        spectrum[(z0[0] + mu[0]) % lat.L, (z0[1] + mu[1]) % lat.L] = 0.0
    return weyl_transform(symplectic_ft(spectrum))


# ---------------------------------------------------------------- synthesis

def test_synthesize_delta_coefficients():
    ops = [rand_op() for _ in range(2)]
    P = trace_fibers(ops, LAT)
    c = np.zeros((2, LAT.size), complex)
    c[0, 0] = 1
    assert np.allclose(synthesize_element(c, P, LAT), P[0], atol=1e-12)
    assert np.allclose(operator_of(synthesize_element(c, P, LAT), LAT), ops[0],
                       atol=1e-12)


def test_synthesize_linearity():
    P = rand_fibers(2)
    c1, c2 = rand_coeffs(2), rand_coeffs(2)
    lhs = synthesize_element(2.0 * c1 - 1j * c2, P, LAT)
    rhs = (2.0 * synthesize_element(c1, P, LAT)
           - 1j * synthesize_element(c2, P, LAT))
    assert np.allclose(lhs, rhs, atol=1e-11)


def test_synthesize_two_routes_agree():
    ops = [rand_op() for _ in range(2)]
    P = trace_fibers(ops, LAT)
    c = rand_coeffs(2)
    symbol_route = operator_of(synthesize_element(c, P, LAT), LAT)
    operator_route = operator_route_synthesis(c, ops)
    assert np.linalg.norm(symbol_route - operator_route) <= 1e-10 * np.linalg.norm(operator_route)


# ----------------------------------------------------------------- sampling

def test_average_samples_at_origin():
    Q1 = rand_op()
    Q = trace_fibers([Q1], LAT)
    s = average_samples(Q[0], Q, LAT)
    assert s[0, 0] == pytest.approx(hs_norm(Q1) ** 2, rel=1e-12)


def test_average_samples_linearity():
    Q = rand_fibers(2)
    T1, T2 = trace_fibers(rand_op(), LAT), trace_fibers(rand_op(), LAT)
    lhs = average_samples(0.5j * T1 + 2.0 * T2, Q, LAT)
    rhs = 0.5j * average_samples(T1, Q, LAT) + 2.0 * average_samples(T2, Q, LAT)
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_average_samples_operator_route_oracle():
    ops = [rand_op() for _ in range(3)]
    Q = trace_fibers(ops, LAT)
    T = rand_op()
    s = average_samples(trace_fibers(T, LAT), Q, LAT)
    for m in range(3):
        for i, lam in enumerate(points(LAT)):
            direct = hs_inner(T, translate_operator(tuple(lam), ops[m]))
            assert abs(s[m, i] - direct) <= 1e-10 * (1 + abs(direct))


# ------------------------------------------------------------- filter matrix

def test_filter_matrix_autocorrelation_origin():
    S = rand_op()
    P = trace_fibers([S], LAT)
    Q = trace_fibers([S], LAT)
    A = sample_filter_matrix(P, Q, LAT)
    assert A.seqs[0, 0, 0] == pytest.approx(hs_norm(S) ** 2, rel=1e-12)


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 2), (2, 3)])
def test_sampling_is_convolution(n, m):
    P, Q = rand_fibers(n), rand_fibers(m)
    A = sample_filter_matrix(P, Q, LAT)
    c = rand_coeffs(n)
    s = average_samples(synthesize_element(c, P, LAT), Q, LAT)
    conv = A.convolve(c)
    assert np.linalg.norm(s - conv) <= 1e-9 * np.linalg.norm(s)


def test_whitened_generator_gives_identity_system():
    P = whiten_generator(trace_fibers(rand_op(), LAT), LAT)[None]
    A = sample_filter_matrix(P, P, LAT)
    delta = np.zeros(LAT.size, complex)
    delta[0] = 1
    assert np.abs(A.seqs[0, 0] - delta).max() <= 1e-10
    c = rand_coeffs(1)
    assert np.abs(A.convolve(c) - c).max() <= 1e-9 * np.abs(c).max()


def test_whitened_translates_orthonormal():
    S = operator_of(whiten_generator(trace_fibers(rand_op(), LAT), LAT), LAT)
    for i, lam in enumerate(points(LAT)):
        val = hs_inner(S, translate_operator(tuple(lam), S))
        expect = 1.0 if i == 0 else 0.0
        assert abs(val - expect) <= 1e-10


@pytest.mark.parametrize("L,a,b", [(15, 3, 5), (45, 3, 3), (51, 1, 1), (105, 7, 5)])
def test_fiber_whitening_matches_the_operator_route(L, a, b):
    lat = Lattice(L, a, b)
    S = rand_op(L)
    P = whiten_generator(trace_fibers(S, lat), lat)
    oracle = trace_fibers(whiten_operator(S, lat), lat)
    assert np.linalg.norm(P - oracle) <= 1e-14 * np.linalg.norm(oracle)
    # whitening is idempotent up to roundoff: the coset power is already flat
    # (it divides in place, so it whitens a copy)
    assert np.linalg.norm(whiten_generator(P.copy(), lat) - P) <= 1e-14 * np.linalg.norm(P)


@pytest.mark.parametrize("shape", [(25, 9), (225, 5)])
def test_whitening_refuses_fibers_of_another_shape(shape):
    # (45, 3, 3) has (|Lambda|, a*b) = (225, 9) fibers: those of (15, 3, 3),
    # or with another coset size, are refused and left as they were
    P = np.ones(shape, dtype=complex)
    with pytest.raises(ValueError, match=r"\(225, 9\)"):
        whiten_generator(P, Lattice(45, 3, 3))
    assert np.all(P == 1)


# ------------------------------------------------------ single reconstruction

def test_single_reconstructor_delta_filter():
    S = rand_op()
    P = trace_fibers([S], LAT)
    q = np.zeros(LAT.size, complex)
    q[0] = 1
    T = transfer_matrix(ConvolutionMatrix(LAT, q[None, None]))
    H = build_reconstructor_multi(P, T, frame_bounds(T, LAT))
    assert np.allclose(operator_of(H[0], LAT), S, atol=1e-11)


def test_single_roundtrip_q_equals_s():
    S = rand_op()
    P = trace_fibers([S], LAT)
    Q = trace_fibers([S], LAT)
    That = transfer_matrix(sample_filter_matrix(P, Q, LAT))
    H = build_reconstructor_multi(P, That, frame_bounds(That, LAT))
    T = synthesize_element(rand_coeffs(1), P, LAT)
    assert relative_error(synthesize_element(average_samples(T, Q, LAT), H, LAT), T) <= 1e-9


def test_single_roundtrip_random_averager():
    P = rand_fibers(1)
    Q = rand_fibers(1)
    That = transfer_matrix(sample_filter_matrix(P, Q, LAT))
    H = build_reconstructor_multi(P, That, frame_bounds(That, LAT))
    T = synthesize_element(rand_coeffs(1), P, LAT)
    assert relative_error(synthesize_element(average_samples(T, Q, LAT), H, LAT), T) <= 1e-9


def test_single_reconstructor_refuses_zero_spectrum():
    P = rand_fibers(1)
    q = np.zeros(LAT.size, complex)
    q[0] = 1
    q[index_of(LAT, (3, 0))] -= 1.0  # series vanishes at xi = 0
    T = transfer_matrix(ConvolutionMatrix(LAT, q[None, None]))
    with pytest.raises(SingularTransfer) as err:
        build_reconstructor_multi(P, T, frame_bounds(T, LAT))
    assert err.value.witness_xi is not None


def test_single_filter_is_gated_on_squared_moduli():
    # |series q| ranges over [1e-7, 1]: its square falls below the 1e-10
    # gate, so the 1 x 1 system is refused at the dual index of the dip
    P = rand_fibers(1)
    F = np.ones(LAT.size, complex)
    F[3] = 1e-7
    T = transfer_matrix(ConvolutionMatrix(LAT, inverse_symplectic_series(F, LAT)[None, None]))
    rep = frame_bounds(T, LAT)
    assert rep.verdict == "fail" and rep.witnesses[0] == 3
    assert rep.alpha == pytest.approx(1e-14, rel=1e-6) and rep.beta == pytest.approx(1.0)
    with pytest.raises(SingularTransfer) as err:
        build_reconstructor_multi(P, T, rep)
    assert err.value.witness_xi == 3


# ------------------------------------------------------- multi reconstruction

def test_multi_reduces_to_single():
    S = rand_op()
    P = trace_fibers([S], LAT)
    Q = trace_fibers([rand_op()], LAT)
    A = sample_filter_matrix(P, Q, LAT)
    That = transfer_matrix(A)
    H = build_reconstructor_multi(P, That, frame_bounds(That, LAT))
    # the one-generator closed form: the fibers of S divided by series(q)
    closed = P / symplectic_series(A.seqs[0, 0], LAT)[:, None]
    assert np.allclose(H, closed, atol=1e-9)


def test_multi_roundtrip_oversampled():
    P, Q = rand_fibers(2), rand_fibers(3)
    A = sample_filter_matrix(P, Q, LAT)
    T = synthesize_element(rand_coeffs(2), P, LAT)
    s = average_samples(T, Q, LAT)
    That = transfer_matrix(A)
    rep = frame_bounds(That, LAT)
    H0 = build_reconstructor_multi(P, That, rep)
    assert relative_error(synthesize_element(s, H0, LAT), T) <= 1e-9
    C = rng.standard_normal((LAT.size, 2, 3)) + 1j * rng.standard_normal((LAT.size, 2, 3))
    HC = build_reconstructor_multi(P, That, rep, C)
    assert relative_error(synthesize_element(s, HC, LAT), T) <= 1e-9
    # different left inverses, same reconstruction on the subspace
    assert not np.allclose(operator_of(H0, LAT), operator_of(HC, LAT))


def test_multi_square_ignores_c():
    P, Q = rand_fibers(2), rand_fibers(2)
    A = sample_filter_matrix(P, Q, LAT)
    C = rng.standard_normal((LAT.size, 2, 2)) + 1j * rng.standard_normal((LAT.size, 2, 2))
    That = transfer_matrix(A)
    rep = frame_bounds(That, LAT)
    H0 = build_reconstructor_multi(P, That, rep)
    HC = build_reconstructor_multi(P, That, rep, C)
    assert np.abs(operator_of(H0, LAT) - operator_of(HC, LAT)).max() <= 1e-8


def test_multi_refuses_more_generators_than_averagers():
    # building the undersampled filter matrix is fine; its frame analysis
    # and the reconstructor are where M >= N is enforced
    P, Q = rand_fibers(2), rand_fibers(1)
    That = transfer_matrix(sample_filter_matrix(P, Q, LAT))
    with pytest.raises(ValueError):
        frame_bounds(That, LAT)
    # even handed the passing report of a 2 x 2 system, the build refuses
    square = frame_bounds(transfer_matrix(sample_filter_matrix(P, rand_fibers(2), LAT)), LAT)
    assert square.passed
    with pytest.raises(ValueError):
        build_reconstructor_multi(P, That, square)


def test_rank_deficient_square_system_is_refused():
    # L=3, a=b=1: every fiber has one point, so each 2x2 transfer matrix is
    # rank one and its determinants are roundoff.  The determinant gate alone
    # let most such draws through, to a LinAlgError in the solve or to a
    # meaningless reconstructor; the eigenvalue gate refuses every one.
    lat = Lattice(3, 1, 1)
    local = np.random.default_rng(2024)
    for _ in range(20):
        ops = local.standard_normal((4, 3, 3)) + 1j * local.standard_normal((4, 3, 3))
        P, Q = trace_fibers(ops[:2], lat), trace_fibers(ops[2:], lat)
        A = sample_filter_matrix(P, Q, lat)
        T = transfer_matrix(A)
        rep = frame_bounds(T, lat)
        assert rep.verdict == "fail" and rep.alpha <= rep.tol and rep.delta is not None
        with pytest.raises(SingularTransfer):
            left_inverse_family(T, rep)
        with pytest.raises(SingularTransfer):
            build_reconstructor_multi(P, T, rep)
        with pytest.raises(SingularTransfer):
            reconstruct(np.zeros((2, lat.size)), P, T, rep, lat)


# ------------------------------------- reconstruction: synthesis from the H_m

def test_reconstruct_zero_samples():
    P, Q = rand_fibers(1), rand_fibers(1)
    That = transfer_matrix(sample_filter_matrix(P, Q, LAT))
    H = build_reconstructor_multi(P, That, frame_bounds(That, LAT))
    out = synthesize_element(np.zeros((1, LAT.size)), H, LAT)
    assert out.shape == (LAT.size, LAT.a * LAT.b) and np.abs(out).max() <= 1e-14


def test_reconstruct_projection_idempotent():
    # arbitrary operator: sample->reconstruct lands in the subspace and is
    # reproduced exactly by a second pass
    P, Q = rand_fibers(2), rand_fibers(3)
    That = transfer_matrix(sample_filter_matrix(P, Q, LAT))
    H = build_reconstructor_multi(P, That, frame_bounds(That, LAT))
    T = trace_fibers(rand_op(), LAT)
    T1 = synthesize_element(average_samples(T, Q, LAT), H, LAT)
    T2 = synthesize_element(average_samples(T1, Q, LAT), H, LAT)
    assert relative_error(T2, T1) <= 1e-9


def test_reconstruct_order_invariance():
    # explicit operator-route synthesis in two different summation orders
    P, Q = rand_fibers(1), rand_fibers(1)
    That = transfer_matrix(sample_filter_matrix(P, Q, LAT))
    H = build_reconstructor_multi(P, That, frame_bounds(That, LAT))
    s = average_samples(synthesize_element(rand_coeffs(1), P, LAT), Q, LAT)
    H0 = operator_of(H[0], LAT)
    terms = [s[0, i] * translate_operator(tuple(lam), H0)
             for i, lam in enumerate(points(LAT))]
    forward = sum(terms[i] for i in range(len(terms)))
    perm = rng.permutation(len(terms))
    shuffled = sum(terms[i] for i in perm)
    assert np.linalg.norm(forward - shuffled) <= 1e-10 * np.linalg.norm(forward)
    T_rec = operator_of(synthesize_element(s, H, LAT), LAT)
    assert np.linalg.norm(forward - T_rec) <= 1e-9 * np.linalg.norm(forward)


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
    for lam in points(LAT):
        lhs = hs_inner(T, translate_operator(tuple(lam), Q))
        assert abs(lhs - conv[lam[0], lam[1]]) <= 1e-10 * (1 + abs(lhs))


def test_spectrum_identity_via_operator_convolution():
    # series of (S conv Scheck*) on the lattice equals |Lambda|^2 times the
    # periodized squared trace transform
    S = rand_op()
    conv = operator_convolve(S, check_operator(S.conj().T))
    seq = np.array([conv[lam[0], lam[1]] for lam in points(LAT)])
    F = symplectic_series(seq, LAT)
    P = periodize_sq(trace_fibers(S, LAT), LAT)
    assert np.abs(F - LAT.size**2 * P).max() <= 1e-9 * np.abs(F).max()


def test_seq_operator_convolve():
    S = rand_op()
    delta = np.zeros(LAT.size, complex)
    delta[0] = 1
    assert np.allclose(seq_operator_convolve(delta, S, LAT), S)
    c = rand_coeffs(1)
    P = trace_fibers([S], LAT)
    assert np.allclose(seq_operator_convolve(c[0], S, LAT),
                       operator_of(synthesize_element(c, P, LAT), LAT), atol=1e-10)


def test_full_convolution_form_of_sampling_formula():
    # T == (T conv Qtilde restricted to the lattice) conv H
    S = rand_op()
    P = trace_fibers([S], LAT)
    Q = rand_op()
    That = transfer_matrix(sample_filter_matrix(P, trace_fibers([Q], LAT), LAT))
    H = build_reconstructor_multi(P, That, frame_bounds(That, LAT))
    T = operator_of(synthesize_element(rand_coeffs(1), P, LAT), LAT)
    Qtilde = check_operator(Q.conj().T)
    conv = operator_convolve(T, Qtilde)
    s = np.array([conv[lam[0], lam[1]] for lam in points(LAT)])
    T_rec = seq_operator_convolve(s, operator_of(H[0], LAT), LAT)
    assert np.linalg.norm(T_rec - T) <= 1e-9 * hs_norm(T)


# --------------------------------------------------------------- interpolation

def test_interpolation_whitened_single():
    P = whiten_generator(trace_fibers(rand_op(), LAT), LAT)[None]
    That = transfer_matrix(sample_filter_matrix(P, P, LAT))
    B = left_inverse_family(That, frame_bounds(That, LAT))
    ok, dev = interpolation_check(That, B, LAT, tol=1e-9)
    assert ok and dev <= 1e-9


def test_interpolation_square_system():
    P, ops = rand_fibers(2), [rand_op() for _ in range(2)]
    Q = trace_fibers(ops, LAT)
    That = transfer_matrix(sample_filter_matrix(P, Q, LAT))
    rep = frame_bounds(That, LAT)
    H = build_reconstructor_multi(P, That, rep)
    ok, dev = interpolation_check(That, left_inverse_family(That, rep), LAT, tol=1e-9)
    assert ok and dev <= 1e-9
    # the check pairs the fibers; the operators they quantize, paired with the
    # translated averagers, sample the same way
    Hops = operator_of(H, LAT)
    s = np.array([[[hs_inner(Hops[n], translate_operator(tuple(lam), ops[m])) for lam in points(LAT)]
                   for n in range(2)] for m in range(2)])  # s[:, n]: samples of H_n
    expect = np.zeros_like(s)
    expect[:, :, 0] = np.eye(2)
    assert np.abs(s - expect).max() <= 1e-9


def test_interpolation_rejects_scaled_reconstructor():
    P, Q = rand_fibers(2), rand_fibers(2)
    That = transfer_matrix(sample_filter_matrix(P, Q, LAT))
    B = left_inverse_family(That, frame_bounds(That, LAT))
    ok, dev = interpolation_check(That, 2 * B, LAT, tol=1e-9)
    assert not ok and dev == pytest.approx(1.0, abs=1e-9)


def test_interpolation_rejects_oversampled():
    P, Q = rand_fibers(2), rand_fibers(3)
    That = transfer_matrix(sample_filter_matrix(P, Q, LAT))
    B = left_inverse_family(That, frame_bounds(That, LAT))
    with pytest.raises(ValueError):
        interpolation_check(That, B, LAT, tol=1e-9)


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3)], ids=["square", "oversampled"])
def test_reconstructor_samples_are_the_inverse_series_of_a_times_b(n, m):
    # the coset Gram of the reconstructors' fibers H and the averagers' Q is
    # A B, so the samples of the formed H_m are the inverse series of A B
    P, Q = rand_fibers(n), rand_fibers(m)
    That = system_transfer(P, Q, LAT)
    rep = frame_bounds(That, LAT)
    C = rng.standard_normal((LAT.size, n, m)) + 1j * rng.standard_normal((LAT.size, n, m))
    for free in (None, C):
        B = left_inverse_family(That, rep, free)
        H = build_reconstructor_multi(P, That, rep, free)
        samples = np.stack([average_samples(H[k], Q, LAT) for k in range(m)], axis=1)
        s = inverse_symplectic_series(np.moveaxis(That @ B, 0, -1), LAT)
        assert np.abs(s - samples).max() <= 1e-12 * np.abs(samples).max()


# ------------------------------------------------------------ refusal safety

def test_refusal_no_nan_reaches_caller():
    for _ in range(5):
        bad = failing_generator()
        P = trace_fibers([bad], LAT)
        Q = trace_fibers([bad], LAT)
        A = sample_filter_matrix(P, Q, LAT)
        assert np.isfinite(A.seqs).all()
        That = transfer_matrix(A)
        with pytest.raises(SingularTransfer) as err:
            build_reconstructor_multi(P, That, frame_bounds(That, LAT))
        assert err.value.witness_xi is not None
        with pytest.raises(SingularTransfer):
            whiten_generator(trace_fibers(bad, LAT), LAT)


def test_reconstructor_riesz_and_filter_condition_consistent():
    # admissible instances: the reconstructor translates pass the Riesz
    # check exactly when the filter passes the 1 x 1 frame condition
    for _ in range(5):
        P, Q = rand_fibers(1), rand_fibers(1)
        That = transfer_matrix(sample_filter_matrix(P, Q, LAT))
        rep = frame_bounds(That, LAT)
        assert rep.passed
        H = operator_of(build_reconstructor_multi(P, That, rep), LAT)
        assert gram_matrix_bounds(fibers(fourier_wigner(H), LAT), LAT).passed


@pytest.mark.parametrize("L,a,b", [(9, 3, 3), (15, 3, 5), (33, 3, 11)])
def test_sampling_is_convolution_across_sizes(L, a, b):
    lat = Lattice(L, a, b)
    for n, m in ((1, 2), (2, 3)):
        P = trace_fibers([rand_op(L) for _ in range(n)], lat)
        Q = trace_fibers([rand_op(L) for _ in range(m)], lat)
        A = sample_filter_matrix(P, Q, lat)
        c = rand_coeffs(n, lat)
        s = average_samples(synthesize_element(c, P, lat), Q, lat)
        assert np.linalg.norm(s - A.convolve(c)) <= 1e-9 * np.linalg.norm(s)


# ------------------------------------------------------------ memory layout

def test_many_channels_roundtrip_transient_memory_budget(traced_peak):
    # perfbench's many_channels shape: |Lambda| = 315, N = 4, M = 6.  Each
    # (L, L) complex stack of ten operators is 1.68 MiB; the roundtrip used
    # to hold the operator list, its stacked copy and a second FFT buffer
    # at once, a traced peak of 6.33 MiB, and then the (M, |Lambda|, a*b)
    # reconstructor fibers, 3.54 MiB
    cfg = parse_config({"L": 105, "lattice": {"a": 7, "b": 5}, "seed": 11,
                        "generators": [{"kind": "random_hs"}] * 4,
                        "averagers": [{"kind": "random_hs"}] * 6,
                        "c_matrix": "random"})
    assert runner.run_roundtrip(cfg)[1] == 0  # warm-up: caches and lazy imports
    (report, code), peak = traced_peak(runner.run_roundtrip, cfg)
    assert code == 0 and report["reconstruction"]["pass"]
    assert peak <= 3.0 * 2**20, f"transient peak {peak / 2**20:.2f} MiB"


# perfbench's two roundtrip shapes: full_lattice (|Lambda| = 2601, N = M = 1,
# whitened) and many_channels (|Lambda| = 315, N = 4, M = 6, random C)
ROUNDTRIP_SHAPES = {
    "full_lattice": {"L": 51, "lattice": {"a": 1, "b": 1},
                     "generators": [{"kind": "whitened", "inner": {"kind": "random_hs"}}],
                     "averagers": [{"kind": "random_hs"}]},
    "many_channels": {"L": 105, "lattice": {"a": 7, "b": 5},
                      "generators": [{"kind": "random_hs"}] * 4,
                      "averagers": [{"kind": "random_hs"}] * 6, "c_matrix": "random"},
}


@pytest.mark.parametrize("shape", sorted(ROUNDTRIP_SHAPES))
def test_fiber_roundtrip_error_matches_the_operator_route(shape):
    # the runner reads its error off the Riesz Gram in coefficient space.
    # Against the operator route (quantize the element of the same draws,
    # sample it through its trace transform, synthesize from the explicit
    # reconstructors H_m and quantize the reconstruction), in three steps:
    # the operator-sampled samples are the inverse series of A c_hat up to
    # their own sampling roundoff, which the left inverse amplifies; the
    # samples of A c_hat reconstructed through H_m give the runner's error;
    # and the operator-sampled error gives the runner's verdict
    for seed in range(1, 17):
        cfg = parse_config(dict(ROUNDTRIP_SHAPES[shape], seed=seed))
        report, _ = runner.run_roundtrip(cfg)
        err = report["reconstruction"]["relative_error"]
        lat, P, Q, A, system, c, C = roundtrip_draws(cfg)
        H = build_reconstructor_multi(P, A, system, C)
        T = operator_of(synthesize_element(c, P, lat), lat)
        s = average_samples(trace_fibers(T, lat), Q, lat)
        c_hat = symplectic_series(c, lat).T[:, :, None]
        s_A = inverse_symplectic_series(np.moveaxis(_matmul(A, c_hat), 0, -1), lat)[:, 0]
        assert np.linalg.norm(s - s_A) <= 1e-14 * np.linalg.norm(s_A), seed
        T_A = operator_of(synthesize_element(s_A, H, lat), lat)
        a_err = np.linalg.norm(T_A - T) / hs_norm(T)
        assert abs(err - a_err) <= 1e-12, (seed, err, a_err)
        T_rec = operator_of(synthesize_element(s, H, lat), lat)
        op_err = np.linalg.norm(T_rec - T) / hs_norm(T)
        assert report["reconstruction"]["pass"] == bool(op_err <= cfg.tolerance)


@settings(max_examples=30, deadline=None)
@given(designs(), st.sampled_from(["zero", "random"]))
def test_coefficient_roundtrip_matches_the_fiber_route(cfg, c_matrix):
    # whenever the verdicts pass, the error read off the Riesz Gram is the
    # Frobenius ratio of the synthesized and reconstructed elements' fibers,
    # and the exit code is the one that ratio and the interpolation check give.
    # The fiber route's samples carry roundoff of eps |Lambda| sqrt(beta_Q)
    # times the element's norm, which the left inverse scales by
    # 1/sqrt(alpha), so the two errors differ by up to about eps * kappa,
    # kappa = |Lambda| beta_P sqrt(beta_Q / (alpha alpha_P)).  The claim is
    # for kappa <= 1e3, about three quarters of the passing designs drawn;
    # above it both errors are amplified roundoff, and a transfer matrix
    # that is roundoff alone (kappa ~ 1e17) can pass the relative gate
    cfg = dataclasses.replace(cfg, c_matrix=c_matrix)
    report, code = runner.run_roundtrip(cfg)
    assume("reconstruction" in report)
    lat, _, Q, *_ = roundtrip_draws(cfg)
    riesz, system = report["generator_riesz"], report["system_frame"]
    beta_q = gram_matrix_bounds(Q, lat).beta
    assume(lat.size * riesz["beta"] * math.sqrt(beta_q / (system["alpha"] * riesz["alpha"])) <= 1e3)
    fiber_err, fiber_code = fiber_roundtrip(cfg)
    err = report["reconstruction"]["relative_error"]
    assert abs(err - fiber_err) <= 1e-12, (err, fiber_err)
    assert code == fiber_code


@settings(max_examples=30, deadline=None)
@given(designs())
def test_error_norms_are_the_quadratic_forms_of_the_riesz_gram(cfg):
    # e^T G conj(e) = ||sum_n e_n P_n[xi]||^2 at every xi, for the coset Gram
    # G the Riesz report keeps: the roundtrip's error and its witness rest on
    # it.  Roundoff is relative to (sum_n |e_n| ||P_n[xi]||)^2, which bounds
    # both sides whatever the conditioning of G, or to the smallest normal
    # float where that underflows (a narrow Gaussian's tails)
    lat, _, stacks = runner._start(cfg, "analyze", runner._make_rng(cfg.seed))
    assume(stacks is not None)
    P = stacks[0]
    draw = np.random.default_rng(cfg.seed)
    e = draw.standard_normal((lat.size, len(P), 1)) + 1j * draw.standard_normal((lat.size, len(P), 1))
    quad = runner._norms_sq(gram_matrix_bounds(P, lat).gram, e)
    fiber = np.linalg.norm(np.einsum("xn,nxm->xm", e[..., 0], P), axis=-1) ** 2
    scale = (np.abs(e[..., 0]) * np.linalg.norm(P, axis=-1).T).sum(axis=-1) ** 2
    assert np.all(np.abs(quad - fiber) <= 1e-12 * np.maximum(scale, np.finfo(float).tiny))


def _read_only(a):
    a = np.array(a)
    a.flags.writeable = False
    return a


def _bounds(report):
    return np.array([report.alpha, report.beta, report.tol])


@pytest.mark.parametrize("name", ["fourier_wigner", "inverse_fourier_wigner",
                                  "system_transfer", "gram_matrix_bounds",
                                  "average_samples"])
def test_read_only_inputs_are_accepted_and_left_unchanged(name):
    ops = _read_only(np.stack([rand_op() for _ in range(3)]))
    P = _read_only(trace_fibers(ops, LAT))
    T = _read_only(trace_fibers(rand_op(), LAT))
    Q = rand_fibers(2)
    calls = {
        "fourier_wigner": (fourier_wigner, ops),
        "inverse_fourier_wigner": (inverse_fourier_wigner, ops),
        "system_transfer": (lambda x: system_transfer(x, x, LAT), P),
        "gram_matrix_bounds": (lambda x: _bounds(gram_matrix_bounds(x, LAT)), P),
        "average_samples": (lambda x: average_samples(x, Q, LAT), T),
    }
    fn, arg = calls[name]
    before = arg.copy()
    out = fn(arg)
    assert np.array_equal(arg.view(np.uint64), before.view(np.uint64))
    # the same bits as from a writable copy of the input
    assert np.array_equal(out.view(np.uint64), fn(before).view(np.uint64))


@pytest.mark.parametrize("shape", [(16, 16), (15, 15, 1)])
def test_average_samples_refuses_wrong_operator_shape(shape):
    # an element's fibers at (15, 3, 5) are (|Lambda|, a*b) = (15, 15)
    Q = rand_fibers(2)
    with pytest.raises(ValueError) as err:
        average_samples(np.zeros(shape, complex), Q, LAT)
    assert str(shape) in str(err.value) and str((15, 15)) in str(err.value)
