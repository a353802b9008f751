import dataclasses
import tracemalloc

import numpy as np
import pytest

from opsampler import runner
from opsampler.config import parse_config

from opsampler.core import (
    check_operator,
    hs_inner,
    hs_norm,
    translate_operator,
)
from opsampler.errors import SingularTransfer
from opsampler.frames import (
    ConvolutionMatrix,
    TransferMatrix,
    frame_bounds,
    gram_matrix_bounds,
    left_inverse_family,
    transfer_matrix,
)
from opsampler.lattice import (
    Lattice,
    fibers,
    inverse_symplectic_series,
    periodize_sq,
    symplectic_series,
)
from opsampler.sampling import (
    AveragerSet,
    GeneratorSet,
    average_samples,
    build_reconstructor_multi,
    interpolation_check,
    reconstruct,
    relative_error,
    sample_filter_matrix,
    synthesize_element,
    whiten_generator,
)
from opsampler.weyl import fourier_wigner, inverse_fourier_wigner, symplectic_ft, weyl_transform
from oracles import operator_of, seq_operator_convolve, whiten_operator

rng = np.random.default_rng(77)
LAT = Lattice(15, 3, 5)


def rand_op(L=15):
    return rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))


def rand_coeffs(n, lat=LAT):
    return rng.standard_normal((n, lat.size)) + 1j * rng.standard_normal((n, lat.size))


def gen_set(n, lat=LAT):
    return GeneratorSet.build(fourier_wigner([rand_op(lat.L) for _ in range(n)], lat), lat)


def avg_set(m, lat=LAT):
    return AveragerSet.build(fourier_wigner([rand_op(lat.L) for _ in range(m)], lat), lat)


def operator_route_synthesis(c, ops, lat=LAT):
    out = np.zeros((lat.L, lat.L), complex)
    for n, op in enumerate(ops):
        for i, lam in enumerate(lat.points):
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
    for mu in lat.adjoint.points:
        spectrum[(z0[0] + mu[0]) % lat.L, (z0[1] + mu[1]) % lat.L] = 0.0
    return weyl_transform(symplectic_ft(spectrum))


# ---------------------------------------------------------------- synthesis

def test_synthesize_delta_coefficients():
    ops = [rand_op() for _ in range(2)]
    gens = GeneratorSet.build(fourier_wigner(ops, LAT), LAT)
    c = np.zeros((2, LAT.size), complex)
    c[0, 0] = 1
    assert np.allclose(synthesize_element(c, gens), ops[0], atol=1e-12)


def test_synthesize_linearity():
    gens = gen_set(2)
    c1, c2 = rand_coeffs(2), rand_coeffs(2)
    lhs = synthesize_element(2.0 * c1 - 1j * c2, gens)
    rhs = 2.0 * synthesize_element(c1, gens) - 1j * synthesize_element(c2, gens)
    assert np.allclose(lhs, rhs, atol=1e-11)


def test_synthesize_two_routes_agree():
    ops = [rand_op() for _ in range(2)]
    gens = GeneratorSet.build(fourier_wigner(ops, LAT), LAT)
    c = rand_coeffs(2)
    symbol_route = synthesize_element(c, gens)
    operator_route = operator_route_synthesis(c, ops)
    assert np.linalg.norm(symbol_route - operator_route) <= 1e-10 * np.linalg.norm(operator_route)


# ----------------------------------------------------------------- sampling

def test_average_samples_at_origin():
    Q1 = rand_op()
    avgs = AveragerSet.build(fourier_wigner([Q1], LAT), LAT)
    s = average_samples(Q1, avgs)
    assert s[0, 0] == pytest.approx(hs_norm(Q1) ** 2, rel=1e-12)


def test_average_samples_linearity():
    avgs = avg_set(2)
    T1, T2 = rand_op(), rand_op()
    lhs = average_samples(0.5j * T1 + 2.0 * T2, avgs)
    rhs = 0.5j * average_samples(T1, avgs) + 2.0 * average_samples(T2, avgs)
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_average_samples_operator_route_oracle():
    ops = [rand_op() for _ in range(3)]
    avgs = AveragerSet.build(fourier_wigner(ops, LAT), LAT)
    T = rand_op()
    s = average_samples(T, avgs)
    for m in range(3):
        for i, lam in enumerate(LAT.points):
            direct = hs_inner(T, translate_operator(tuple(lam), ops[m]))
            assert abs(s[m, i] - direct) <= 1e-10 * (1 + abs(direct))


# ------------------------------------------------------------- filter matrix

def test_filter_matrix_autocorrelation_origin():
    S = rand_op()
    gens = GeneratorSet.build(fourier_wigner([S], LAT), LAT)
    avgs = AveragerSet.build(fourier_wigner([S], LAT), LAT)
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
    P = whiten_generator(fourier_wigner(rand_op(), LAT), LAT)
    gens = GeneratorSet.build([P], LAT)
    avgs = AveragerSet.build([P], LAT)
    A = sample_filter_matrix(gens, avgs)
    delta = np.zeros(LAT.size, complex)
    delta[0] = 1
    assert np.abs(A.seqs[0, 0] - delta).max() <= 1e-10
    c = rand_coeffs(1)
    assert np.abs(A.convolve(c) - c).max() <= 1e-9 * np.abs(c).max()


def test_whitened_translates_orthonormal():
    S = operator_of(whiten_generator(fourier_wigner(rand_op(), LAT), LAT), LAT)
    for i, lam in enumerate(LAT.points):
        val = hs_inner(S, translate_operator(tuple(lam), S))
        expect = 1.0 if i == 0 else 0.0
        assert abs(val - expect) <= 1e-10


@pytest.mark.parametrize("L,a,b", [(15, 3, 5), (45, 3, 3), (51, 1, 1), (105, 7, 5)])
def test_fiber_whitening_matches_the_operator_route(L, a, b):
    lat = Lattice(L, a, b)
    S = rand_op(L)
    P = whiten_generator(fourier_wigner(S, lat), lat)
    oracle = fourier_wigner(whiten_operator(S, lat), lat)
    assert np.linalg.norm(P - oracle) <= 1e-14 * np.linalg.norm(oracle)
    # whitening is idempotent up to roundoff: the coset power is already flat
    assert np.linalg.norm(whiten_generator(P, lat) - P) <= 1e-14 * np.linalg.norm(P)


# ------------------------------------------------------ single reconstruction

def test_single_reconstructor_delta_filter():
    S = rand_op()
    gens = GeneratorSet.build(fourier_wigner([S], LAT), LAT)
    q = np.zeros(LAT.size, complex)
    q[0] = 1
    T = transfer_matrix(ConvolutionMatrix(LAT, q[None, None]))
    rec = build_reconstructor_multi(gens, T, frame_bounds(T))
    assert np.allclose(rec.ops[0], S, atol=1e-11)


def test_single_roundtrip_q_equals_s():
    S = rand_op()
    gens = GeneratorSet.build(fourier_wigner([S], LAT), LAT)
    avgs = AveragerSet.build(fourier_wigner([S], LAT), LAT)
    That = transfer_matrix(sample_filter_matrix(gens, avgs))
    rec = build_reconstructor_multi(gens, That, frame_bounds(That))
    c = rand_coeffs(1)
    T = synthesize_element(c, gens)
    assert relative_error(reconstruct(average_samples(T, avgs), rec), T) <= 1e-9


def test_single_roundtrip_random_averager():
    gens = gen_set(1)
    avgs = avg_set(1)
    That = transfer_matrix(sample_filter_matrix(gens, avgs))
    rec = build_reconstructor_multi(gens, That, frame_bounds(That))
    c = rand_coeffs(1)
    T = synthesize_element(c, gens)
    assert relative_error(reconstruct(average_samples(T, avgs), rec), T) <= 1e-9


def test_single_reconstructor_refuses_zero_spectrum():
    gens = gen_set(1)
    q = np.zeros(LAT.size, complex)
    q[0] = 1
    q[LAT.index_of((3, 0))] -= 1.0  # series vanishes at xi = 0
    T = transfer_matrix(ConvolutionMatrix(LAT, q[None, None]))
    with pytest.raises(SingularTransfer) as err:
        build_reconstructor_multi(gens, T, frame_bounds(T))
    assert err.value.witness_xi is not None


def test_single_filter_is_gated_on_squared_moduli():
    # |series q| ranges over [1e-7, 1]: its square falls below the 1e-10
    # gate, so the 1 x 1 system is refused at the dual index of the dip
    gens = gen_set(1)
    F = np.ones(LAT.size, complex)
    F[3] = 1e-7
    T = transfer_matrix(ConvolutionMatrix(LAT, inverse_symplectic_series(F, LAT)[None, None]))
    rep = frame_bounds(T)
    assert rep.verdict == "fail" and rep.witnesses[0] == 3
    assert rep.alpha == pytest.approx(1e-14, rel=1e-6) and rep.beta == pytest.approx(1.0)
    with pytest.raises(SingularTransfer) as err:
        build_reconstructor_multi(gens, T, rep)
    assert err.value.witness_xi == 3


# ------------------------------------------------------- multi reconstruction

def test_multi_reduces_to_single():
    S = rand_op()
    gens = GeneratorSet.build(fourier_wigner([S], LAT), LAT)
    avgs = AveragerSet.build(fourier_wigner([rand_op()], LAT), LAT)
    A = sample_filter_matrix(gens, avgs)
    That = transfer_matrix(A)
    rec = build_reconstructor_multi(gens, That, frame_bounds(That))
    # the one-generator closed form: the fibers of S divided by series(q)
    closed = gens.fibers / symplectic_series(A.seqs[0, 0], LAT)[:, None]
    assert np.allclose(rec.fibers, closed, atol=1e-9)


def test_multi_roundtrip_oversampled():
    gens, avgs = gen_set(2), avg_set(3)
    A = sample_filter_matrix(gens, avgs)
    c = rand_coeffs(2)
    T = synthesize_element(c, gens)
    s = average_samples(T, avgs)
    That = transfer_matrix(A)
    rep = frame_bounds(That)
    rec0 = build_reconstructor_multi(gens, That, rep)
    assert relative_error(reconstruct(s, rec0), T) <= 1e-9
    C = TransferMatrix(LAT, rng.standard_normal((LAT.size, 2, 3))
                       + 1j * rng.standard_normal((LAT.size, 2, 3)))
    recC = build_reconstructor_multi(gens, That, rep, C)
    assert relative_error(reconstruct(s, recC), T) <= 1e-9
    # different left inverses, same reconstruction on the subspace
    assert not np.allclose(rec0.ops, recC.ops)


def test_multi_square_ignores_c():
    gens, avgs = gen_set(2), avg_set(2)
    A = sample_filter_matrix(gens, avgs)
    C = TransferMatrix(LAT, rng.standard_normal((LAT.size, 2, 2))
                       + 1j * rng.standard_normal((LAT.size, 2, 2)))
    That = transfer_matrix(A)
    rep = frame_bounds(That)
    rec0 = build_reconstructor_multi(gens, That, rep)
    recC = build_reconstructor_multi(gens, That, rep, C)
    assert np.abs(rec0.ops - recC.ops).max() <= 1e-8


def test_multi_refuses_more_generators_than_averagers():
    # building the undersampled filter matrix is fine; its frame analysis
    # and the reconstructor are where M >= N is enforced
    gens, avgs = gen_set(2), avg_set(1)
    That = transfer_matrix(sample_filter_matrix(gens, avgs))
    with pytest.raises(ValueError):
        frame_bounds(That)
    # even handed the passing report of a 2 x 2 system, the build refuses
    square = frame_bounds(transfer_matrix(sample_filter_matrix(gens, avg_set(2))))
    assert square.passed
    with pytest.raises(ValueError):
        build_reconstructor_multi(gens, That, square)


def test_rank_deficient_square_system_is_refused():
    # L=3, a=b=1: every fiber has one point, so each 2x2 transfer matrix is
    # rank one and its determinants are roundoff.  The determinant gate alone
    # let most such draws through, to a LinAlgError in the solve or to a
    # meaningless reconstructor; the eigenvalue gate refuses every one.
    lat = Lattice(3, 1, 1)
    local = np.random.default_rng(2024)
    for _ in range(20):
        ops = local.standard_normal((4, 3, 3)) + 1j * local.standard_normal((4, 3, 3))
        P = fourier_wigner(ops, lat)
        gens, avgs = GeneratorSet.build(P[:2], lat), AveragerSet.build(P[2:], lat)
        A = sample_filter_matrix(gens, avgs)
        T = transfer_matrix(A)
        rep = frame_bounds(T)
        assert rep.verdict == "fail" and rep.alpha <= rep.tol and rep.delta is not None
        with pytest.raises(SingularTransfer):
            left_inverse_family(T, rep)
        with pytest.raises(SingularTransfer):
            build_reconstructor_multi(gens, T, rep)


# --------------------------------------------------------------- reconstruct

def test_reconstruct_zero_samples():
    gens, avgs = gen_set(1), avg_set(1)
    That = transfer_matrix(sample_filter_matrix(gens, avgs))
    rec = build_reconstructor_multi(gens, That, frame_bounds(That))
    out = reconstruct(np.zeros((1, LAT.size)), rec)
    assert np.abs(out).max() <= 1e-14


def test_reconstruct_projection_idempotent():
    # arbitrary operator: sample->reconstruct lands in the subspace and is
    # reproduced exactly by a second pass
    gens, avgs = gen_set(2), avg_set(3)
    That = transfer_matrix(sample_filter_matrix(gens, avgs))
    rec = build_reconstructor_multi(gens, That, frame_bounds(That))
    T = rand_op()
    T1 = reconstruct(average_samples(T, avgs), rec)
    T2 = reconstruct(average_samples(T1, avgs), rec)
    assert relative_error(T2, T1) <= 1e-9


def test_reconstruct_order_invariance():
    # explicit operator-route synthesis in two different summation orders
    gens, avgs = gen_set(1), avg_set(1)
    That = transfer_matrix(sample_filter_matrix(gens, avgs))
    rec = build_reconstructor_multi(gens, That, frame_bounds(That))
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
    gens = GeneratorSet.build(fourier_wigner([S], LAT), LAT)
    assert np.allclose(seq_operator_convolve(c[0], S, LAT),
                       synthesize_element(c, gens), atol=1e-10)


def test_full_convolution_form_of_sampling_formula():
    # T == (T conv Qtilde restricted to the lattice) conv H
    S = rand_op()
    gens = GeneratorSet.build(fourier_wigner([S], LAT), LAT)
    Q = rand_op()
    avgs = AveragerSet.build(fourier_wigner([Q], LAT), LAT)
    That = transfer_matrix(sample_filter_matrix(gens, avgs))
    rec = build_reconstructor_multi(gens, That, frame_bounds(That))
    T = synthesize_element(rand_coeffs(1), gens)
    Qtilde = check_operator(Q.conj().T)
    conv = operator_convolve(T, Qtilde)
    s = np.array([conv[lam[0], lam[1]] for lam in LAT.points])
    T_rec = seq_operator_convolve(s, rec.ops[0], LAT)
    assert relative_error(T_rec, T) <= 1e-9


# --------------------------------------------------------------- interpolation

def test_interpolation_whitened_single():
    P = whiten_generator(fourier_wigner(rand_op(), LAT), LAT)
    gens = GeneratorSet.build([P], LAT)
    avgs = AveragerSet.build([P], LAT)
    That = transfer_matrix(sample_filter_matrix(gens, avgs))
    rec = build_reconstructor_multi(gens, That, frame_bounds(That))
    ok, dev = interpolation_check(rec, avgs)
    assert ok and dev <= 1e-9


def test_interpolation_square_system():
    gens, avgs = gen_set(2), avg_set(2)
    That = transfer_matrix(sample_filter_matrix(gens, avgs))
    rec = build_reconstructor_multi(gens, That, frame_bounds(That))
    ok, dev = interpolation_check(rec, avgs)
    assert ok and dev <= 1e-9
    # the check pairs the fibers; the operators they quantize sample the same way
    s = np.stack([average_samples(H, avgs) for H in rec.ops], axis=1)  # s[:, n]: samples of H_n
    expect = np.zeros_like(s)
    expect[:, :, 0] = np.eye(2)
    assert np.abs(s - expect).max() <= 1e-9


def test_interpolation_rejects_scaled_reconstructor():
    gens, avgs = gen_set(2), avg_set(2)
    That = transfer_matrix(sample_filter_matrix(gens, avgs))
    rec = build_reconstructor_multi(gens, That, frame_bounds(That))
    ok, dev = interpolation_check(dataclasses.replace(rec, fibers=2 * rec.fibers), avgs)
    assert not ok and dev == pytest.approx(1.0, abs=1e-9)


def test_interpolation_rejects_oversampled():
    gens, avgs = gen_set(2), avg_set(3)
    That = transfer_matrix(sample_filter_matrix(gens, avgs))
    rec = build_reconstructor_multi(gens, That, frame_bounds(That))
    with pytest.raises(ValueError):
        interpolation_check(rec, avgs)


# ------------------------------------------------------------ refusal safety

def test_refusal_no_nan_reaches_caller():
    for _ in range(5):
        bad = failing_generator()
        gens = GeneratorSet.build(fourier_wigner([bad], LAT), LAT)
        avgs = AveragerSet.build(fourier_wigner([bad], LAT), LAT)
        A = sample_filter_matrix(gens, avgs)
        assert np.isfinite(A.seqs).all()
        That = transfer_matrix(A)
        with pytest.raises(SingularTransfer) as err:
            build_reconstructor_multi(gens, That, frame_bounds(That))
        assert err.value.witness_xi is not None
        with pytest.raises(SingularTransfer):
            whiten_generator(fourier_wigner(bad, LAT), LAT)


def test_reconstructor_riesz_and_filter_condition_consistent():
    # admissible instances: the reconstructor translates pass the Riesz
    # check exactly when the filter passes the 1 x 1 frame condition
    for _ in range(5):
        gens, avgs = gen_set(1), avg_set(1)
        That = transfer_matrix(sample_filter_matrix(gens, avgs))
        rep = frame_bounds(That)
        assert rep.passed
        rec = build_reconstructor_multi(gens, That, rep)
        assert gram_matrix_bounds(fibers(fourier_wigner(rec.ops), LAT), LAT).passed


@pytest.mark.parametrize("L,a,b", [(9, 3, 3), (15, 3, 5), (33, 3, 11)])
def test_sampling_is_convolution_across_sizes(L, a, b):
    lat = Lattice(L, a, b)
    for n, m in ((1, 2), (2, 3)):
        gens = GeneratorSet.build(fourier_wigner([rand_op(L) for _ in range(n)], lat), lat)
        avgs = AveragerSet.build(fourier_wigner([rand_op(L) for _ in range(m)], lat), lat)
        A = sample_filter_matrix(gens, avgs)
        c = rand_coeffs(n, lat)
        s = average_samples(synthesize_element(c, gens), avgs)
        assert np.linalg.norm(s - A.convolve(c)) <= 1e-9 * np.linalg.norm(s)


# ------------------------------------------------------------ memory layout

def test_operator_sets_keep_only_fibers():
    for cls in (GeneratorSet, AveragerSet):
        assert "ops" not in {f.name for f in dataclasses.fields(cls)}


def test_many_channels_roundtrip_transient_memory_budget():
    # perfbench's many_channels shape: |Lambda| = 315, N = 4, M = 6.  Each
    # (L, L) complex stack of ten operators is 1.68 MiB; the roundtrip used
    # to hold the operator list, its stacked copy and a second FFT buffer
    # at once, a traced peak of 6.33 MiB
    cfg = parse_config({"L": 105, "lattice": {"a": 7, "b": 5}, "seed": 11,
                        "generators": [{"kind": "random_hs"}] * 4,
                        "averagers": [{"kind": "random_hs"}] * 6,
                        "c_matrix": "random"})
    assert runner.run_roundtrip(cfg)[1] == 0  # warm-up: caches and lazy imports
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        report, code = runner.run_roundtrip(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert code == 0 and report["reconstruction"]["pass"]
    assert peak - base <= 4.5 * 2**20, f"transient peak {(peak - base) / 2**20:.2f} MiB"


def _read_only(a):
    a = np.array(a)
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("name", ["fourier_wigner", "inverse_fourier_wigner",
                                  "GeneratorSet.build", "AveragerSet.build",
                                  "average_samples"])
def test_read_only_inputs_are_accepted_and_left_unchanged(name):
    ops = _read_only(np.stack([rand_op() for _ in range(3)]))
    P = _read_only(fourier_wigner(ops, LAT))
    T = _read_only(rand_op())
    avgs = avg_set(2)
    calls = {
        "fourier_wigner": (fourier_wigner, ops),
        "inverse_fourier_wigner": (inverse_fourier_wigner, ops),
        "GeneratorSet.build": (lambda x: GeneratorSet.build(x, LAT).fibers, P),
        "AveragerSet.build": (lambda x: AveragerSet.build(x, LAT).fibers, P),
        "average_samples": (lambda x: average_samples(x, avgs), T),
    }
    fn, arg = calls[name]
    before = arg.copy()
    out = fn(arg)
    assert np.array_equal(arg.view(np.uint64), before.view(np.uint64))
    # the same bits as from a writable copy of the input
    assert np.array_equal(out.view(np.uint64), fn(before).view(np.uint64))


@pytest.mark.parametrize("shape", [(16, 16), (15, 15, 1)])
def test_average_samples_refuses_wrong_operator_shape(shape):
    avgs = avg_set(2)
    with pytest.raises(ValueError) as err:
        average_samples(np.zeros(shape, complex), avgs)
    assert str(shape) in str(err.value) and str((15, 15)) in str(err.value)
