import dataclasses

import numpy as np
import pytest

from opsampler.builders import build_operator
from opsampler.config import parse_config
from opsampler.errors import SingularTransfer
from opsampler.frames import (
    DEFAULT_TOL_FACTOR,
    ConvolutionMatrix,
    _eigh,
    _matmul,
    _report,
    _witnesses,
    TransferMatrix,
    dual_sequences,
    frame_bounds,
    gram_matrix_bounds,
    left_inverse_family,
    transfer_matrix,
)
from opsampler.lattice import (
    Lattice,
    fibers,
    inverse_symplectic_series,
    involution,
    periodize_sq,
    symplectic_series,
    translate_seq,
)
from opsampler.runner import run_analyze
from opsampler.sampling import AveragerSet, GeneratorSet, sample_filter_matrix, system_transfer
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


def test_first_witness_is_the_lowest_index_in_the_band():
    lat = Lattice(9, 3, 3)
    lows = np.full(lat.size, 5.0)
    lows[[2, 6]] = 1.0 + 1e-15
    lows[7] = 1.0
    assert _witnesses(lows, -np.inf, lat)[0] == (7,)
    assert _witnesses(lows, -np.inf, lat, 1e-14)[0] == (2,)
    assert _witnesses(lows, 1.5, lat, 1e-14)[0] == (2, 6, 7)


def _einsum_report(gram, lat, kind, verdict):
    """Report of Gram matrices summed by the einsum oracle, under the library's witness rule."""
    return _report(np.linalg.eigvalsh(gram), lat, DEFAULT_TOL_FACTOR, kind, verdict)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_witnesses_do_not_depend_on_summation_order(seed):
    # Roundoff ties for the smallest eigenvalue: a whitened generator has a
    # flat Gram spectrum, and delta averagers see only two phase-space
    # lines, so every other coset of the system is exactly zero.  The
    # library's matmul sums and einsum sums differ in the last bits there;
    # the witnesses must not.
    lat = Lattice(45, 3, 3)
    draw = np.random.default_rng(seed)
    white = GeneratorSet.build(
        [build_operator({"kind": "whitened", "inner": {"kind": "random_hs"}}, lat, draw)], lat)
    P = white.fibers
    oracle = _einsum_report(np.einsum("nxa,mxa->xnm", P, P.conj()), lat, "gram", "riesz_basis")
    assert white.riesz.verdict == oracle.verdict == "riesz_basis"
    assert white.riesz.witnesses == oracle.witnesses
    assert white.riesz.witness_points == oracle.witness_points

    gens = GeneratorSet.build([build_operator({"kind": "random_hs"}, lat, draw)], lat)
    avgs = AveragerSet.build([build_operator({"kind": "delta_pair", "t1": t1, "t2": t2}, lat, None)
                              for t1, t2 in ((1, 2), (0, 4))], lat)
    system = frame_bounds(transfer_matrix(sample_filter_matrix(gens, avgs)))
    Q = avgs.fibers
    seqs = inverse_symplectic_series(
        lat.size * np.einsum("nxa,mxa->mnx", gens.fibers, Q.conj()), lat)
    T = transfer_matrix(ConvolutionMatrix(lat, seqs)).values
    oracle = _einsum_report(np.einsum("xmn,xmk->xnk", T.conj(), T), lat, "transfer", "frame")
    assert system.verdict == oracle.verdict == "fail"
    assert system.witnesses == oracle.witnesses
    assert system.witness_points == oracle.witness_points


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


def test_delta_averagers_leave_exactly_zero_transfer_blocks():
    # point-pair averagers see only two phase-space lines, so every other
    # adjoint coset carries exactly zero averager fibers; built from the
    # fibers with no series round trip, those transfer blocks are exactly
    # zero, and so is alpha, and they are exactly the witnesses
    L, deltas = 45, [{"kind": "delta_pair", "t1": 1, "t2": 2},
                     {"kind": "delta_pair", "t1": 0, "t2": 4}]
    lat = Lattice(L, 3, 3)
    gens = GeneratorSet.build(fourier_wigner([rand_op(L)], lat), lat)
    avgs = AveragerSet.build([build_operator(spec, lat, None) for spec in deltas], lat)
    T = system_transfer(gens, avgs)
    zero = [int(i) for i in np.flatnonzero(~T.values.reshape(lat.size, -1).any(axis=1))]
    assert 0 < len(zero) < lat.size
    report, code = run_analyze(parse_config(
        {"L": L, "lattice": {"a": 3, "b": 3}, "seed": 5,
         "generators": [{"kind": "random_hs"}], "averagers": deltas}))
    system = report["system_frame"]
    assert code == 2 and system["verdict"] == "fail"
    assert system["alpha"] == 0.0
    assert sorted(system["witness_xi"]) == zero
    rep = frame_bounds(T)
    assert rep.alpha == 0.0 and sorted(rep.witnesses) == zero


def _one_by_one_stacks():
    """1 x 1 Hermitian stacks: signed zeros, tiny and huge values, and the
    delta-averager system's Gram matrices, exactly zero on most cosets."""
    G = np.zeros((8, 1, 1), complex)
    G.real[:, 0, 0] = [-0.0, 0.0, 2.5, -2.0, 5e-324, -1e-300, 1e300, 0.0]
    G.imag[:, 0, 0] = [0.0, -0.0, 0.0, -0.0, 0.0, 0.0, 0.0, 1e-17]
    L, deltas = 45, [{"kind": "delta_pair", "t1": 1, "t2": 2}]
    lat = Lattice(L, 3, 3)
    local = np.random.default_rng(45)  # collection time: leaves the module's draws alone
    S = local.standard_normal((L, L)) + 1j * local.standard_normal((L, L))
    gens = GeneratorSet.build(fourier_wigner([S], lat), lat)
    avgs = AveragerSet.build([build_operator(spec, lat, None) for spec in deltas], lat)
    T = system_transfer(gens, avgs).values
    gram = np.matmul(T.conj().transpose(0, 2, 1), T)
    assert (gram == 0).any() and (gram != 0).any()
    return [G, gram, local.standard_normal((3, 4, 1, 1)) + 0j]


@pytest.mark.parametrize("G", _one_by_one_stacks(), ids=["signed", "delta_system", "batched"])
def test_eigh_of_one_by_one_stacks_is_lapacks_bit_for_bit(G):
    w, V = _eigh(G)
    w_lapack, V_lapack = np.linalg.eigh(G)
    bits = lambda a: np.ascontiguousarray(a).view(np.uint64)  # noqa: E731
    assert w.shape == w_lapack.shape and V.shape == V_lapack.shape and V.dtype == V_lapack.dtype
    assert np.array_equal(bits(w), bits(w_lapack))
    assert np.array_equal(bits(V), bits(V_lapack))
    assert np.array_equal(bits(_eigh(G, vectors=False)), bits(np.linalg.eigvalsh(G)))


def test_eigh_of_larger_stacks_is_lapacks():
    A = rng.standard_normal((5, 3, 2)) + 1j * rng.standard_normal((5, 3, 2))
    G = np.matmul(A.conj().transpose(0, 2, 1), A)
    w, V = _eigh(G)
    w_lapack, V_lapack = np.linalg.eigh(G)
    assert np.array_equal(w, w_lapack) and np.array_equal(V, V_lapack)
    assert np.array_equal(_eigh(G, vectors=False), np.linalg.eigvalsh(G))


@pytest.mark.parametrize("a_shape, b_shape", [
    ((6, 3, 2), (6, 2, 4)), ((6, 1, 5), (6, 5, 1)), ((2, 6, 4, 3), (6, 3, 3)),  # matmul itself
    ((6, 3, 1), (6, 1, 4)), ((6, 1, 1), (6, 1, 1)), ((2, 6, 4, 1), (6, 1, 3)),  # outer products
])
def test_matmul_is_numpys_product(a_shape, b_shape):
    local = np.random.default_rng(sum(a_shape) * 7 + len(b_shape))
    draw = lambda shape: (local.standard_normal(shape) + 1j * local.standard_normal(shape)) \
        * 10.0 ** local.uniform(-8, 8, shape)  # noqa: E731
    A, B = draw(a_shape), draw(b_shape)
    out, expect = _matmul(A, B), np.matmul(A, B)
    assert out.shape == expect.shape and out.dtype == expect.dtype
    if a_shape[-1] > 1:
        assert np.array_equal(out.view(np.uint64), expect.view(np.uint64))
    else:
        # BLAS may fuse the multiply-adds: the two agree to roundoff only
        bound = 4 * np.finfo(float).eps * np.abs(A) * np.abs(B)
        assert (np.abs(out - expect) <= bound).all()


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


def _pad_zero_row(vals):
    return np.concatenate([vals, np.zeros_like(vals[:, :1])], axis=1)


@pytest.mark.parametrize("diag,passes", [((1e-4, 1e-4, 1e-4), True), ((1.0, 1e-6), False)],
                         ids=["3x3-small-det", "2x2-small-eig"])
def test_gate_does_not_depend_on_shape(diag, passes):
    # the identity but for diag(...) at xi = 4, square and with a zero row
    # appended: the same Gram matrices, so the same verdict.  A determinant
    # gate would fail the 3x3 case (|det| ratio 1e-12) though alpha/beta is
    # 1e-8 in both shapes.
    lat = Lattice(15, 3, 5)
    vals = np.stack([np.eye(len(diag), dtype=complex)] * lat.size)
    vals[4] = np.diag(diag)
    square = frame_bounds(TransferMatrix(lat, vals))
    tall = frame_bounds(TransferMatrix(lat, _pad_zero_row(vals)))
    assert square.passed == tall.passed == passes
    assert square.verdict == ("riesz_basis" if passes else "fail")
    assert tall.verdict == ("frame" if passes else "fail")
    assert (square.alpha, square.beta) == (tall.alpha, tall.beta)
    assert square.alpha == pytest.approx(min(diag) ** 2, rel=1e-12)
    assert square.beta == pytest.approx(1.0)
    assert square.delta == pytest.approx(np.prod(diag), rel=1e-12) and tall.delta is None
    assert square.witnesses[0] == tall.witnesses[0] == 4
    if passes:
        for T, rep in ((TransferMatrix(lat, vals), square),
                       (TransferMatrix(lat, _pad_zero_row(vals)), tall)):
            B = left_inverse_family(T, rep).values
            assert np.abs(np.matmul(B, T.values) - np.eye(len(diag))).max() <= 1e-12
    else:
        assert square.witnesses == tall.witnesses == (4,)
        assert square.witness_points == tall.witness_points == (tuple(lat.dual_points[4]),)


# ------------------------------------------------------ single generator test
# One generator and one averager form the 1 x 1 system with filter q; its
# frame bounds are the extremes of |series q|^2.

def test_single_gen_delta_passes():
    lat = Lattice(15, 3, 5)
    rep = frame_bounds(transfer_matrix(ConvolutionMatrix(lat, delta_seq(lat)[None, None])))
    assert rep.verdict == "riesz_basis"
    assert rep.alpha == pytest.approx(1.0) and rep.beta == pytest.approx(1.0)


def test_single_gen_difference_of_deltas_fails():
    # q = delta_0 - delta_lam has series 1 - chi(lam, .), zero at xi = 0
    lat = Lattice(15, 3, 5)
    q = delta_seq(lat)
    q[lat.index_of((3, 0))] -= 1.0
    rep = frame_bounds(transfer_matrix(ConvolutionMatrix(lat, q[None, None])))
    assert rep.verdict == "fail"
    assert 0 in rep.witnesses


def test_single_gen_autocorrelation_cross_check():
    # min of |series(autocorrelation)| (the square root of alpha) equals
    # |Lambda|^2 times the minimum of the periodized squared trace transform
    lat = Lattice(15, 3, 5)
    S = rand_op(15)
    from opsampler.weyl import weyl_symbol

    aS = weyl_symbol(S)
    q = np.array([np.vdot(np.roll(aS, tuple(p), (0, 1)), aS) for p in lat.points])
    rep = frame_bounds(transfer_matrix(ConvolutionMatrix(lat, q[None, None])))
    P = periodize_sq(fourier_wigner(S), lat)
    assert np.sqrt(rep.alpha) == pytest.approx(lat.size**2 * P.min(), rel=1e-9)
    assert np.sqrt(rep.beta) == pytest.approx(lat.size**2 * P.max(), rel=1e-9)
    assert rep.alpha == pytest.approx(np.abs(symplectic_series(q, lat)).min() ** 2, rel=1e-9)
    assert rep.passed == (P.min() > 1e-10 * P.max())


# ------------------------------------------------------------- Gram matrices

def test_gram_single_generator_scaling():
    lat = Lattice(15, 3, 5)
    S = rand_op(15)
    rep = gram_matrix_bounds(fibers(fourier_wigner(S[None]), lat), lat)
    P = periodize_sq(fourier_wigner(S), lat)
    assert rep.alpha == pytest.approx(lat.size * P.min(), rel=1e-9)
    assert rep.beta == pytest.approx(lat.size * P.max(), rel=1e-9)


def test_gram_duplicated_generator_fails():
    lat = Lattice(15, 3, 5)
    S = rand_op(15)
    rep = gram_matrix_bounds(fibers(fourier_wigner(np.stack([S, S])), lat), lat)
    assert rep.verdict == "fail"
    assert rep.alpha <= rep.tol


def test_gram_two_random_generators_match_oracle():
    lat = Lattice(15, 3, 5)
    S1, S2 = rand_op(15), rand_op(15)
    rep = gram_matrix_bounds(fibers(fourier_wigner(np.stack([S1, S2])), lat), lat)
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
    eye = TransferMatrix(lat, np.stack([np.eye(2, dtype=complex)] * lat.size))
    dag = left_inverse_family(eye, frame_bounds(eye))
    assert np.allclose(dag.values, eye.values)
    A = rand_system(lat, 2, 2)
    That = transfer_matrix(A)
    dag = left_inverse_family(That, frame_bounds(That))
    inv = np.stack([np.linalg.inv(That.values[xi]) for xi in range(lat.size)])
    assert np.abs(dag.values - inv).max() <= 1e-10 * np.abs(inv).max()


def test_pseudo_inverse_rectangular_properties():
    lat = Lattice(15, 3, 5)
    That = transfer_matrix(rand_system(lat, 3, 2))
    dag = left_inverse_family(That, frame_bounds(That))
    for xi in range(lat.size):
        P = That.values[xi] @ dag.values[xi]
        assert np.abs(dag.values[xi] @ That.values[xi] - np.eye(2)).max() <= 1e-10
        assert np.abs(P @ P - P).max() <= 1e-9
        assert np.abs(P - P.conj().T).max() <= 1e-9


def test_pseudo_inverse_refuses_singular():
    lat = Lattice(9, 3, 3)
    vals = np.stack([np.eye(2, dtype=complex)] * lat.size)
    vals[3] = 0.0
    T = TransferMatrix(lat, vals)
    with pytest.raises(SingularTransfer) as err:
        left_inverse_family(T, frame_bounds(T))
    assert err.value.witness_xi == 3


def _unitary(draw, k):
    q, r = np.linalg.qr(draw.standard_normal((k, k)) + 1j * draw.standard_normal((k, k)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("M,N", [(1, 1), (2, 1), (2, 2), (3, 3), (4, 3), (6, 4)])
def test_left_inverse_accuracy(M, N):
    # per xi, A = U diag(s) W* with cond(A) log-spaced from 1 to 1e5 and a
    # scale spread over four decades; errors are bounded relative to
    # cond(G) * eps, G = A* A, against the SVD pseudo-inverse, and the
    # linear-solve route meets the same bounds
    lat = Lattice(15, 3, 5)
    draw = np.random.default_rng(10 * M + N)
    eps = np.finfo(float).eps
    conds = np.logspace(0, 5, lat.size)
    scales = 10.0 ** draw.uniform(-2, 2, lat.size)
    vals = np.empty((lat.size, M, N), complex)
    for xi in range(lat.size):
        s = scales[xi] * np.logspace(0, -np.log10(conds[xi]), N)
        vals[xi] = (_unitary(draw, M)[:, :N] * s) @ _unitary(draw, N).conj().T
    T = TransferMatrix(lat, vals)
    B = left_inverse_family(T, frame_bounds(T, tol_factor=1e-20)).values
    norm = lambda X: np.linalg.norm(X, 2)  # noqa: E731
    for xi in range(lat.size):
        A = vals[xi]
        adj = A.conj().T
        bound = 32 * np.linalg.cond(A) ** 2 * eps
        pinv = np.linalg.pinv(A)
        for Bx in (B[xi], np.linalg.solve(adj @ A, adj)):
            assert norm(Bx - pinv) <= bound * norm(pinv)
            assert norm(Bx @ A - np.eye(N)) <= bound


def test_left_inverse_reads_the_reports_eigenpairs():
    lat = Lattice(9, 3, 3)
    T = transfer_matrix(rand_system(lat, 3, 2))
    rep = frame_bounds(T)
    bare = dataclasses.replace(rep, eigenpairs=None)
    # the eigenpairs are not part of the report's value
    assert rep == bare and repr(rep) == repr(bare) and rep.to_jsonable() == bare.to_jsonable()
    with pytest.raises(ValueError):
        left_inverse_family(T, bare)
    with pytest.raises(ValueError):
        left_inverse_family(transfer_matrix(rand_system(lat, 3, 1)), rep)


# -------------------------------------------------------- left-inverse family

def test_left_inverse_family_zero_c_is_pseudo_inverse():
    lat = Lattice(9, 3, 3)
    That = transfer_matrix(rand_system(lat, 3, 2))
    B0 = left_inverse_family(That, frame_bounds(That), None)
    assert np.allclose(B0.values, np.linalg.pinv(That.values))


def test_left_inverse_family_square_ignores_c():
    lat = Lattice(9, 3, 3)
    That = transfer_matrix(rand_system(lat, 2, 2))
    C = TransferMatrix(lat, rng.standard_normal((lat.size, 2, 2))
                       + 1j * rng.standard_normal((lat.size, 2, 2)))
    rep = frame_bounds(That)
    B = left_inverse_family(That, rep, C)
    assert np.abs(B.values - left_inverse_family(That, rep).values).max() <= 1e-9


def test_left_inverse_family_is_left_inverse():
    lat = Lattice(15, 3, 5)
    That = transfer_matrix(rand_system(lat, 3, 2))
    C = TransferMatrix(lat, rng.standard_normal((lat.size, 2, 3))
                       + 1j * rng.standard_normal((lat.size, 2, 3)))
    B = left_inverse_family(That, frame_bounds(That), C)
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
    B = dual_sequences(left_inverse_family(That, frame_bounds(That)))
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
    # the 1 x 1 system of the autocorrelation, gram_matrix_bounds and
    # positivity of the periodization agree for passing and failing cases
    lat = Lattice(15, 3, 5)
    from opsampler.weyl import weyl_symbol

    def verdicts(S):
        aS = weyl_symbol(S)
        q = np.array([np.vdot(np.roll(aS, tuple(p), (0, 1)), aS) for p in lat.points])
        v1 = frame_bounds(transfer_matrix(ConvolutionMatrix(lat, q[None, None]))).passed
        v2 = gram_matrix_bounds(fibers(fourier_wigner(S[None]), lat), lat).passed
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
