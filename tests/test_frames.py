import dataclasses

import numpy as np
import pytest

from opsampler.config import parse_config
from opsampler.errors import SingularTransfer
from opsampler.frames import (
    DEFAULT_TOL_FACTOR,
    _eigvalsh,
    _report,
    _witnesses,
    frame_bounds,
    gram_matrix_bounds,
    left_inverse_family,
)
from opsampler.lattice import (
    Lattice,
    _matmul,
    inverse_symplectic_series,
    periodize_sq,
    symplectic_series,
)
from opsampler.runner import _fibers, _make_rng, run_analyze
from opsampler.sampling import system_transfer
from opsampler.weyl import symplectic_ft
from test_builders_config import build
from oracles import (
    ConvolutionMatrix,
    dual_sequences,
    fibers,
    fourier_wigner,
    index_of,
    involution,
    points,
    sample_filter_matrix,
    trace_fibers,
    transfer_matrix,
    translate_seq,
    weyl_symbol,
    weyl_transform,
)

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
    P = build({"kind": "whitened", "inner": {"kind": "random_hs"}}, lat, draw)[None]
    riesz = gram_matrix_bounds(P, lat)
    oracle = _einsum_report(np.einsum("nxa,mxa->xnm", P, P.conj()), lat, "gram", "riesz_basis")
    assert riesz.verdict == oracle.verdict == "riesz_basis"
    assert riesz.witnesses == oracle.witnesses
    assert riesz.witness_points == oracle.witness_points

    P = build({"kind": "random_hs"}, lat, draw)[None]
    Q = np.stack([build({"kind": "delta_pair", "t1": t1, "t2": t2}, lat, None)
                  for t1, t2 in ((1, 2), (0, 4))])
    system = frame_bounds(transfer_matrix(sample_filter_matrix(P, Q, lat)), lat)
    seqs = inverse_symplectic_series(
        lat.size * np.einsum("nxa,mxa->mnx", P, Q.conj()), lat)
    T = transfer_matrix(ConvolutionMatrix(lat, seqs))
    oracle = _einsum_report(np.einsum("xmn,xmk->xnk", T.conj(), T), lat, "transfer", "frame")
    assert system.verdict == oracle.verdict == "fail"
    assert system.witnesses == oracle.witnesses
    assert system.witness_points == oracle.witness_points


# ------------------------------------------------------------ transfer matrix

def test_transfer_of_delta_system_is_one():
    lat = Lattice(15, 3, 5)
    A = ConvolutionMatrix(lat, delta_seq(lat)[None, None, :])
    T = transfer_matrix(A)
    assert np.allclose(T, 1.0)


def test_transfer_linearity():
    lat = Lattice(15, 3, 5)
    A1, A2 = rand_system(lat, 2, 2), rand_system(lat, 2, 2)
    combo = ConvolutionMatrix(lat, 2.0 * A1.seqs - 1j * A2.seqs)
    assert np.allclose(transfer_matrix(combo),
                       2.0 * transfer_matrix(A1) - 1j * transfer_matrix(A2),
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
        rhs = That[:, m, 0] * chat
        assert np.allclose(lhs, rhs, atol=1e-9)


# -------------------------------------------------------------- frame bounds

def test_frame_bounds_identity_system():
    lat = Lattice(15, 3, 5)
    A = ConvolutionMatrix(lat, delta_seq(lat)[None, None, :])
    rep = frame_bounds(transfer_matrix(A), lat)
    assert rep.verdict == "riesz_basis"
    assert rep.alpha == pytest.approx(1.0) and rep.beta == pytest.approx(1.0)
    assert rep.delta == pytest.approx(1.0)


def test_frame_bounds_zero_column_fails_with_witness():
    lat = Lattice(15, 3, 5)
    vals = np.stack([np.eye(3, 2, dtype=complex) for _ in range(lat.size)])
    vals[7] = 0.0
    rep = frame_bounds(vals, lat)
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
    P = trace_fibers([rand_op(L)], lat)
    Q = np.stack([build(spec, lat, None) for spec in deltas])
    T = system_transfer(P, Q, lat)
    zero = [int(i) for i in np.flatnonzero(~T.reshape(lat.size, -1).any(axis=1))]
    assert 0 < len(zero) < lat.size
    report, code = run_analyze(parse_config(
        {"L": L, "lattice": {"a": 3, "b": 3}, "seed": 5,
         "generators": [{"kind": "random_hs"}], "averagers": deltas}))
    system = report["system_frame"]
    assert code == 2 and system["verdict"] == "fail"
    assert system["alpha"] == 0.0
    assert sorted(system["witness_xi"]) == zero
    rep = frame_bounds(T, lat)
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
    P = trace_fibers([S], lat)
    Q = np.stack([build(spec, lat, None) for spec in deltas])
    T = system_transfer(P, Q, lat)
    gram = np.matmul(T.conj().transpose(0, 2, 1), T)
    assert (gram == 0).any() and (gram != 0).any()
    return [G, gram, local.standard_normal((3, 4, 1, 1)) + 0j]


@pytest.mark.parametrize("G", _one_by_one_stacks(), ids=["signed", "delta_system", "batched"])
def test_eigvalsh_of_one_by_one_stacks_is_lapacks_bit_for_bit(G):
    w = _eigvalsh(G)
    w_lapack = np.linalg.eigvalsh(G)
    bits = lambda a: np.ascontiguousarray(a).view(np.uint64)  # noqa: E731
    assert w.shape == w_lapack.shape and w.dtype == w_lapack.dtype
    assert np.array_equal(bits(w), bits(w_lapack))
    assert np.array_equal(bits(w), bits(np.linalg.eigh(G)[0]))


def test_eigvalsh_of_larger_stacks_is_lapacks():
    A = rng.standard_normal((5, 3, 2)) + 1j * rng.standard_normal((5, 3, 2))
    G = np.matmul(A.conj().transpose(0, 2, 1), A)
    assert np.array_equal(_eigvalsh(G), np.linalg.eigvalsh(G))


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
    rep = frame_bounds(That, lat)
    lows, highs = [], []
    for xi in range(lat.size):
        G = That[xi].conj().T @ That[xi]
        lo, hi = herm2_eigs(G)
        lows.append(lo)
        highs.append(hi)
    assert rep.alpha == pytest.approx(min(lows), rel=1e-9)
    assert rep.beta == pytest.approx(max(highs), rel=1e-9)
    assert rep.alpha <= rep.beta


def test_frame_bounds_requires_tall_system():
    lat = Lattice(9, 3, 3)
    with pytest.raises(ValueError):
        frame_bounds(transfer_matrix(rand_system(lat, 1, 2)), lat)


def test_square_system_delta_and_alpha_verdicts_agree():
    lat = Lattice(15, 3, 5)
    for _ in range(10):
        rep = frame_bounds(transfer_matrix(rand_system(lat, 2, 2)), lat)
        assert rep.alpha <= rep.beta
        assert (rep.delta > rep.tol) == (rep.alpha > rep.tol) == rep.passed
    # touching spectrum kills both gates at once
    vals = np.stack([np.eye(2, dtype=complex)] * lat.size)
    vals[4, :, 1] = 0.0
    rep = frame_bounds(vals, lat)
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
    square = frame_bounds(vals, lat)
    tall = frame_bounds(_pad_zero_row(vals), lat)
    assert square.passed == tall.passed == passes
    assert square.verdict == ("riesz_basis" if passes else "fail")
    assert tall.verdict == ("frame" if passes else "fail")
    assert (square.alpha, square.beta) == (tall.alpha, tall.beta)
    assert square.alpha == pytest.approx(min(diag) ** 2, rel=1e-12)
    assert square.beta == pytest.approx(1.0)
    assert square.delta == pytest.approx(np.prod(diag), rel=1e-12) and tall.delta is None
    assert square.witnesses[0] == tall.witnesses[0] == 4
    if passes:
        for T, rep in ((vals, square), (_pad_zero_row(vals), tall)):
            B = left_inverse_family(T, rep)
            assert np.abs(np.matmul(B, T) - np.eye(len(diag))).max() <= 1e-12
    else:
        assert square.witnesses == tall.witnesses == (4,)
        assert square.witness_points == tall.witness_points == (tuple(lat.dual_points[4]),)


# ------------------------------------------------------ single generator test
# One generator and one averager form the 1 x 1 system with filter q; its
# frame bounds are the extremes of |series q|^2.

def test_single_gen_delta_passes():
    lat = Lattice(15, 3, 5)
    rep = frame_bounds(transfer_matrix(ConvolutionMatrix(lat, delta_seq(lat)[None, None])), lat)
    assert rep.verdict == "riesz_basis"
    assert rep.alpha == pytest.approx(1.0) and rep.beta == pytest.approx(1.0)


def test_single_gen_difference_of_deltas_fails():
    # q = delta_0 - delta_lam has series 1 - chi(lam, .), zero at xi = 0
    lat = Lattice(15, 3, 5)
    q = delta_seq(lat)
    q[index_of(lat, (3, 0))] -= 1.0
    rep = frame_bounds(transfer_matrix(ConvolutionMatrix(lat, q[None, None])), lat)
    assert rep.verdict == "fail"
    assert 0 in rep.witnesses


def test_single_gen_autocorrelation_cross_check():
    # min of |series(autocorrelation)| (the square root of alpha) equals
    # |Lambda|^2 times the minimum of the periodized squared trace transform
    lat = Lattice(15, 3, 5)
    S = rand_op(15)

    aS = weyl_symbol(S)
    q = np.array([np.vdot(np.roll(aS, tuple(p), (0, 1)), aS) for p in points(lat)])
    rep = frame_bounds(transfer_matrix(ConvolutionMatrix(lat, q[None, None])), lat)
    P = periodize_sq(trace_fibers(S, lat), lat)
    assert np.sqrt(rep.alpha) == pytest.approx(lat.size**2 * P.min(), rel=1e-9)
    assert np.sqrt(rep.beta) == pytest.approx(lat.size**2 * P.max(), rel=1e-9)
    assert rep.alpha == pytest.approx(np.abs(symplectic_series(q, lat)).min() ** 2, rel=1e-9)
    assert rep.passed == (P.min() > 1e-10 * P.max())


# ------------------------------------------------------------- Gram matrices

def test_gram_single_generator_scaling():
    lat = Lattice(15, 3, 5)
    S = rand_op(15)
    rep = gram_matrix_bounds(fibers(fourier_wigner(S[None]), lat), lat)
    P = periodize_sq(trace_fibers(S, lat), lat)
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
        for mu in points(lat.adjoint):
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
    dag = left_inverse_family(eye, frame_bounds(eye, lat))
    assert np.allclose(dag, eye)
    A = rand_system(lat, 2, 2)
    That = transfer_matrix(A)
    dag = left_inverse_family(That, frame_bounds(That, lat))
    inv = np.stack([np.linalg.inv(That[xi]) for xi in range(lat.size)])
    assert np.abs(dag - inv).max() <= 1e-10 * np.abs(inv).max()


def test_pseudo_inverse_rectangular_properties():
    lat = Lattice(15, 3, 5)
    That = transfer_matrix(rand_system(lat, 3, 2))
    dag = left_inverse_family(That, frame_bounds(That, lat))
    for xi in range(lat.size):
        P = That[xi] @ dag[xi]
        assert np.abs(dag[xi] @ That[xi] - np.eye(2)).max() <= 1e-10
        assert np.abs(P @ P - P).max() <= 1e-9
        assert np.abs(P - P.conj().T).max() <= 1e-9


def test_pseudo_inverse_refuses_singular():
    lat = Lattice(9, 3, 3)
    vals = np.stack([np.eye(2, dtype=complex)] * lat.size)
    vals[3] = 0.0
    with pytest.raises(SingularTransfer) as err:
        left_inverse_family(vals, frame_bounds(vals, lat))
    assert err.value.witness_xi == 3


# (5, 5, 5), so |Lambda| = 1: a transfer Gram matrix that passes a gate far
# below eps (alpha = 2.2e-16 against beta = 1252) and meets an exactly zero
# pivot when LU factorizes it
SINGULAR_SOLVE = {"L": 5, "lattice": {"a": 5, "b": 5}, "seed": 212,
                  "tol_pos": 1e-30, "tolerance": 1.0,
                  "generators": [{"kind": "boxcar", "width": 5},
                                 {"kind": "delta_pair", "t1": 0, "t2": 2}],
                  "averagers": [{"kind": "boxcar", "width": 5}] * 2}


def test_left_inverse_refuses_a_passing_gram_with_a_zero_pivot():
    cfg = parse_config(SINGULAR_SOLVE)
    lat = Lattice(cfg.L, cfg.a, cfg.b)
    S = _fibers(cfg.generators + cfg.averagers, lat, _make_rng(cfg.seed))
    A = system_transfer(S[:2], S[2:], lat)
    rep = frame_bounds(A, lat, cfg.tol_pos)
    assert rep.passed and rep.alpha < 1e-15 * rep.beta
    with pytest.raises(np.linalg.LinAlgError):  # the pivot the refusal guards
        np.linalg.solve(rep.gram, A.conj().transpose(0, 2, 1))
    for X in (None, A @ np.ones((lat.size, 2, 1))):
        with pytest.raises(SingularTransfer) as err:
            left_inverse_family(A, rep, None, X)
        assert str(err.value) == (
            "transfer matrix is singular at dual index 0 (alpha=%.3e, beta=%.3e)"
            % (rep.alpha, rep.beta))
        assert err.value.witness_xi == rep.witnesses[0]
        assert err.value.witness_point == rep.witness_points[0]


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
    B = left_inverse_family(vals, frame_bounds(vals, lat, tol_factor=1e-20))
    norm = lambda X: np.linalg.norm(X, 2)  # noqa: E731
    for xi in range(lat.size):
        A = vals[xi]
        adj = A.conj().T
        bound = 32 * np.linalg.cond(A) ** 2 * eps
        pinv = np.linalg.pinv(A)
        for Bx in (B[xi], np.linalg.solve(adj @ A, adj)):
            assert norm(Bx - pinv) <= bound * norm(pinv)
            assert norm(Bx @ A - np.eye(N)) <= bound


def test_left_inverse_reads_the_reports_gram():
    lat = Lattice(9, 3, 3)
    T = transfer_matrix(rand_system(lat, 3, 2))
    rep = frame_bounds(T, lat)
    assert np.array_equal(rep.gram, np.matmul(T.conj().transpose(0, 2, 1), T))
    bare = dataclasses.replace(rep, gram=None)
    # the Gram matrices are not part of the report's value
    assert rep == bare and repr(rep) == repr(bare) and rep.to_jsonable() == bare.to_jsonable()
    with pytest.raises(ValueError):
        left_inverse_family(T, bare)
    # a Riesz report keeps a Gram stack of the same shape, but not A* A
    local = np.random.default_rng(47)  # leaves the module's draws alone
    S = local.standard_normal((2, 9, 9)) + 1j * local.standard_normal((2, 9, 9))
    riesz = gram_matrix_bounds(trace_fibers(S, lat), lat)
    assert riesz.passed and riesz.gram.shape == rep.gram.shape
    with pytest.raises(ValueError):
        left_inverse_family(T, riesz)
    # the frame report of another transfer matrix
    with pytest.raises(ValueError):
        left_inverse_family(transfer_matrix(rand_system(lat, 3, 1)), rep)


# -------------------------------------------------------- left-inverse family

def test_left_inverse_family_zero_c_is_pseudo_inverse():
    lat = Lattice(9, 3, 3)
    That = transfer_matrix(rand_system(lat, 3, 2))
    B0 = left_inverse_family(That, frame_bounds(That, lat), None)
    assert np.allclose(B0, np.linalg.pinv(That))


def test_left_inverse_family_square_ignores_c():
    lat = Lattice(9, 3, 3)
    That = transfer_matrix(rand_system(lat, 2, 2))
    C = rng.standard_normal((lat.size, 2, 2)) + 1j * rng.standard_normal((lat.size, 2, 2))
    rep = frame_bounds(That, lat)
    B = left_inverse_family(That, rep, C)
    assert np.abs(B - left_inverse_family(That, rep)).max() <= 1e-9


def test_left_inverse_family_is_left_inverse():
    lat = Lattice(15, 3, 5)
    That = transfer_matrix(rand_system(lat, 3, 2))
    C = rng.standard_normal((lat.size, 2, 3)) + 1j * rng.standard_normal((lat.size, 2, 3))
    B = left_inverse_family(That, frame_bounds(That, lat), C)
    prod = np.einsum("xnm,xmk->xnk", B, That)
    assert np.abs(prod - np.eye(2)).max() <= 1e-10


@pytest.mark.parametrize("M,N", [(1, 1), (3, 3), (3, 2), (6, 4)])
def test_left_inverse_family_applied_to_x_is_b_times_x(M, N):
    # B_hat X evaluated right to left equals the formed B_hat times X, for
    # the pseudo-inverse and a C-parametrized member; the refusals hold
    lat = Lattice(15, 3, 5)
    That = transfer_matrix(rand_system(lat, M, N))
    rep = frame_bounds(That, lat)
    X = rng.standard_normal((lat.size, M, 2)) + 1j * rng.standard_normal((lat.size, M, 2))
    C = rng.standard_normal((lat.size, N, M)) + 1j * rng.standard_normal((lat.size, N, M))
    for free in (None, C):
        BX = left_inverse_family(That, rep, free) @ X
        assert np.abs(left_inverse_family(That, rep, free, X) - BX).max() <= 1e-12 * np.abs(BX).max()
    with pytest.raises(ValueError):
        left_inverse_family(That, rep, C[:, :, :-1] if M > 1 else C[:-1], X)
    with pytest.raises(ValueError):
        left_inverse_family(That, dataclasses.replace(rep, gram=None), None, X)
    vals = That.copy()
    vals[3] = 0.0
    with pytest.raises(SingularTransfer):
        left_inverse_family(vals, frame_bounds(vals, lat), None, X)


# -------------------------------------------------------------- dual sequences

def test_dual_sequences_identity():
    lat = Lattice(15, 3, 5)
    B = dual_sequences(np.ones((lat.size, 1, 1), complex), lat)
    assert np.allclose(B.seqs[0, 0], delta_seq(lat), atol=1e-13)


def test_dual_sequences_round_trip():
    lat = Lattice(15, 3, 5)
    vals = (rng.standard_normal((lat.size, 2, 3))
            + 1j * rng.standard_normal((lat.size, 2, 3)))
    Bhat = vals
    assert np.allclose(transfer_matrix(dual_sequences(Bhat, lat)), vals, atol=1e-10)


def test_frame_expansion_recovers_coefficients():
    # c == sum_m sum_lam <c, T_lam a*_m> T_lam b_m, computed literally
    lat = Lattice(9, 3, 3)
    A = rand_system(lat, 3, 2)
    That = transfer_matrix(A)
    B = dual_sequences(left_inverse_family(That, frame_bounds(That, lat)), lat)
    c = np.stack([rand_seq(lat), rand_seq(lat)])
    recovered = np.zeros_like(c)
    for m in range(3):
        astar_m = np.stack([involution(A.seqs[m, n], lat) for n in range(2)])
        for i, lam in enumerate(points(lat)):
            coeff = sum(np.vdot(translate_seq(lam, astar_m[n], lat), c[n]) for n in range(2))
            for n in range(2):
                recovered[n] += coeff * translate_seq(lam, B.seqs[n, m], lat)
    assert np.abs(recovered - c).max() <= 1e-9 * np.abs(c).max()


def test_empirical_frame_inequality():
    # alpha ||c||^2 <= ||A * c||^2 <= beta ||c||^2 (Parseval factor is 1
    # under this package's series normalization)
    lat = Lattice(15, 3, 5)
    A = rand_system(lat, 3, 2)
    rep = frame_bounds(transfer_matrix(A), lat)
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

    def verdicts(S):
        aS = weyl_symbol(S)
        q = np.array([np.vdot(np.roll(aS, tuple(p), (0, 1)), aS) for p in points(lat)])
        v1 = frame_bounds(transfer_matrix(ConvolutionMatrix(lat, q[None, None])), lat).passed
        v2 = gram_matrix_bounds(fibers(fourier_wigner(S[None]), lat), lat).passed
        P = periodize_sq(trace_fibers(S, lat), lat)
        v3 = P.min() > 1e-10 * P.max()
        return v1, v2, v3

    for _ in range(10):
        res = verdicts(rand_op(15))
        assert res[0] == res[1] == res[2] == True  # noqa: E712

    # engineered failure: zero out one adjoint-lattice coset of the spectrum
    for _ in range(3):
        spectrum = fourier_wigner(rand_op(15))
        z0 = lat.dual_points[rng.integers(0, lat.size)]
        for mu in points(lat.adjoint):
            spectrum[(z0[0] + mu[0]) % 15, (z0[1] + mu[1]) % 15] = 0.0
        S = weyl_transform(symplectic_ft(spectrum))
        res = verdicts(S)
        assert res[0] == res[1] == res[2] == False  # noqa: E712
