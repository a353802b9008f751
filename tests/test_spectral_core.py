"""Property tests of the dual-grid spectral core over random small systems.

The series and the fibers are checked against direct summation and
indexing, and the pipelines built on them against the operator route
(sums of translated operators), on lattices, channel counts and
operators drawn at random.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsampler.errors import SingularTransfer
from opsampler.frames import frame_bounds, gram_matrix_bounds, system_transfer
from opsampler.lattice import Lattice, symplectic_series, unfibers
from opsampler.weyl import rank_one_fibers
from oracles import (
    average_samples,
    build_reconstructor_multi,
    dual_sequences,
    fibers,
    operator_of,
    points,
    rank_one,
    reconstruct,
    relative_error,
    sample_filter_matrix,
    seq_operator_convolve,
    synthesize_element,
    trace_fibers,
    transfer_matrix,
)
from test_lattice import naive_series
from test_weyl import assert_matches_oracle


@st.composite
def systems(draw):
    L = draw(st.sampled_from(range(3, 28, 2)))
    divisors = [d for d in range(1, L + 1) if L % d == 0]
    lat = Lattice(L, draw(st.sampled_from(divisors)), draw(st.sampled_from(divisors)))
    n = draw(st.integers(1, 3))
    m = draw(st.integers(n, 3))
    return lat, n, m, draw(st.integers(0, 2**32 - 1))


def rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(max_examples=25, deadline=None)
@given(systems())
def test_spectral_core_matches_direct_routes(system):
    lat, n, m, seed = system
    rng = np.random.default_rng(seed)
    L = lat.L

    F = rand_complex(rng, (2, L, L))
    P = fibers(F, lat)
    assert np.array_equal(unfibers(P, lat), F)
    mu = points(lat.adjoint)
    pts = (lat.dual_points[:, None, :] + mu[None, :, :]) % L
    assert np.array_equal(P[1], F[1][pts[..., 0], pts[..., 1]])

    c = rand_complex(rng, (n, lat.size))
    assert np.allclose(symplectic_series(c[0], lat), naive_series(c[0], lat), rtol=0, atol=1e-10)

    gen_ops = rand_complex(rng, (n, L, L))
    # the fibers the rank-one transform copies its rows into, for two
    # signals, a signal with itself, and a pair whose transform has exact zeros
    u, v = rand_complex(rng, (2, L))
    for x, y in ((u, v), (u, u), (np.ones(L), np.ones(L))):
        direct = rank_one_fibers(x, y, lat, np.empty((lat.size, lat.a * lat.b), dtype=complex))
        assert direct.flags.c_contiguous
        assert_matches_oracle(direct, trace_fibers(rank_one(x, y), lat))
    P = trace_fibers(gen_ops, lat)
    Q = trace_fibers(rand_complex(rng, (m, L, L)), lat)
    E = synthesize_element(c, P, lat)  # the element's fibers
    T = operator_of(E, lat)
    oracle = sum(seq_operator_convolve(c[k], gen_ops[k], lat) for k in range(n))
    assert np.linalg.norm(T - oracle) <= 1e-12 * np.linalg.norm(oracle)

    A = sample_filter_matrix(P, Q, lat)
    samples = average_samples(E, Q, lat)
    expect = A.convolve(c)
    assert np.linalg.norm(samples - expect) <= 1e-12 * np.linalg.norm(expect)

    C = rand_complex(rng, (lat.size, n, m))
    That = transfer_matrix(A)
    report = frame_bounds(That, lat)
    if n > lat.a * lat.b:
        # each transfer matrix has rank <= |adjoint| = a*b < N: never a frame,
        # whether the system is square or oversampled
        assert not gram_matrix_bounds(P, lat).passed
        with pytest.raises(SingularTransfer):
            build_reconstructor_multi(P, That, report, C)
        return
    H = build_reconstructor_multi(P, That, report, C)
    E_rec = synthesize_element(samples, H, lat)
    # the coefficient route: the left inverse applied to the samples' series.
    # The two routes round differently, so they agree to roundoff times the
    # condition number of the transfer matrix, and each recovers E
    direct = reconstruct(samples, P, That, report, lat, C)
    kappa = np.sqrt(report.beta / report.alpha)
    assert np.linalg.norm(direct - E_rec) <= 1e-12 * kappa * np.linalg.norm(E_rec)
    assert relative_error(direct, E) <= 1e-9
    err = relative_error(E_rec, E)
    assert err <= 1e-9
    # the fibers are a reshape of a unitary transform: the same error as the operators'
    assert abs(err - np.linalg.norm(operator_of(E_rec, lat) - T) / np.linalg.norm(T)) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(systems())
def test_system_transfer_is_the_series_of_the_filter_system(system):
    # the coset Gram of the fibers is the transfer matrix of the filter
    # system, and the filter sequences are exactly its inverse series
    lat, n, m, seed = system
    rng = np.random.default_rng(seed)
    P = trace_fibers(rand_complex(rng, (n, lat.L, lat.L)), lat)
    Q = trace_fibers(rand_complex(rng, (m, lat.L, lat.L)), lat)
    T = system_transfer(P, Q, lat)
    A = sample_filter_matrix(P, Q, lat)
    assert T.shape == (lat.size, m, n)
    oracle = transfer_matrix(A)
    assert np.abs(T - oracle).max() <= 1e-13 * np.abs(T).max()
    assert A.seqs.tobytes() == dual_sequences(T, lat).seqs.tobytes()
