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
from opsampler.frames import TransferMatrix, dual_sequences, frame_bounds, transfer_matrix
from opsampler.lattice import Lattice, fibers, symplectic_series, unfibers
from opsampler.sampling import (
    AveragerSet,
    GeneratorSet,
    average_samples,
    build_reconstructor_multi,
    reconstruct,
    relative_error,
    sample_filter_matrix,
    synthesize_element,
    system_transfer,
)
from opsampler.weyl import fourier_wigner
from oracles import seq_operator_convolve
from test_lattice import naive_series


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
    mu = lat.adjoint.points
    pts = (lat.dual_points[:, None, :] + mu[None, :, :]) % L
    assert np.array_equal(P[1], F[1][pts[..., 0], pts[..., 1]])

    c = rand_complex(rng, (n, lat.size))
    assert np.allclose(symplectic_series(c[0], lat), naive_series(c[0], lat), rtol=0, atol=1e-10)

    gen_ops = rand_complex(rng, (n, L, L))
    # the fibers written by the trace transform's phase multiply, for a
    # stack, one operator, and an operator whose transform has exact zeros
    for S in (gen_ops, gen_ops[0], np.diag(rand_complex(rng, L))):
        direct = fourier_wigner(S, lat)
        assert direct.flags.c_contiguous
        oracle = np.ascontiguousarray(fibers(fourier_wigner(S), lat))
        assert np.array_equal(direct.view(np.uint64), oracle.view(np.uint64))
    gens = GeneratorSet.build(fourier_wigner(gen_ops, lat), lat)
    avgs = AveragerSet.build(fourier_wigner(rand_complex(rng, (m, L, L)), lat), lat)
    T = synthesize_element(c, gens)
    oracle = sum(seq_operator_convolve(c[k], gen_ops[k], lat) for k in range(n))
    assert relative_error(T, oracle) <= 1e-12

    A = sample_filter_matrix(gens, avgs)
    samples = average_samples(T, avgs)
    expect = A.convolve(c)
    assert np.linalg.norm(samples - expect) <= 1e-12 * np.linalg.norm(expect)

    C = TransferMatrix(lat, rand_complex(rng, (lat.size, n, m)))
    That = transfer_matrix(A)
    report = frame_bounds(That)
    if n > lat.a * lat.b:
        # each transfer matrix has rank <= |adjoint| = a*b < N: never a frame,
        # whether the system is square or oversampled
        assert not gens.riesz.passed
        with pytest.raises(SingularTransfer):
            build_reconstructor_multi(gens, That, report, C)
        return
    rec = build_reconstructor_multi(gens, That, report, C)
    assert relative_error(reconstruct(samples, rec), T) <= 1e-9


@settings(max_examples=25, deadline=None)
@given(systems())
def test_system_transfer_is_the_series_of_the_filter_system(system):
    # the coset Gram of the fibers is the transfer matrix of the filter
    # system, and the filter sequences are exactly its inverse series
    lat, n, m, seed = system
    rng = np.random.default_rng(seed)
    gens = GeneratorSet.build(fourier_wigner(rand_complex(rng, (n, lat.L, lat.L)), lat), lat)
    avgs = AveragerSet.build(fourier_wigner(rand_complex(rng, (m, lat.L, lat.L)), lat), lat)
    T = system_transfer(gens, avgs)
    A = sample_filter_matrix(gens, avgs)
    assert T.values.shape == (lat.size, m, n)
    oracle = transfer_matrix(A).values
    assert np.abs(T.values - oracle).max() <= 1e-13 * np.abs(T.values).max()
    assert A.seqs.tobytes() == dual_sequences(T).seqs.tobytes()
