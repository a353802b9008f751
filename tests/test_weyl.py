import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opsampler.lattice import Lattice
from opsampler.weyl import rank_one_fibers, symplectic_ft
from oracles import (
    cross_wigner,
    fourier_wigner,
    hs_inner,
    inverse_fourier_wigner,
    rank_one,
    stft,
    tf_shift,
    trace_fibers,
    translate_operator,
    translate_phase,
    translation_covariance_check,
    weyl_symbol,
    weyl_transform,
)

rng = np.random.default_rng(515)


def fiber_buffer(lat):
    """A new (|Lambda|, a*b) complex buffer for ``rank_one_fibers`` to write."""
    return np.empty((lat.size, lat.a * lat.b), dtype=complex)


def rand_signal(L):
    return rng.standard_normal(L) + 1j * rng.standard_normal(L)


def rand_op(L):
    return rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))


def rand_phase(L):
    return rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))


# ---------------------------------------------------------------- oracles

def naive_cross_wigner(psi, phi):
    L = len(psi)
    c = (L + 1) // 2
    out = np.zeros((L, L), dtype=complex)
    for x in range(L):
        for w in range(L):
            acc = 0j
            for t in range(L):
                acc += psi[(x + c * t) % L] * np.conj(phi[(x - c * t) % L]) * np.exp(
                    -2j * np.pi * w * t / L)
            out[x, w] = acc
    return out / np.sqrt(L)


def naive_symplectic_ft(F):
    L = F.shape[0]
    out = np.zeros((L, L), dtype=complex)
    for x in range(L):
        for w in range(L):
            acc = 0j
            for x2 in range(L):
                for w2 in range(L):
                    acc += F[x2, w2] * np.exp(-2j * np.pi * ((w * x2 - w2 * x) % L) / L)
            out[x, w] = acc
    return out / L


# ------------------------------------------------------------ cross-Wigner

def test_cross_wigner_delta_support():
    L = 9
    d0 = np.zeros(L, complex)
    d0[0] = 1
    W = cross_wigner(d0, d0)
    expect = np.zeros((L, L), complex)
    expect[0, :] = 1 / np.sqrt(L)
    assert np.allclose(W, expect, atol=1e-13)


def test_cross_wigner_matches_naive():
    L = 9
    psi, phi = rand_signal(L), rand_signal(L)
    assert np.allclose(cross_wigner(psi, phi), naive_cross_wigner(psi, phi), atol=1e-12)


def test_moyal_identity():
    L = 15
    for _ in range(20):
        p1, q1, p2, q2 = (rand_signal(L) for _ in range(4))
        lhs = np.vdot(cross_wigner(p2, q2), cross_wigner(p1, q1))
        rhs = np.vdot(p2, p1) * np.conj(np.vdot(q2, q1))
        scale = np.linalg.norm(p1) * np.linalg.norm(p2) * np.linalg.norm(q1) * np.linalg.norm(q2)
        assert abs(lhs - rhs) <= 1e-10 * scale


def test_cross_wigner_norm():
    L = 15
    psi, phi = rand_signal(L), rand_signal(L)
    assert np.linalg.norm(cross_wigner(psi, phi)) == pytest.approx(
        np.linalg.norm(psi) * np.linalg.norm(phi), rel=1e-12)


# ------------------------------------------------------------- Weyl symbol

def test_weyl_symbol_of_identity_is_constant():
    L = 15
    assert np.allclose(weyl_symbol(np.eye(L)), np.full((L, L), 1 / np.sqrt(L)), atol=1e-13)


def test_weyl_symbol_rank_one_is_wigner():
    L = 15
    psi, phi = rand_signal(L), rand_signal(L)
    assert np.allclose(weyl_symbol(rank_one(psi, phi)), cross_wigner(psi, phi), atol=1e-12)


@pytest.mark.parametrize("L", [9, 15, 33])
def test_weyl_unitarity(L):
    for _ in range(40):
        S, T = rand_op(L), rand_op(L)
        lhs = hs_inner(S, T)
        rhs = np.vdot(weyl_symbol(T), weyl_symbol(S))
        assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(S) * np.linalg.norm(T)


def test_weyl_round_trips():
    L = 15
    S = rand_op(L)
    assert np.linalg.norm(weyl_transform(weyl_symbol(S)) - S) <= 1e-12 * np.linalg.norm(S)
    F = rand_phase(L)
    assert np.linalg.norm(weyl_symbol(weyl_transform(F)) - F) <= 1e-12 * np.linalg.norm(F)


def test_weyl_transform_of_constant_is_identity():
    L = 9
    out = weyl_transform(np.full((L, L), 1 / np.sqrt(L)))
    assert np.allclose(out, np.eye(L), atol=1e-13)


def test_weyl_weak_identity():
    # <L_f phi, psi> == <f, W(psi, phi)>
    L = 15
    for _ in range(10):
        f = rand_phase(L)
        phi, psi = rand_signal(L), rand_signal(L)
        lhs = np.vdot(psi, weyl_transform(f) @ phi)
        rhs = np.vdot(cross_wigner(psi, phi), f)
        assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(f) * np.linalg.norm(phi) * np.linalg.norm(psi)


# ------------------------------------------------- symplectic Fourier transform

def test_symplectic_ft_matches_naive():
    L = 9
    F = rand_phase(L)
    assert np.allclose(symplectic_ft(F), naive_symplectic_ft(F), atol=1e-11)


def test_symplectic_ft_self_inverse_and_parseval():
    L = 15
    F = rand_phase(L)
    assert np.linalg.norm(symplectic_ft(symplectic_ft(F)) - F) <= 1e-12 * np.linalg.norm(F)
    assert np.linalg.norm(symplectic_ft(F)) == pytest.approx(np.linalg.norm(F), rel=1e-12)


def test_symplectic_ft_of_constant_collapses():
    L = 15
    c = 0.7 - 0.2j
    out = symplectic_ft(np.full((L, L), c))
    expect = np.zeros((L, L), complex)
    expect[0, 0] = c * L
    assert np.allclose(out, expect, atol=1e-12)


# ------------------------------------------------------------ Fourier-Wigner

def test_fourier_wigner_identity_operator():
    L = 15
    out = fourier_wigner(np.eye(L))
    expect = np.zeros((L, L), complex)
    expect[0, 0] = np.sqrt(L)
    assert np.allclose(out, expect, atol=1e-12)


def test_fourier_wigner_equals_symplectic_ft_of_symbol():
    L = 15
    for _ in range(50):
        S = rand_op(L)
        lhs = fourier_wigner(S)
        rhs = symplectic_ft(weyl_symbol(S))
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(S)


def test_fourier_wigner_half_phase_sign_matters():
    # flipping the half-phase sign breaks the identity, so the frozen sign
    # is the only consistent lifting
    L = 15
    c = (L + 1) // 2  # the inverse of 2 mod L
    S = rand_op(L)
    good = fourier_wigner(S)
    grid = np.exp(2j * np.pi * ((c * np.outer(np.arange(L), np.arange(L))) % L) / L)
    flipped = good * grid**2
    rhs = symplectic_ft(weyl_symbol(S))
    assert np.linalg.norm(good - rhs) <= 1e-10 * np.linalg.norm(S)
    assert np.linalg.norm(flipped - rhs) > 1e-3 * np.linalg.norm(S)


def test_fourier_wigner_rank_one_is_stft_magnitude():
    L = 15
    psi, phi = rand_signal(L), rand_signal(L)
    F = fourier_wigner(rank_one(psi, phi))
    for _ in range(20):
        x, w = rng.integers(0, L, 2)
        mag = abs(np.vdot(tf_shift((x, w), phi), psi))
        assert abs(abs(F[x, w]) * np.sqrt(L) - mag) <= 1e-10 * (1 + mag)


@pytest.mark.parametrize("L", [3, 15, 45, 105])
def test_inverse_fourier_wigner_quantizes_in_one_step(L):
    F = rand_phase(L)
    Q = inverse_fourier_wigner(F)
    two_step = weyl_transform(symplectic_ft(F))
    assert np.linalg.norm(Q - two_step) <= 1e-12 * np.linalg.norm(two_step)
    assert np.linalg.norm(fourier_wigner(Q) - F) <= 1e-12 * np.linalg.norm(F)
    S = rand_op(L)
    assert np.linalg.norm(inverse_fourier_wigner(fourier_wigner(S)) - S) <= 1e-12 * np.linalg.norm(S)


# --------------------------------------------------------------------- STFT

def test_stft_values():
    L = 15
    phi, psi = rand_signal(L), rand_signal(L)
    V = stft(phi, psi)
    assert V[0, 0] == pytest.approx(np.vdot(psi, phi), rel=1e-12)
    for _ in range(10):
        x, w = rng.integers(0, L, 2)
        assert V[x, w] == pytest.approx(np.vdot(tf_shift((x, w), psi), phi), rel=1e-11, abs=1e-11)


def test_stft_energy():
    L = 15
    phi, psi = rand_signal(L), rand_signal(L)
    V = stft(phi, psi)
    assert np.linalg.norm(V) ** 2 == pytest.approx(
        L * np.linalg.norm(phi) ** 2 * np.linalg.norm(psi) ** 2, rel=1e-12)


def test_stft_delta_window():
    L = 9
    d0 = np.zeros(L, complex)
    d0[0] = 1
    V = stft(d0, d0)
    expect = np.zeros((L, L), complex)
    expect[0, :] = 1
    assert np.allclose(V, expect, atol=1e-13)


# ------------------------------------------------------ translation covariance

def test_translation_covariance_zero_shift():
    F = rand_phase(9)
    assert translation_covariance_check(F, (0, 0)) <= 1e-13 * np.linalg.norm(F)


def test_translation_covariance_random():
    L = 15
    F = rand_phase(L)
    assert translation_covariance_check(F, (3, 5)) <= 1e-10 * np.linalg.norm(F)
    sym = cross_wigner(rand_signal(L), rand_signal(L))
    z = tuple(rng.integers(0, L, 2))
    assert translation_covariance_check(sym, z) <= 1e-10 * np.linalg.norm(sym)


def test_translation_covariance_exhaustive_small():
    L = 9
    F = rand_phase(L)
    scale = np.linalg.norm(F)
    for x in range(L):
        for w in range(L):
            assert translation_covariance_check(F, (x, w)) <= 1e-10 * scale


def test_translate_phase_convention():
    L = 9
    F = rand_phase(L)
    out = translate_phase((2, 3), F)
    x, w = rng.integers(0, L, 2)
    assert out[x, w] == F[(x - 2) % L, (w - 3) % L]


def test_covariance_consistent_with_rank_one_factorization():
    L = 15
    psi, phi = rand_signal(L), rand_signal(L)
    z = (4, 11)
    lhs = weyl_transform(translate_phase(z, cross_wigner(psi, phi)))
    rhs = translate_operator(z, rank_one(psi, phi))
    assert np.linalg.norm(lhs - rhs) <= 1e-11 * np.linalg.norm(rhs)


# ---------------------------------------------------------------- batching

@pytest.mark.parametrize("shape", [(4, 15, 15), (2, 3, 9, 9), (1, 3, 3)])
def test_weyl_maps_batch_bit_for_bit(shape):
    local = np.random.default_rng(shape[-1] * 10 + len(shape))
    stack = local.standard_normal(shape) + 1j * local.standard_normal(shape)
    for fn in (fourier_wigner, inverse_fourier_wigner, weyl_transform, symplectic_ft):
        out = fn(stack)
        assert out.shape == shape
        for k in np.ndindex(shape[:-2]):
            assert np.array_equal(out[k], fn(stack[k]))


@pytest.mark.parametrize("shape", [(15,), (15, 9), (2, 15, 9)])
def test_weyl_maps_refuse_non_square_trailing_axes(shape):
    for fn in (fourier_wigner, inverse_fourier_wigner, weyl_transform, symplectic_ft):
        with pytest.raises(ValueError):
            fn(np.zeros(shape, complex))


def assert_matches_oracle(fib, oracle, msg=None, zeros=True):
    """Rank-one fibers against the oracle transform of their kernel.  The
    symmetric product and the oracle's diagonal gather round differently, so
    they agree to 1e-14 of the largest value, and with ``zeros`` in their
    exact zeros: pass it where the zeros are structural, not where a sum of
    roots of unity happens to round to 0 in one of the two orders."""
    assert np.abs(fib - oracle).max() <= 1e-14 * np.abs(oracle).max(), msg
    if zeros:
        assert np.array_equal(fib == 0, oracle == 0), msg


@pytest.mark.parametrize("a, b", [(1, 1), (3, 5), (1, 15), (15, 15)])
def test_fourier_wigner_writes_the_fibers_bit_for_bit(a, b):
    # the rank-one transform copies its rows through the strided view of the
    # fiber buffer on every lattice, a = b = 1 included; the all-ones pair
    # has a transform with exact zeros
    lat = Lattice(15, a, b)
    ones = np.ones(15, dtype=complex)
    for u, v in ((rand_signal(15), rand_signal(15)), (ones, ones)):
        assert_matches_oracle(rank_one_fibers(u, v, lat, fiber_buffer(lat)), trace_fibers(rank_one(u, v), lat))


def test_fourier_wigner_refuses_a_lattice_of_another_size():
    with pytest.raises(ValueError, match="length 15"):
        lat = Lattice(15, 3, 5)
        rank_one_fibers(rand_signal(9), rand_signal(9), lat, fiber_buffer(lat))


@st.composite
def lattices(draw):
    """A lattice a*Z_L x b*Z_L for an odd L <= 45 and divisors a, b of L."""
    L = draw(st.sampled_from(range(3, 46, 2)))
    divisors = [d for d in range(1, L + 1) if L % d == 0]
    return Lattice(L, draw(st.sampled_from(divisors)), draw(st.sampled_from(divisors)))


@settings(max_examples=30, deadline=None)
@given(lattices(), st.integers(0, 2**32 - 1))
@example(Lattice(45, 1, 1), 0)  # a*b = 1: the fibers are the grid, flattened
@example(Lattice(15, 3, 5), 1)  # a*b = L: fibers and kernels have the same shape
@example(Lattice(45, 9, 5), 2)
def test_rank_one_fibers_are_the_oracle_transform_of_the_kernel(lat, seed):
    local = np.random.default_rng(seed)
    u, v = local.standard_normal((2, lat.L)) + 1j * local.standard_normal((2, lat.L))
    assert_matches_oracle(rank_one_fibers(u, v, lat, fiber_buffer(lat)), trace_fibers(rank_one(u, v), lat))
