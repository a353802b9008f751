import numpy as np
import pytest

from opsampler.lattice import Lattice
from oracles import (
    check_operator,
    hs_inner,
    hs_norm,
    parity,
    rank_one,
    symplectic_form,
    tf_shift,
    tf_shift_adjoint,
    trace,
    translate_operator,
)

rng = np.random.default_rng(2024)


def rand_signal(L):
    return rng.standard_normal(L) + 1j * rng.standard_normal(L)


def rand_op(L):
    return rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))


def tf_shift_matrix(z, L):
    """Explicit unitary matrix of the time-frequency shift (test oracle)."""
    x, w = z[0] % L, z[1] % L
    M = np.zeros((L, L), dtype=complex)
    for t in range(L):
        M[t, (t - x) % L] = np.exp(2j * np.pi * w * t / L)
    return M


def test_validate_mod_size():
    # the one modulus check is Lattice's: L must be odd and >= 3, so that
    # (L + 1) // 2 is the inverse of 2 mod L
    assert Lattice(15, 1, 1).L == 15
    for bad in (2, 1, 0, -3, 4, 10):
        with pytest.raises(ValueError):
            Lattice(bad, 1, 1)
    assert (15 + 1) // 2 == 8
    assert (2 * ((33 + 1) // 2)) % 33 == 1


def test_symplectic_form_values():
    assert symplectic_form((2, 3), (4, 5), 15) == 2
    assert symplectic_form((1, 0), (0, 1), 15) == 14
    for _ in range(20):
        z = tuple(rng.integers(0, 15, 2))
        assert symplectic_form(z, z, 15) == 0


def test_symplectic_form_antisymmetry():
    for _ in range(30):
        z, z2 = rng.integers(0, 15, 2), rng.integers(0, 15, 2)
        s = symplectic_form(z, z2, 15)
        assert (s + symplectic_form(z2, z, 15)) % 15 == 0


def test_tf_shift_identity_and_delta():
    f = rand_signal(9)
    assert np.allclose(tf_shift((0, 0), f), f)
    d0 = np.zeros(3, complex)
    d0[0] = 1
    out = tf_shift((1, 1), d0)
    assert np.allclose(out, [0, np.exp(2j * np.pi / 3), 0])
    # pure cyclic shift when the modulation is zero
    out = tf_shift((2, 0), d0)
    expect = np.zeros(3, complex)
    expect[2] = 1
    assert np.allclose(out, expect)


def test_tf_shift_against_matrix_oracle():
    L = 15
    f = rand_signal(L)
    for _ in range(10):
        z = tuple(rng.integers(0, L, 2))
        assert np.allclose(tf_shift(z, f), tf_shift_matrix(z, L) @ f, atol=1e-13)


def test_tf_shift_unitary():
    L = 15
    for _ in range(20):
        f = rand_signal(L)
        z = tuple(rng.integers(0, L, 2))
        assert np.linalg.norm(tf_shift(z, f)) == pytest.approx(np.linalg.norm(f), abs=1e-12)


def test_adjoint_identity():
    L = 15
    for _ in range(100):
        f, g = rand_signal(L), rand_signal(L)
        z = tuple(rng.integers(0, L, 2))
        lhs = np.vdot(g, tf_shift(z, f))
        rhs = np.vdot(tf_shift_adjoint(z, g), f)
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(f) * np.linalg.norm(g)


def test_adjoint_delta_case():
    # <pi(z) d0, dx> == <d0, pi(z)* dx> for every basis vector at L=3
    L = 3
    d = np.eye(L, dtype=complex)
    z = (1, 1)
    for x in range(L):
        lhs = np.vdot(d[x], tf_shift(z, d[0]))
        rhs = np.vdot(tf_shift_adjoint(z, d[x]), d[0])
        assert abs(lhs - rhs) < 1e-14


def test_adjoint_inverts_shift():
    L = 15
    for _ in range(10):
        f = rand_signal(L)
        z = tuple(rng.integers(0, L, 2))
        assert np.allclose(tf_shift_adjoint(z, tf_shift(z, f)), f, atol=1e-13)


def test_translate_operator_identity_and_oracle():
    L = 15
    S = rand_op(L)
    assert np.allclose(translate_operator((0, 0), S), S)
    for _ in range(8):
        z = tuple(rng.integers(0, L, 2))
        P = tf_shift_matrix(z, L)
        assert np.allclose(translate_operator(z, S), P @ S @ P.conj().T, atol=1e-12)


def test_translate_rank_one_factorizes():
    L = 15
    psi, phi = rand_signal(L), rand_signal(L)
    z = (2, 7)
    lhs = translate_operator(z, rank_one(psi, phi))
    rhs = rank_one(tf_shift(z, psi), tf_shift(z, phi))
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_translate_group_action_exact():
    L = 15
    S = rand_op(L)
    for _ in range(10):
        z = tuple(rng.integers(0, L, 2))
        z2 = tuple(rng.integers(0, L, 2))
        zsum = ((z[0] + z2[0]) % L, (z[1] + z2[1]) % L)
        lhs = translate_operator(z, translate_operator(z2, S))
        assert np.linalg.norm(lhs - translate_operator(zsum, S)) <= 1e-12 * np.linalg.norm(S)


def test_translate_preserves_hs_structure():
    L = 15
    S, T = rand_op(L), rand_op(L)
    for _ in range(10):
        z = tuple(rng.integers(0, L, 2))
        assert hs_norm(translate_operator(z, S)) == pytest.approx(hs_norm(S), rel=1e-12)
        assert hs_inner(translate_operator(z, S), translate_operator(z, T)) == pytest.approx(
            hs_inner(S, T), rel=1e-11, abs=1e-11)


def test_rank_one():
    L = 15
    d = np.eye(L, dtype=complex)
    out = rank_one(d[0], d[0])
    assert out[0, 0] == 1 and np.count_nonzero(out) == 1
    psi, phi, e = rand_signal(L), rand_signal(L), rand_signal(L)
    assert np.allclose(rank_one(psi, phi) @ e, np.vdot(phi, e) * psi)
    assert hs_norm(rank_one(psi, phi)) == pytest.approx(
        np.linalg.norm(psi) * np.linalg.norm(phi), rel=1e-12)


def test_hs_inner_is_inner_product():
    L = 9
    S, T, U = rand_op(L), rand_op(L), rand_op(L)
    v = hs_inner(S, S)
    assert v.imag == pytest.approx(0, abs=1e-12) and v.real >= 0
    assert v.real == pytest.approx(np.sum(np.abs(S) ** 2), rel=1e-12)
    assert hs_inner(S, T) == pytest.approx(np.conj(hs_inner(T, S)), rel=1e-12)
    a, b = 0.3 - 1j, 2.0 + 0.5j
    assert hs_inner(a * S + b * U, T) == pytest.approx(
        a * hs_inner(S, T) + b * hs_inner(U, T), rel=1e-12)


def test_hs_inner_disjoint_and_factorized():
    L = 15
    d = np.eye(L, dtype=complex)
    assert hs_inner(rank_one(d[0], d[0]), rank_one(d[0], d[1])) == 0
    p1, p2, q1, q2 = (rand_signal(L) for _ in range(4))
    lhs = hs_inner(rank_one(p1, q1), rank_one(p2, q2))
    rhs = np.vdot(p2, p1) * np.conj(np.vdot(q2, q1))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_trace():
    L = 15
    assert trace(np.eye(L)) == L
    psi, phi = rand_signal(L), rand_signal(L)
    assert trace(rank_one(psi, phi)) == pytest.approx(np.vdot(phi, psi), rel=1e-12)
    S, T = rand_op(L), rand_op(L)
    assert trace(S @ T.conj().T) == pytest.approx(hs_inner(S, T), rel=1e-12)


def test_parity_and_check():
    L = 15
    d = np.eye(L, dtype=complex)
    assert np.allclose(parity(d[0]), d[0])
    assert np.allclose(parity(d[1]), d[L - 1])
    f = rand_signal(L)
    assert np.allclose(parity(parity(f)), f)
    S = rand_op(L)
    assert np.allclose(check_operator(check_operator(S)), S)
    # check_operator is conjugation with the parity matrix
    P = np.zeros((L, L))
    for t in range(L):
        P[t, (-t) % L] = 1
    assert np.allclose(check_operator(S), P @ S @ P)


def test_size_mismatch_errors():
    with pytest.raises(ValueError):
        rank_one(rand_signal(5), rand_signal(7))
    with pytest.raises(ValueError):
        hs_inner(rand_op(5), rand_op(7))
    with pytest.raises(ValueError):
        tf_shift((0, 0), rand_op(5))

