import numpy as np
import pytest

from opsampler.lattice import (
    Lattice,
    inverse_symplectic_series,
    periodize_sq,
    symplectic_series,
)
from oracles import (
    fibers,
    index_of,
    involution,
    lattice_convolve,
    points,
    symplectic_form,
    translate_seq,
)

rng = np.random.default_rng(9001)


def rand_seq(lat):
    return rng.standard_normal(lat.size) + 1j * rng.standard_normal(lat.size)


def naive_series(c, lat):
    out = np.zeros(lat.size, dtype=complex)
    for xi, z in enumerate(lat.dual_points):
        acc = 0j
        for i, lam in enumerate(points(lat)):
            acc += c[i] * np.exp(2j * np.pi * symplectic_form(lam, z, lat.L) / lat.L)
        out[xi] = acc
    return out


def naive_convolve(c, d, lat):
    out = np.zeros(lat.size, dtype=complex)
    for i, lam in enumerate(points(lat)):
        for i2, mu in enumerate(points(lat)):
            out[i] += c[i2] * d[index_of(lat, (lam - mu) % lat.L)]
    return out


def test_lattice_validation():
    with pytest.raises(ValueError):
        Lattice(15, 4, 5)
    with pytest.raises(ValueError):
        Lattice(15, 3, 0)
    with pytest.raises(ValueError):
        Lattice(10, 2, 5)  # even modulus


def test_adjoint_lattice_parameters():
    lat = Lattice(15, 3, 5)
    adj = lat.adjoint
    assert (adj.a, adj.b) == (3, 5)  # L/b = 3, L/a = 5
    full = Lattice(15, 1, 1)
    assert full.adjoint.size == 1
    assert tuple(points(full.adjoint)[0]) == (0, 0)


@pytest.mark.parametrize("L", [9, 15, 33, 45])
def test_size_product_all_divisor_pairs(L):
    divs = [d for d in range(1, L + 1) if L % d == 0]
    for a in divs:
        for b in divs:
            lat = Lattice(L, a, b)
            assert lat.size * lat.adjoint.size == L * L


def test_adjoint_annihilates_exhaustively():
    lat = Lattice(15, 3, 5)
    for mu in points(lat.adjoint):
        for lam in points(lat):
            assert symplectic_form(mu, lam, 15) == 0


def test_series_of_delta_is_one():
    lat = Lattice(15, 3, 5)
    c = np.zeros(lat.size, complex)
    c[0] = 1
    assert np.allclose(symplectic_series(c, lat), 1.0)


def test_series_matches_naive():
    lat = Lattice(15, 3, 5)
    c = rand_seq(lat)
    assert np.allclose(symplectic_series(c, lat), naive_series(c, lat), atol=1e-11)


def test_series_parseval():
    for lat in (Lattice(15, 3, 5), Lattice(9, 3, 3), Lattice(33, 3, 11)):
        c = rand_seq(lat)
        F = symplectic_series(c, lat)
        assert np.linalg.norm(F) ** 2 == pytest.approx(
            lat.size * np.linalg.norm(c) ** 2, rel=1e-12)


def test_series_coset_invariance_exhaustive():
    # evaluating at z + mu for adjoint mu changes nothing
    lat = Lattice(15, 3, 5)
    c = rand_seq(lat)
    F = symplectic_series(c, lat)
    for xi, z in enumerate(lat.dual_points):
        for mu in points(lat.adjoint):
            shifted = (z + mu) % lat.L
            val = sum(c[i] * np.exp(2j * np.pi * symplectic_form(lam, shifted, lat.L) / lat.L)
                      for i, lam in enumerate(points(lat)))
            assert abs(val - F[xi]) <= 1e-10 * (1 + abs(F[xi]))


def test_inverse_series_round_trip_and_delta():
    lat = Lattice(15, 3, 5)
    c = rand_seq(lat)
    assert np.allclose(inverse_symplectic_series(symplectic_series(c, lat), lat), c, atol=1e-12)
    ones = np.ones(lat.size, complex)
    d = inverse_symplectic_series(ones, lat)
    expect = np.zeros(lat.size, complex)
    expect[0] = 1
    assert np.allclose(d, expect, atol=1e-13)


def test_inverse_series_linearity():
    lat = Lattice(9, 3, 3)
    F1, F2 = rand_seq(lat), rand_seq(lat)
    lhs = inverse_symplectic_series(F1 + F2, lat)
    rhs = inverse_symplectic_series(F1, lat) + inverse_symplectic_series(F2, lat)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_convolution_identity_element():
    lat = Lattice(15, 3, 5)
    c = rand_seq(lat)
    delta = np.zeros(lat.size, complex)
    delta[0] = 1
    assert np.allclose(lattice_convolve(c, delta, lat), c, atol=1e-13)


def test_convolution_matches_naive_and_commutes():
    lat = Lattice(15, 3, 5)
    c, d = rand_seq(lat), rand_seq(lat)
    conv = lattice_convolve(c, d, lat)
    assert np.allclose(conv, naive_convolve(c, d, lat), atol=1e-11)
    assert np.allclose(conv, lattice_convolve(d, c, lat), atol=1e-11)


def test_convolution_theorem():
    for lat in (Lattice(15, 3, 5), Lattice(9, 1, 3), Lattice(33, 11, 3)):
        c, d = rand_seq(lat), rand_seq(lat)
        lhs = symplectic_series(lattice_convolve(c, d, lat), lat)
        rhs = symplectic_series(c, lat) * symplectic_series(d, lat)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_involution():
    lat = Lattice(15, 3, 5)
    c = rand_seq(lat)
    assert np.allclose(involution(involution(c, lat), lat), c)
    delta = np.zeros(lat.size, complex)
    delta[0] = 1
    assert np.allclose(involution(delta, lat), delta)
    # series of the involution is the conjugate series
    assert np.allclose(symplectic_series(involution(c, lat), lat),
                       np.conj(symplectic_series(c, lat)), atol=1e-11)


def test_autocorrelation_spectrum_nonnegative():
    lat = Lattice(15, 3, 5)
    c = rand_seq(lat)
    F = symplectic_series(lattice_convolve(c, involution(c, lat), lat), lat)
    assert np.abs(F.imag).max() <= 1e-10 * np.abs(F).max()
    assert F.real.min() >= -1e-10 * np.abs(F).max()


def test_translate_seq():
    lat = Lattice(15, 3, 5)
    c = rand_seq(lat)
    assert np.allclose(translate_seq((0, 0), c, lat), c)
    delta = np.zeros(lat.size, complex)
    delta[0] = 1
    out = translate_seq((6, 10), delta, lat)
    assert out[index_of(lat, (6, 10))] == 1 and np.count_nonzero(out) == 1
    with pytest.raises(ValueError):
        translate_seq((1, 0), c, lat)  # not a lattice point


def test_translate_pairing_exhaustive():
    # <c, T_lam d*> == (c conv d)(lam) for every lattice point
    lat = Lattice(9, 3, 3)
    c, d = rand_seq(lat), rand_seq(lat)
    conv = lattice_convolve(c, d, lat)
    dstar = involution(d, lat)
    for i, lam in enumerate(points(lat)):
        pairing = np.vdot(translate_seq(lam, dstar, lat), c)
        assert abs(pairing - conv[i]) <= 1e-11 * (1 + abs(conv[i]))


def test_periodize_sq_constant_and_nonnegative():
    lat = Lattice(15, 3, 5)
    ones = np.ones((15, 15), complex)
    out = periodize_sq(fibers(ones, lat), lat)
    assert np.allclose(out, lat.adjoint.size / lat.size)
    F = rng.standard_normal((15, 15)) + 1j * rng.standard_normal((15, 15))
    assert periodize_sq(fibers(F, lat), lat).min() >= 0
    with pytest.raises(ValueError):  # fibers of the wrong shape
        periodize_sq(fibers(F, lat)[:-1], lat)


def test_periodize_sq_matches_direct_sum():
    lat = Lattice(15, 3, 5)
    F = rng.standard_normal((15, 15)) + 1j * rng.standard_normal((15, 15))
    out = periodize_sq(fibers(F, lat), lat)
    for xi, z in enumerate(lat.dual_points):
        acc = sum(abs(F[(z[0] + mu[0]) % 15, (z[1] + mu[1]) % 15]) ** 2
                  for mu in points(lat.adjoint))
        assert out[xi] == pytest.approx(acc / lat.size, rel=1e-12)


def test_dual_grid_shape_and_enumeration():
    lat = Lattice(15, 3, 5)
    assert lat.dual_points.shape == (lat.size, 2)
    assert lat.dual_points[:, 0].max() == lat.n_cols - 1
    assert lat.dual_points[:, 1].max() == lat.n_rows - 1
    # row-major in (x, omega)
    assert tuple(lat.dual_points[1]) == (0, 1)
    assert tuple(lat.dual_points[lat.n_rows]) == (1, 0)
