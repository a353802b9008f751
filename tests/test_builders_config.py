import numpy as np
import pytest

from opsampler.builders import (
    MAX_WHITENED_NESTING,
    build_operator,
    rand_complex,
    spec_uses_rng,
    validate_builder_spec,
)
from opsampler.config import config_echo, load_config, parse_config
from opsampler.core import hs_inner, translate_operator
from opsampler.errors import ConfigError
from opsampler.lattice import Lattice
from oracles import operator_of

LAT = Lattice(15, 3, 5)


def make_rng(seed=5):
    return np.random.Generator(np.random.Philox(seed))


BASE = {
    "L": 15,
    "lattice": {"a": 3, "b": 5},
    "generators": [{"kind": "random_hs"}],
    "seed": 11,
}


# ------------------------------------------------------------------ builders

def test_delta_pair_builder():
    spec = validate_builder_spec({"kind": "delta_pair", "t1": 2, "t2": 9}, 15, "g")
    P = build_operator(spec, LAT, None)
    assert P.shape == (LAT.size, LAT.a * LAT.b)
    expect = np.zeros((15, 15))
    expect[2, 9] = 1
    assert np.abs(operator_of(P, LAT) - expect).max() <= 1e-14


def test_boxcar_builder():
    spec = validate_builder_spec({"kind": "boxcar", "width": 4}, 15, "g")
    op = operator_of(build_operator(spec, LAT, None), LAT)
    expect = np.zeros((15, 15))
    expect[:4, :4] = 1
    assert np.abs(op - expect).max() <= 1e-14


def test_periodized_gaussian_builder_and_tail():
    spec = validate_builder_spec({"kind": "periodized_gaussian", "width": 4.0}, 15, "g")
    P = build_operator(spec, LAT, None)
    op = operator_of(P, LAT)
    # rank one, hermitian, positive at the center
    assert np.allclose(op, op.conj().T)
    assert op[0, 0].real > 0
    # adding more wraps changes nothing at width <= L/3 (tail < 1e-15)
    spec7 = validate_builder_spec(
        {"kind": "periodized_gaussian", "width": 4.0, "wraps": 7}, 15, "g")
    assert np.abs(P - build_operator(spec7, LAT, None)).max() < 1e-14


def test_random_builders_seeded():
    spec = validate_builder_spec({"kind": "random_hs"}, 15, "g")
    a = build_operator(spec, LAT, make_rng(3))
    b = build_operator(spec, LAT, make_rng(3))
    assert np.array_equal(a, b)
    # random_hs is drawn as fibers: one (|Lambda|, a*b) draw per operator
    assert a.tobytes() == rand_complex(make_rng(3), (LAT.size, LAT.a * LAT.b)).tobytes()
    pair = validate_builder_spec({"kind": "random_signal_pair"}, 15, "g")
    op = operator_of(build_operator(pair, LAT, make_rng(4)), LAT)
    assert np.linalg.matrix_rank(op) == 1


@pytest.mark.parametrize("lat", [LAT, Lattice(45, 3, 3), Lattice(51, 1, 1)],
                         ids=["15-3-5", "45-3-3", "51-1-1"])
def test_random_hs_fibers_are_the_transform_of_an_iid_kernel(lat):
    # the trace transform is unitary, so the fiber draw and its quantized
    # operator both look like i.i.d. standard complex Gaussian entries:
    # mean 0, E|z|^2 = 1 and E z^2 = 0, within five standard errors
    spec = validate_builder_spec({"kind": "random_hs"}, lat.L, "g")
    rng = make_rng(17)
    P = np.stack([build_operator(spec, lat, rng) for _ in range(max(1, 20000 // lat.L**2))])
    ops = operator_of(P, lat)
    assert np.linalg.norm(ops) == pytest.approx(np.linalg.norm(P), rel=1e-13)
    for z in (P.ravel(), ops.ravel()):
        bound = 5 / np.sqrt(z.size)
        assert abs(z.mean()) <= bound
        assert abs(np.mean(np.abs(z) ** 2) - 1) <= bound       # Var |z|^2 = 1
        assert abs(np.mean(z * z)) <= np.sqrt(2) * bound      # E |z|^4 = 2


def test_random_builder_requires_rng():
    for kind in ("random_hs", "random_signal_pair"):
        spec = validate_builder_spec({"kind": kind}, 15, "g")
        with pytest.raises(ConfigError):
            build_operator(spec, LAT, None)


def test_whitened_builder_orthonormal_translates():
    spec = validate_builder_spec(
        {"kind": "whitened", "inner": {"kind": "random_hs"}}, 15, "g")
    assert spec_uses_rng(spec)
    op = operator_of(build_operator(spec, LAT, make_rng(6)), LAT)
    for i, lam in enumerate(LAT.points):
        val = hs_inner(op, translate_operator(tuple(lam), op))
        assert abs(val - (1.0 if i == 0 else 0.0)) < 1e-10


def test_whitened_nesting_is_capped():
    spec = {"kind": "random_hs"}
    for _ in range(MAX_WHITENED_NESTING):
        spec = {"kind": "whitened", "inner": spec}
    # up to the cap the spec validates and builds; whitening again changes nothing
    once = build_operator({"kind": "whitened", "inner": {"kind": "random_hs"}}, LAT, make_rng(8))
    P = build_operator(validate_builder_spec(spec, 15, "g"), LAT, make_rng(8))
    assert np.linalg.norm(P - once) <= 1e-14 * np.linalg.norm(once)
    with pytest.raises(ConfigError) as err:
        validate_builder_spec({"kind": "whitened", "inner": spec}, 15, "g")
    assert err.value.field == "g"


def test_builder_validation_errors():
    with pytest.raises(ConfigError):
        validate_builder_spec({"kind": "nope"}, 15, "g")
    with pytest.raises(ConfigError):
        validate_builder_spec({"kind": "delta_pair", "t1": 15, "t2": 0}, 15, "g")
    with pytest.raises(ConfigError):
        validate_builder_spec({"kind": "boxcar", "width": 0}, 15, "g")
    with pytest.raises(ConfigError):
        validate_builder_spec({"kind": "boxcar", "width": 3, "junk": 1}, 15, "g")
    with pytest.raises(ConfigError):
        validate_builder_spec({"kind": "periodized_gaussian", "width": -1.0}, 15, "g")
    with pytest.raises(ConfigError):
        validate_builder_spec({"kind": "whitened"}, 15, "g")


# -------------------------------------------------------------------- config

def test_parse_minimal_config():
    cfg = parse_config(BASE)
    assert (cfg.L, cfg.a, cfg.b) == (15, 3, 5)
    assert cfg.n == 1 and cfg.m == 1
    assert cfg.c_matrix == "zero"
    assert cfg.tolerance == 1e-8


def test_config_round_trip():
    data = dict(BASE)
    data["averagers"] = [{"kind": "random_hs"}, {"kind": "boxcar", "width": 3}]
    data["c_matrix"] = "random"
    data["tolerance"] = 1e-9
    cfg = parse_config(data)
    echoed = config_echo(cfg)
    assert parse_config(echoed) == cfg
    assert parse_config(config_echo(parse_config(echoed))) == cfg


def test_config_rejects_bad_values():
    for mutate, field in [
        (lambda d: d.update(L=14), "L"),
        (lambda d: d.update(L="15"), "L"),
        (lambda d: d.update(lattice={"a": 4, "b": 5}), "lattice.a"),
        (lambda d: d.update(lattice={"a": 3}), "lattice"),
        (lambda d: d.update(generators=[]), "generators"),
        (lambda d: d.update(seed=-1), "seed"),
        (lambda d: d.update(seed=2**64), "seed"),
        (lambda d: d.update(c_matrix="maybe"), "c_matrix"),
        (lambda d: d.update(tolerance=0), "tolerance"),
        (lambda d: d.update(mystery=1), None),
    ]:
        data = dict(BASE)
        mutate(data)
        with pytest.raises(ConfigError):
            parse_config(data)


def test_config_m_less_than_n_rejected():
    data = dict(BASE)
    data["generators"] = [{"kind": "random_hs"}, {"kind": "random_hs"}]
    data["averagers"] = [{"kind": "random_hs"}]
    with pytest.raises(ConfigError):
        parse_config(data)


def test_seed_required_for_random_builders():
    data = dict(BASE)
    del data["seed"]
    with pytest.raises(ConfigError):
        parse_config(data)
    # deterministic builders need no seed
    data["generators"] = [{"kind": "boxcar", "width": 3}]
    cfg = parse_config(data)
    assert cfg.seed is None
    # ... unless the free left-inverse parameter is random
    data["c_matrix"] = "random"
    with pytest.raises(ConfigError):
        parse_config(data)


def test_load_config_diagnostics(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"L": 15,\n  "lattice": }')
    with pytest.raises(ConfigError) as err:
        load_config(p)
    assert "line 2" in str(err.value)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")


def test_rand_complex_unit_variance():
    draws = rand_complex(make_rng(0), 20000)
    assert abs(np.mean(np.abs(draws) ** 2) - 1.0) < 0.05


@pytest.mark.parametrize("shape", [15, (15, 15), (7, 3)])
def test_rand_complex_matches_two_draw_formula_bit_for_bit(shape):
    # oracle: the formula rand_complex used before it wrote into one buffer
    for seed in range(5):
        rng = make_rng(seed)
        oracle = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
        draws = rand_complex(make_rng(seed), shape)
        assert draws.dtype == oracle.dtype and draws.shape == oracle.shape
        assert draws.tobytes() == oracle.tobytes()
