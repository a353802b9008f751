import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opsampler.builders import (
    BUILDER_KINDS,
    MAX_WHITENED_NESTING,
    _periodized_gaussian,
    build_operator,
    rand_complex,
    spec_uses_rng,
    validate_builder_spec,
)
from opsampler import config
from opsampler.config import MAX_FIBER_BYTES, config_echo, load_config, parse_config
from opsampler.errors import ConfigError
from opsampler.frames import DEFAULT_TOL_FACTOR
from opsampler.lattice import Lattice
from opsampler.runner import _make_rng as make_rng
from opsampler.weyl import rank_one_fibers
from oracles import hs_inner, operator_of, points, rank_one, trace_fibers, translate_operator
from test_weyl import assert_matches_oracle, lattices

LAT = Lattice(15, 3, 5)


def build(spec, lat, rng=None):
    """``build_operator`` into a new (|Lambda|, a*b) buffer, a one-slot stack."""
    return build_operator(spec, lat, rng, np.empty((lat.size, lat.a * lat.b), dtype=complex))


BASE = {
    "L": 15,
    "lattice": {"a": 3, "b": 5},
    "generators": [{"kind": "random_hs"}],
    "seed": 11,
}


# ------------------------------------------------------------------ builders

def test_delta_pair_builder():
    spec = validate_builder_spec({"kind": "delta_pair", "t1": 2, "t2": 9}, 15, "g")
    P = build(spec, LAT, None)
    assert P.shape == (LAT.size, LAT.a * LAT.b)
    expect = np.zeros((15, 15))
    expect[2, 9] = 1
    assert np.abs(operator_of(P, LAT) - expect).max() <= 1e-14


def test_boxcar_builder():
    spec = validate_builder_spec({"kind": "boxcar", "width": 4}, 15, "g")
    op = operator_of(build(spec, LAT, None), LAT)
    expect = np.zeros((15, 15))
    expect[:4, :4] = 1
    assert np.abs(op - expect).max() <= 1e-14


def test_periodized_gaussian_builder_and_tail():
    spec = validate_builder_spec({"kind": "periodized_gaussian", "width": 4.0}, 15, "g")
    P = build(spec, LAT, None)
    op = operator_of(P, LAT)
    # rank one, hermitian, positive at the center
    assert np.allclose(op, op.conj().T)
    assert op[0, 0].real > 0
    # adding more wraps changes nothing at width <= L/3 (tail < 1e-15)
    spec7 = validate_builder_spec(
        {"kind": "periodized_gaussian", "width": 4.0, "wraps": 7}, 15, "g")
    assert np.abs(P - build(spec7, LAT, None)).max() < 1e-14


def test_random_builders_seeded():
    spec = validate_builder_spec({"kind": "random_hs"}, 15, "g")
    a = build(spec, LAT, make_rng(3))
    b = build(spec, LAT, make_rng(3))
    assert np.array_equal(a, b)
    # random_hs is drawn as fibers: one (|Lambda|, a*b) draw per operator
    assert a.tobytes() == rand_complex(make_rng(3), (LAT.size, LAT.a * LAT.b)).tobytes()
    pair = validate_builder_spec({"kind": "random_signal_pair"}, 15, "g")
    op = operator_of(build(pair, LAT, make_rng(4)), LAT)
    assert np.linalg.matrix_rank(op) == 1


@pytest.mark.parametrize("lat", [LAT, Lattice(45, 3, 3), Lattice(51, 1, 1)],
                         ids=["15-3-5", "45-3-3", "51-1-1"])
def test_random_hs_fibers_are_the_transform_of_an_iid_kernel(lat):
    # the trace transform is unitary, so the fiber draw and its quantized
    # operator both look like i.i.d. standard complex Gaussian entries:
    # mean 0, E|z|^2 = 1 and E z^2 = 0, within five standard errors
    spec = validate_builder_spec({"kind": "random_hs"}, lat.L, "g")
    rng = make_rng(17)
    P = np.stack([build(spec, lat, rng) for _ in range(max(1, 20000 // lat.L**2))])
    ops = operator_of(P, lat)
    assert np.linalg.norm(ops) == pytest.approx(np.linalg.norm(P), rel=1e-13)
    for z in (P.ravel(), ops.ravel()):
        bound = 5 / np.sqrt(z.size)
        assert abs(z.mean()) <= bound
        assert abs(np.mean(np.abs(z) ** 2) - 1) <= bound       # Var |z|^2 = 1
        assert abs(np.mean(z * z)) <= np.sqrt(2) * bound      # E |z|^4 = 2


@pytest.mark.parametrize("spec", [{"kind": "random_hs"}, {"kind": "boxcar", "width": 4},
                                  {"kind": "whitened", "inner": {"kind": "random_hs"}}],
                         ids=["random_hs", "boxcar", "whitened"])
def test_build_into_a_stack_slot_matches_a_fresh_build(spec):
    # the runner hands over each slot of its fiber stack: a build into the
    # middle slot of a stack full of NaNs writes the same bits as a build
    # into a buffer of its own, reads nothing the slot held before, and
    # leaves the neighbouring slots untouched
    spec = validate_builder_spec(spec, 15, "g")
    fresh = build(spec, LAT, make_rng(9))
    stack = np.full((3,) + fresh.shape, complex(np.nan, -np.inf))
    before = stack.copy()
    assert build_operator(spec, LAT, make_rng(9), out=stack[1]).base is stack
    assert stack[1].tobytes() == fresh.tobytes()
    assert stack[[0, 2]].tobytes() == before[[0, 2]].tobytes()


@settings(max_examples=20, deadline=None)
@given(lattices(), st.integers(0, 2**32 - 1))
@example(Lattice(15, 1, 1), 0)
@example(Lattice(15, 3, 5), 1)
def test_rank_one_builders_are_the_oracle_transform_of_their_kernel(lat, seed):
    L = lat.L
    draw = np.random.default_rng(seed)
    t1, t2, width, center = (int(k) for k in draw.integers(0, L, 4))
    sigma = 1.0 + L * draw.random() / 3
    box = (np.arange(L) < width + 1).astype(complex)
    gauss = _periodized_gaussian(L, sigma, 3, center)
    stream = make_rng(seed)  # the draws random_signal_pair makes from the same seed
    cases = [({"kind": "delta_pair", "t1": t1, "t2": t2}, np.eye(L, dtype=complex)[[t1, t2]]),
             ({"kind": "boxcar", "width": width + 1}, (box, box)),
             ({"kind": "periodized_gaussian", "width": sigma, "center": center}, (gauss, gauss)),
             ({"kind": "random_signal_pair"}, (rand_complex(stream, L), rand_complex(stream, L)))]
    for spec, (u, v) in cases:
        P = build(validate_builder_spec(spec, L, "g"), lat, make_rng(seed))
        # a delta pair's transform is zero off a few rows; the zeros the oracle
        # reads in a boxcar's or a Gaussian's transform are roundoff that
        # cancels in its order of summation, a few 1e-17 in the other one
        assert_matches_oracle(P, trace_fibers(rank_one(u, v), lat), spec["kind"],
                              zeros=spec["kind"] == "delta_pair")


@pytest.mark.parametrize("lat", [Lattice(255, 5, 5), Lattice(255, 1, 1)], ids=["255-5-5", "255-1-1"])
def test_rank_one_build_into_a_slot_forms_one_product_array(traced_peak, lat):
    # into a slot the product rows are the one L x L array the build forms;
    # the ufunc buffers of the two multiplies add 0.38 units at L = 255
    spec = {"kind": "boxcar", "width": 7}
    slot = np.empty((2, lat.size, lat.a * lat.b), dtype=complex)
    build_operator(spec, lat, None, slot[0])  # warm-up: caches, first-call allocations
    _, peak = traced_peak(build_operator, spec, lat, None, slot[1])
    unit = 16 * lat.L ** 2
    assert peak <= 1.6 * unit, f"peak {peak / unit:.2f} x 16 L^2 bytes"


@pytest.mark.parametrize("spec, bound", [({"kind": "boxcar", "width": 7}, 3.2),
                                         ({"kind": "whitened", "inner": {"kind": "random_hs"}}, 1.6)],
                         ids=["boxcar", "whitened"])
def test_build_into_a_slot_allocates_no_fiber_array_for_it(traced_peak, spec, bound):
    # the rank-one transform forms its L x L product rows and copies them
    # into the slot, about 2.8 units of 16 L^2 bytes at (45, 3, 3), most of it
    # the ufunc buffers of its two multiplies; random_hs draws through one
    # real half-buffer and whitening divides in place, about 1.2 units.  One more
    # fiber array, 1 unit, in either build would exceed the bound.
    lat = Lattice(45, 3, 3)
    unit = 16 * lat.L ** 2
    slot = np.empty((2, lat.size, lat.a * lat.b), dtype=complex)
    build_operator(spec, lat, make_rng(5), slot[0])  # warm-up: caches, first-call allocations
    built, peak = traced_peak(build_operator, spec, lat, make_rng(5), slot[1])
    assert np.shares_memory(built, slot[1])
    assert np.array_equal(slot[1].view(np.uint64), slot[0].view(np.uint64))
    assert peak <= bound * unit, f"peak {peak / unit:.2f} x 16 L^2 bytes"


def test_rank_one_fibers_refuse_an_out_they_cannot_write_through():
    u = np.ones(15, dtype=complex)
    for out in (np.empty((15, 15)), np.empty((15, 16), dtype=complex),
                np.empty((15, 30), dtype=complex)[:, ::2]):
        with pytest.raises(ValueError):
            rank_one_fibers(u, u, LAT, out=out)


# one valid spec of every builder kind
EVERY_KIND = {"delta_pair": {"kind": "delta_pair", "t1": 1, "t2": 4},
              "boxcar": {"kind": "boxcar", "width": 3},
              "periodized_gaussian": {"kind": "periodized_gaussian", "width": 4.0},
              "random_signal_pair": {"kind": "random_signal_pair"},
              "random_hs": {"kind": "random_hs"},
              "whitened": {"kind": "whitened", "inner": {"kind": "random_hs"}}}


def test_every_kind_has_a_spec():
    assert sorted(EVERY_KIND) == sorted(BUILDER_KINDS)


@pytest.mark.parametrize("where", ["wrong_shape", "strided_view"])
@pytest.mark.parametrize("kind", sorted(EVERY_KIND))
def test_build_operator_refuses_an_out_it_cannot_write_through(kind, where):
    # every kind, random_hs (whose draws would fill any out) included, refuses
    # an out that is not a C-contiguous (|Lambda|, a*b) slot before drawing
    # or writing anything
    spec = validate_builder_spec(EVERY_KIND[kind], 15, "g")
    base = np.full((15, 30), complex(np.nan, np.nan))
    out = np.full((3, 3), complex(np.nan, np.nan)) if where == "wrong_shape" else base[:, ::2]
    before = out.copy()
    rng = make_rng(5)
    with pytest.raises(ValueError, match=r"out must be a C-contiguous complex array of shape \(15, 15\)"):
        build_operator(spec, LAT, rng, out)
    assert out.tobytes() == before.tobytes()
    assert rng.random() == make_rng(5).random()  # nothing drawn


def test_random_builder_requires_rng():
    # every spec that draws, a whitened one included, is refused before
    # anything is written into the slot
    for spec in ({"kind": "random_hs"}, {"kind": "random_signal_pair"},
                 {"kind": "whitened", "inner": {"kind": "random_signal_pair"}}):
        spec = validate_builder_spec(spec, 15, "g")
        assert spec_uses_rng(spec)
        slot = np.zeros((LAT.size, LAT.a * LAT.b), dtype=complex)
        with pytest.raises(ConfigError, match="requires a seed"):
            build_operator(spec, LAT, None, slot)
        assert not slot.any()


def test_whitened_builder_orthonormal_translates():
    spec = validate_builder_spec(
        {"kind": "whitened", "inner": {"kind": "random_hs"}}, 15, "g")
    assert spec_uses_rng(spec)
    op = operator_of(build(spec, LAT, make_rng(6)), LAT)
    for i, lam in enumerate(points(LAT)):
        val = hs_inner(op, translate_operator(tuple(lam), op))
        assert abs(val - (1.0 if i == 0 else 0.0)) < 1e-10


def test_whitened_nesting_is_capped():
    spec = {"kind": "random_hs"}
    for _ in range(MAX_WHITENED_NESTING):
        spec = {"kind": "whitened", "inner": spec}
    # up to the cap the spec validates and builds; whitening again changes nothing
    once = build({"kind": "whitened", "inner": {"kind": "random_hs"}}, LAT, make_rng(8))
    P = build(validate_builder_spec(spec, 15, "g"), LAT, make_rng(8))
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
    assert len(cfg.generators) == 1 and cfg.averagers is None
    assert cfg.c_matrix == "zero"
    assert cfg.tolerance == 1e-8


def test_tol_pos_defaults_to_the_frame_gate_factor(monkeypatch):
    # one source for the default: the config reads the frames constant
    assert "tol_pos" not in BASE
    assert parse_config(BASE).tol_pos == DEFAULT_TOL_FACTOR
    monkeypatch.setattr(config, "DEFAULT_TOL_FACTOR", 1e-7)
    assert parse_config(BASE).tol_pos == 1e-7


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


def _stack_config(L, n, m=None, step=1):
    data = {"L": L, "lattice": {"a": step, "b": step}, "seed": 1,
            "generators": [{"kind": "random_hs"}] * n}
    if m is not None:
        data["averagers"] = [{"kind": "random_hs"}] * m
    return data


def test_fiber_stack_cap_counts_the_stacks_a_run_builds():
    # parse_config only: nothing is allocated, whatever L is
    L = math.isqrt(MAX_FIBER_BYTES // 16)
    L -= 1 - L % 2  # the largest odd L whose one fiber stack fits
    assert 16 * L * L <= MAX_FIBER_BYTES < 16 * (L + 2) ** 2
    assert parse_config(_stack_config(L, 1)).L == L  # without averagers M is not counted
    for data in (_stack_config(L, 1, 1), _stack_config(L + 2, 1)):
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert err.value.field == "L" and f"L={data['L']}" in str(err.value)
    # the size ladder's largest rung, (L, a, b, N, M) = (1005, 5, 5, 2, 3)
    assert parse_config(_stack_config(1005, 2, 3, step=5)).L == 1005


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


def test_rand_complex_peak_is_its_output_plus_one_real_half(traced_peak):
    rng = make_rng(0)
    rand_complex(rng, (315, 35))  # warm-up: lazy set-up outside the measurement
    out, peak = traced_peak(rand_complex, rng, (315, 35))
    # the data: the complex output and one float64 half-buffer (264,600 bytes);
    # 4 KiB covers the headers of the arrays and views, not a second buffer
    assert peak <= out.nbytes + out.nbytes // 2 + 4096, f"peak {peak} bytes"
