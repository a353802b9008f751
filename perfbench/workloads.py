"""Seeded input generation for the benchmark workloads.

Every config file the program sees is written here, before timing
starts, together with the outcome it must produce.  Outcomes come from
the design of each config, never from running the program: a config is
built to pass with a wide margin, to be exactly (or by many orders of
magnitude) degenerate, or to be invalid.

The same (workload, seed) pair always gives the same files.  The seed
only moves draws that leave the cost of a call unchanged: the seeds of
random builders, delta positions and the order of the calls.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

WORKLOADS = ("full_lattice", "many_channels", "design_sweep")
TOLERANCE = 1e-8
EXPORT_KINDS = ("symbols", "wigner", "periodization", "transfer")

# Distinct inputs written per run; the timed loop cycles through them.
ROUNDTRIP_CONFIGS = 16
SWEEP_CYCLES = 16
SWEEP_GROUP = 4          # every fourth analyze call is followed by an export
SWEEP_EXPORTS = 5        # exports per design_sweep cycle


@dataclass(frozen=True)
class Call:
    """One CLI call: the subcommand, its config file and its designed outcome."""

    command: str
    config: str
    expect: dict


def _rand():
    return {"kind": "random_hs"}


def _pair():
    return {"kind": "random_signal_pair"}


def _gauss(width):
    return {"kind": "periodized_gaussian", "width": float(width)}


def _box(width):
    return {"kind": "boxcar", "width": width}


def _delta(t1, t2):
    return {"kind": "delta_pair", "t1": t1, "t2": t2}


def _white(inner):
    return {"kind": "whitened", "inner": inner}


def _config(L, a, b, gens, avgs=None, **extra):
    cfg = {"L": L, "lattice": {"a": a, "b": b}, "generators": gens}
    if avgs is not None:
        cfg["averagers"] = avgs
    cfg.update(extra)
    return cfg


def _expect(cfg, outcome, field=None):
    """Designed outcome of one config.

    outcome is one of
      "pass"          every verdict passes, exit 0;
      "gen_fail"      generator translates exactly degenerate, exit 2;
      "sys_fail"      generators fine, sampling system degenerate, exit 2;
      "build_fail"    whitening refuses a degenerate inner operator, exit 2,
                      before any verdict is computed;
      "config_error"  invalid config, exit 1, the message names ``field``.
    """
    L, a, b = cfg["L"], cfg["lattice"]["a"], cfg["lattice"]["b"]
    n = len(cfg["generators"])
    m = len(cfg.get("averagers") or cfg["generators"])
    out = {"outcome": outcome, "L": L, "size": (L // a) * (L // b) if outcome != "config_error" else None,
           "n": n, "m": m}
    if outcome == "pass":
        out.update(exit=0, gen="riesz_basis", sys="riesz_basis" if m == n else "frame")
    elif outcome == "gen_fail":
        out.update(exit=2, gen="fail", sys="fail")
    elif outcome == "sys_fail":
        out.update(exit=2, gen="riesz_basis", sys="fail")
    elif outcome == "build_fail":
        out.update(exit=2, gen=None, sys=None)
    elif outcome == "config_error":
        out.update(exit=1, gen=None, sys=None, field=field)
    else:
        raise ValueError(f"unknown outcome {outcome!r}")
    return out


def export_files(expect: dict) -> list[tuple[str, int, str]]:
    """(file name, data rows, header) of ``export --what all``, in manifest order."""
    L, size, n, m = expect["L"], expect["size"], expect["n"], expect["m"]
    files = []
    for kind in EXPORT_KINDS:
        if kind == "transfer":
            files.append(("transfer.csv", size * m * n, "xi_index,m,n,re,im"))
            continue
        for g in range(n):
            if kind == "periodization":
                files.append((f"periodization_g{g}.csv", size, "xi_index,value"))
            else:
                files.append((f"{kind}_g{g}.csv", L * L, "x,omega,re,im"))
    return files


def _roundtrip_config(workload, seed):
    if workload == "full_lattice":
        # |Lambda| = L^2 = 2601: the dense character table dominates (at L=45
        # the lattice and sampling shares tie).  The whitened generator keeps
        # |transfer| proportional to one Rayleigh draw per point, so the
        # verdict has a wide margin under either gate.
        return _config(51, 1, 1, [_white(_rand())], [_rand()], seed=seed)
    # |Lambda| = 315, 24 filter pairs: the sampling roll loops dominate.
    return _config(105, 7, 5, [_rand()] * 4, [_rand()] * 6, seed=seed, c_matrix="random")


def _sweep_cycle(rng: random.Random):
    """One cycle of the design_sweep stream: 20 analyze configs, five of them exported.

    Nine configs share one shape (L=45, a=b=3, N=1, M=2), so the median
    call lands inside a block of equal-cost analyze calls whatever the
    order; the slowest export (L=75, N=3, M=4) recurs once per cycle and
    sets the tail.  Failing configs are exactly degenerate or invalid.
    """
    seed = lambda: rng.getrandbits(63)  # noqa: E731
    t1 = rng.randrange(45)
    t2 = rng.randrange(45)
    # Delta averagers see only the phase-space lines x = 1 - 2 and x = 0 - 4
    # (mod 15 on the dual grid); every other coset gets a zero transfer matrix.
    analyze_only = [
        (_config(45, 3, 3, [_rand()], [_rand(), _gauss(9)], seed=seed()), "pass"),
        (_config(45, 3, 3, [_pair()], [_rand(), _rand()], seed=seed()), "pass"),
        (_config(45, 3, 3, [_white(_rand())], [_rand(), _box(7)], seed=seed()), "pass"),
        (_config(45, 3, 3, [_white(_gauss(9))], [_rand(), _pair()], seed=seed()), "pass"),
        (_config(45, 3, 3, [_gauss(2)], [_rand(), _rand()], seed=seed()), "gen_fail"),
        (_config(45, 3, 3, [_rand()], [_delta(1, 2), _delta(0, 4)], seed=seed()), "sys_fail"),
        (_config(45, 3, 3, [_white(_delta(t1, t2))], [_rand(), _rand()], seed=seed()), "build_fail"),
        (_config(15, 3, 3, [_box(3)]), "pass"),
        (_config(15, 3, 3, [_pair()], [_rand(), _rand(), _rand()], seed=seed()), "pass"),
        (_config(15, 5, 5, [_box(5), _box(5)]), "gen_fail"),
        (_config(45, 5, 3, [_white(_rand())], [_rand()], seed=seed()), "pass"),
        (_config(75, 3, 5, [_white(_gauss(12))], [_rand(), _gauss(12)], seed=seed()), "pass"),
        (_config(45, 4, 3, [_rand()], seed=seed()), ("config_error", "lattice.a")),
        (_config(45, 3, 3, [_rand(), _rand()], [_rand()], seed=seed()), ("config_error", "averagers")),
        (_config(45, 3, 3, [_box(4)], [_rand(), _box(4)], seed=seed()), "gen_fail"),
    ]
    exported = [
        (_config(15, 3, 5, [_rand()], [_rand(), _gauss(4)], seed=seed()), "pass"),
        (_config(45, 3, 3, [_gauss(9)], [_rand(), _gauss(9)], seed=seed()), "pass"),
        (_config(45, 3, 3, [_delta(t1, t2)], [_rand(), _gauss(9)], seed=seed()), "gen_fail"),
        (_config(45, 3, 3, [_rand(), _pair()], [_rand(), _rand(), _gauss(9)], seed=seed()), "pass"),
        (_config(75, 5, 5, [_rand(), _rand(), _white(_rand())], [_rand()] * 4,
                 seed=seed()), "pass"),
    ]
    assert len(exported) == SWEEP_EXPORTS
    assert len(analyze_only) == SWEEP_EXPORTS * (SWEEP_GROUP - 1)
    rng.shuffle(analyze_only)
    rng.shuffle(exported)
    groups = []
    for g, last in enumerate(exported):
        groups.append(analyze_only[3 * g: 3 * g + 3] + [last])
    return groups


def warmup_calls(workload: str) -> int:
    """Calls made before timing: one roundtrip, or one whole design_sweep cycle."""
    return SWEEP_EXPORTS * (SWEEP_GROUP + 1) if workload == "design_sweep" else 1


def _write(path, cfg):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, sort_keys=True)


def generate(workload: str, seed: int, work_dir: str) -> list[Call]:
    """Write the inputs of one run into ``work_dir``; return the call stream."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    cfg_dir = os.path.join(work_dir, "configs")
    os.makedirs(cfg_dir, exist_ok=True)
    calls = []
    if workload != "design_sweep":
        for i in range(ROUNDTRIP_CONFIGS):
            cfg = _roundtrip_config(workload, rng.getrandbits(63))
            path = os.path.join(cfg_dir, f"c{i:03d}.json")
            _write(path, cfg)
            expect = _expect(cfg, "pass")
            expect["interpolation"] = expect["m"] == expect["n"]
            calls.append(Call("roundtrip", path, expect))
        return calls
    k = 0
    for _ in range(SWEEP_CYCLES):
        for group in _sweep_cycle(rng):
            for j, (cfg, outcome) in enumerate(group):
                path = os.path.join(cfg_dir, f"c{k:04d}.json")
                k += 1
                _write(path, cfg)
                expect = (_expect(cfg, *outcome) if isinstance(outcome, tuple)
                          else _expect(cfg, outcome))
                calls.append(Call("analyze", path, expect))
                if j == SWEEP_GROUP - 1:
                    calls.append(Call("export", path, expect))
    return calls
