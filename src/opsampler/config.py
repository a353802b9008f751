"""Experiment configuration: JSON schema, validation and canonical echo.

Schema (all other top-level keys are rejected)::

    {
      "L": 15,                      # odd modulus >= 3
      "lattice": {"a": 3, "b": 5},  # steps dividing L
      "generators": [ <builder spec>, ... ],
      "averagers":  [ <builder spec>, ... ],   # optional; default: generators
      "seed": 12345,                # required when anything random is drawn
      "c_matrix": "zero",           # or "random": free parameter of the left inverse
      "tolerance": 1e-8,            # roundtrip error gate
      "tol_pos": 1e-10              # relative positivity gate for spectra, in (0, 1)
    }

Builder specs are documented in ``builders``.  Complex values appear
neither in configs nor in reports.

A file nesting deeper than ``MAX_JSON_NESTING`` (the deepest valid config
nests 11) is refused undecoded: the decoder shares the caller's recursion limit.

A config whose generator and averager fiber stacks, ``(N + M) * L**2``
complex values of 16 bytes, would exceed ``MAX_FIBER_BYTES`` is refused
before anything is allocated.  M counts only when averagers are given;
otherwise the generators' stack is reused.  The cap admits L = 1005 with
N + M = 16; a roundtrip's peak memory is a small multiple of the stacks.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass

from .builders import spec_uses_rng, validate_builder_spec
from .errors import ConfigError
from .frames import DEFAULT_TOL_FACTOR

__all__ = ["ExperimentConfig", "parse_config", "load_config", "config_echo"]

MAX_JSON_NESTING = 32
MAX_FIBER_BYTES = 2 ** 28  # 256 MiB
# a JSON string, escapes included, or one bracket
_JSON_TOKEN = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"|[][{}]')

_TOP_KEYS = {"L", "lattice", "generators", "averagers", "seed", "c_matrix",
             "tolerance", "tol_pos"}


@dataclass(frozen=True)
class ExperimentConfig:
    L: int
    a: int
    b: int
    generators: tuple[dict, ...]
    averagers: tuple[dict, ...] | None
    seed: int | None
    c_matrix: str
    tolerance: float
    tol_pos: float


def _positive_finite(data: dict, name: str, default: float) -> float:
    """A positive finite float; JSON reads 1e400 as inf and huge integer literals exactly."""
    value = data.get(name, default)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        value = float(value) if abs(value) < 2 ** 1024 else math.inf
        if math.isfinite(value) and value > 0:
            return value
    raise ConfigError("must be a positive finite number", field=name)


def parse_config(data) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("top level must be a JSON object")
    extra = set(data) - _TOP_KEYS
    if extra:
        raise ConfigError(f"unknown top-level keys {sorted(extra)}")

    L = data.get("L")
    if not isinstance(L, int) or isinstance(L, bool):
        raise ConfigError("must be an integer", field="L")
    if L < 3 or L % 2 == 0:
        raise ConfigError(f"must be odd and >= 3, got {L}", field="L")

    lattice = data.get("lattice")
    if not isinstance(lattice, dict) or set(lattice) != {"a", "b"}:
        raise ConfigError("must be an object {\"a\": ..., \"b\": ...}", field="lattice")
    steps = {}
    for name in ("a", "b"):
        v = lattice[name]
        if not isinstance(v, int) or isinstance(v, bool) or v < 1 or L % v != 0:
            raise ConfigError(f"must be a positive divisor of L={L}, got {v!r}",
                              field=f"lattice.{name}")
        steps[name] = v

    gens = data.get("generators")
    if not isinstance(gens, list) or not gens:
        raise ConfigError("must be a non-empty list of builder specs", field="generators")
    gens = tuple(validate_builder_spec(s, L, field=f"generators[{i}]")
                 for i, s in enumerate(gens))

    avgs = data.get("averagers")
    if avgs is not None:
        if not isinstance(avgs, list) or not avgs:
            raise ConfigError("must be a non-empty list of builder specs", field="averagers")
        avgs = tuple(validate_builder_spec(s, L, field=f"averagers[{i}]")
                     for i, s in enumerate(avgs))
        if len(avgs) < len(gens):
            raise ConfigError(
                f"need at least as many averagers as generators (M >= N), got M={len(avgs)}, N={len(gens)}",
                field="averagers")

    fiber_bytes = (len(gens) + len(avgs or ())) * L * L * 16
    if fiber_bytes > MAX_FIBER_BYTES:
        raise ConfigError(f"L={L} needs {fiber_bytes} bytes of fiber stacks "
                          f"((N + M) * L^2 * 16), above the cap of {MAX_FIBER_BYTES}", field="L")

    seed = data.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)
                             or not (0 <= seed < 2**64)):
        raise ConfigError("must be an unsigned 64-bit integer", field="seed")

    c_matrix = data.get("c_matrix", "zero")
    if c_matrix not in ("zero", "random"):
        raise ConfigError(f"must be 'zero' or 'random', got {c_matrix!r}", field="c_matrix")

    tolerance = _positive_finite(data, "tolerance", 1e-8)
    tol_pos = _positive_finite(data, "tol_pos", DEFAULT_TOL_FACTOR)
    if tol_pos >= 1:
        raise ConfigError(f"must be below 1, since no gate alpha > tol_pos * beta with "
                          f"alpha <= beta can pass otherwise; got {tol_pos!r}", field="tol_pos")

    specs = gens + (avgs or ())
    if seed is None and (c_matrix == "random" or any(spec_uses_rng(s) for s in specs)):
        raise ConfigError("a seed is required whenever a random builder or "
                          "c_matrix='random' is used", field="seed")
    return ExperimentConfig(L=L, a=steps["a"], b=steps["b"], generators=gens,
                            averagers=avgs, seed=seed, c_matrix=c_matrix,
                            tolerance=tolerance, tol_pos=tol_pos)


def _nests_too_deep(text: str) -> bool:
    """Whether objects and arrays in the JSON text nest deeper than MAX_JSON_NESTING."""
    if text.count("{") + text.count("[") <= MAX_JSON_NESTING:
        return False  # fewer openings than the cap bound the depth
    steps = ((token in "{[") - (token in "}]") for token in _JSON_TOKEN.findall(text))
    return max(itertools.accumulate(steps)) > MAX_JSON_NESTING


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if _nests_too_deep(text):
            raise ConfigError(f"config file {path} nests objects and arrays more than "
                              f"{MAX_JSON_NESTING} levels deep")
        data = json.loads(text)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except UnicodeDecodeError as exc:  # not UTF-8
        raise ConfigError(f"cannot decode config file {path}: {exc}")
    return parse_config(data)


def config_echo(cfg: ExperimentConfig) -> dict:
    """Canonical JSON-ready form; parse(config_echo(parse(x))) == parse(x)."""
    out = {
        "L": cfg.L,
        "lattice": {"a": cfg.a, "b": cfg.b},
        "generators": [dict(s) for s in cfg.generators],
    }
    if cfg.averagers is not None:
        out["averagers"] = [dict(s) for s in cfg.averagers]
    if cfg.seed is not None:
        out["seed"] = cfg.seed
    out["c_matrix"] = cfg.c_matrix
    out["tolerance"] = cfg.tolerance
    out["tol_pos"] = cfg.tol_pos
    return out
