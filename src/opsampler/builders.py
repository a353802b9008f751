"""Test-fixture operator builders used by the experiment harness.

Each builder spec names a construction recipe for a generator or
averaging operator.  Deterministic kinds (delta_pair, boxcar,
periodized_gaussian) never touch the random stream; random kinds consume
it in a documented order, so a fixed seed reproduces every operator.

A periodized Gaussian needs a width whose square is a positive finite
float (else its kernel is NaN or overflows) and at most ``MAX_WRAPS``
wraps on each side: the wrap loop runs 2*wraps + 1 times, and beyond 3
wraps the tail is already below 1e-15 for width <= L/3.
"""

from __future__ import annotations

import math

import numpy as np

from .core import rank_one
from .errors import ConfigError
from .lattice import Lattice
from .sampling import whiten_generator

__all__ = ["BUILDER_KINDS", "build_operator", "rand_complex", "spec_uses_rng",
           "validate_builder_spec"]

MAX_WRAPS = 100

BUILDER_KINDS = (
    "delta_pair",
    "boxcar",
    "periodized_gaussian",
    "random_signal_pair",
    "random_hs",
    "whitened",
)


def rand_complex(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex Gaussian draws, unit variance per entry.

    All real parts are drawn first, then all imaginary parts; the values
    are bit for bit ``(re + 1j*im) / sqrt(2)``, written into one buffer.
    """
    out = np.empty(shape, dtype=complex)
    out.real = rng.standard_normal(shape)
    out.imag = rng.standard_normal(shape)
    out /= np.sqrt(2.0)
    return out


def validate_builder_spec(spec: dict, L: int, field: str) -> dict:
    """Validate one builder spec against the modulus; returns a canonical copy."""
    if not isinstance(spec, dict):
        raise ConfigError("builder spec must be an object", field=field)
    kind = spec.get("kind")
    if kind not in BUILDER_KINDS:
        raise ConfigError(f"unknown builder kind {kind!r}; expected one of {BUILDER_KINDS}",
                          field=f"{field}.kind")
    out = {"kind": kind}
    known = {"kind"}

    def _int_in_range(name, lo, hi, default=None):
        val = spec.get(name, default)
        if val is None:
            raise ConfigError(f"missing parameter '{name}'", field=f"{field}.{name}")
        if not isinstance(val, int) or isinstance(val, bool) or not (lo <= val < hi):
            raise ConfigError(f"'{name}' must be an integer in [{lo}, {hi}), got {val!r}",
                              field=f"{field}.{name}")
        known.add(name)
        return val

    if kind == "delta_pair":
        out["t1"] = _int_in_range("t1", 0, L)
        out["t2"] = _int_in_range("t2", 0, L)
    elif kind == "boxcar":
        out["width"] = _int_in_range("width", 1, L + 1)
    elif kind == "periodized_gaussian":
        width = spec.get("width")
        # 2**1024 bounds the floats; JSON reads 1e400 as inf and huge integers exactly
        if (not isinstance(width, (int, float)) or isinstance(width, bool)
                or not 0 < width < 2 ** 1024 or not 0 < float(width) * float(width) < math.inf):
            raise ConfigError(f"'width' must be a positive number whose square is a positive "
                              f"finite float, got {width!r}", field=f"{field}.width")
        out["width"] = float(width)
        known.add("width")
        out["wraps"] = _int_in_range("wraps", 1, MAX_WRAPS + 1, default=3)
        out["center"] = _int_in_range("center", 0, L, default=0)
    elif kind == "whitened":
        inner = spec.get("inner")
        if inner is None:
            raise ConfigError("whitened spec needs an 'inner' builder", field=f"{field}.inner")
        out["inner"] = validate_builder_spec(inner, L, field=f"{field}.inner")
        known.add("inner")
    extra = set(spec) - known
    if extra:
        raise ConfigError(f"unknown parameters {sorted(extra)} for kind {kind!r}", field=field)
    return out


def spec_uses_rng(spec: dict) -> bool:
    if spec["kind"] in ("random_signal_pair", "random_hs"):
        return True
    if spec["kind"] == "whitened":
        return spec_uses_rng(spec["inner"])
    return False


def _delta(L: int, t: int) -> np.ndarray:
    out = np.zeros(L, dtype=complex)
    out[t % L] = 1.0
    return out


def _periodized_gaussian(L: int, width: float, wraps: int, center: int) -> np.ndarray:
    # tail beyond 3 wraps is < 1e-15 for width <= L/3
    t = np.arange(L, dtype=float)
    g = np.zeros(L)
    for k in range(-wraps, wraps + 1):
        g += np.exp(-np.pi * (t - center + k * L) ** 2 / width**2)
    return g.astype(complex)


def build_operator(spec: dict, lat: Lattice, rng: np.random.Generator | None) -> np.ndarray:
    """Materialize one validated builder spec as an L x L operator."""
    L = lat.L
    kind = spec["kind"]
    if kind == "delta_pair":
        return rank_one(_delta(L, spec["t1"]), _delta(L, spec["t2"]))
    if kind == "boxcar":
        u = np.zeros(L, dtype=complex)
        u[: spec["width"]] = 1.0
        return rank_one(u, u)
    if kind == "periodized_gaussian":
        g = _periodized_gaussian(L, spec["width"], spec["wraps"], spec["center"])
        return rank_one(g, g)
    if kind == "random_signal_pair":
        if rng is None:
            raise ConfigError("random builder requires a seed")
        return rank_one(rand_complex(rng, L), rand_complex(rng, L))
    if kind == "random_hs":
        if rng is None:
            raise ConfigError("random builder requires a seed")
        return rand_complex(rng, (L, L))
    if kind == "whitened":
        inner = build_operator(spec["inner"], lat, rng)
        return whiten_generator(inner, lat)
    raise ConfigError(f"unknown builder kind {kind!r}")
