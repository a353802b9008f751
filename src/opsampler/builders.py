"""Test-fixture operator builders used by the experiment harness.

Each builder spec names a construction recipe for a generator or
averaging operator, and ``build_operator`` writes the operator into the
caller's stack slot as the ``(|Lambda|, a*b)`` adjoint-coset fibers of
its trace transform (see ``lattice``), the one form every later stage
reads.  No builder forms an operator kernel or a second fiber array.
The rank-one kinds (delta_pair, boxcar, periodized_gaussian,
random_signal_pair) transform their two signals straight into the slot
(``weyl.rank_one_fibers``).  ``random_hs`` draws its fibers directly, in
one ``rand_complex`` call into the slot: the trace transform is unitary,
so an i.i.d. standard complex Gaussian kernel has i.i.d. standard
complex Gaussian fibers.  ``whitened`` builds its inner operator into
the slot and whitens it there.  Deterministic kinds never touch the
random stream; random kinds consume it in a documented order, so a fixed
seed reproduces every operator.

A periodized Gaussian needs a width whose square is a positive finite
float (else its signal is NaN or overflows) and at most ``MAX_WRAPS``
wraps on each side: the wrap loop runs 2*wraps + 1 times, and beyond 3
wraps the tail is already below 1e-15 for width <= L/3.

A whitened spec nests at most ``MAX_WHITENED_NESTING`` whitened levels.
Whitening twice is whitening once, since the coset power of whitened
fibers is already flat, and the validation and the build recurse once
per level.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .lattice import Lattice, _fiber_slot
from .sampling import whiten_generator
from .weyl import rank_one_fibers

__all__ = ["BUILDER_KINDS", "build_operator", "rand_complex", "spec_uses_rng",
           "validate_builder_spec"]

MAX_WRAPS = 100
MAX_WHITENED_NESTING = 8

BUILDER_KINDS = (
    "delta_pair",
    "boxcar",
    "periodized_gaussian",
    "random_signal_pair",
    "random_hs",
    "whitened",
)


def rand_complex(rng: np.random.Generator, shape, out: np.ndarray | None = None) -> np.ndarray:
    """Standard complex Gaussian draws of ``shape``, unit variance per entry,
    written into ``out`` (a complex array of that shape) when it is given.

    All real parts are drawn first, then all imaginary parts, each into one
    real half-buffer and scaled by ``1/sqrt(2)`` straight into its half of
    ``out``: bit for bit ``(re + 1j*im) / sqrt(2)``, which numpy computes as
    a multiply by ``1/sqrt(2)``.  The peak is the output plus one real half.
    """
    if out is None:
        out = np.empty(shape, dtype=complex)
    half = np.empty(out.shape)
    scale = 1.0 / np.sqrt(2.0)
    for part in (out.real, out.imag):
        rng.standard_normal(out=half)
        np.multiply(half, scale, out=part)
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
        depth, link = 1, inner
        while isinstance(link, dict) and link.get("kind") == "whitened":
            depth, link = depth + 1, link.get("inner")
        if depth > MAX_WHITENED_NESTING:
            raise ConfigError(f"{depth} nested whitened levels; at most {MAX_WHITENED_NESTING} "
                              f"(whitening twice is whitening once)", field=field)
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
    # a width below about 1e-152 overflows the exponent to -inf: exp(-inf) = 0
    with np.errstate(over="ignore"):
        for k in range(-wraps, wraps + 1):
            g += np.exp(-np.pi * (t - center + k * L) ** 2 / width**2)
    return g.astype(complex)


def build_operator(spec: dict, lat: Lattice, rng: np.random.Generator | None,
                   out: np.ndarray) -> np.ndarray:
    """Materialize one validated builder spec as the (|Lambda|, a*b) fibers of
    its operator's trace transform, written into ``out`` (a C-contiguous
    complex array of that shape: a slot of a fiber stack) and returned.
    Any other ``out`` is refused with a ``ValueError`` before anything is
    drawn or written."""
    _fiber_slot(out, lat)
    L = lat.L
    kind = spec["kind"]
    if rng is None and spec_uses_rng(spec):
        raise ConfigError("random builder requires a seed")
    if kind == "random_hs":
        return rand_complex(rng, (lat.size, lat.a * lat.b), out=out)
    if kind == "whitened":
        return whiten_generator(build_operator(spec["inner"], lat, rng, out), lat)
    if kind == "delta_pair":
        u, v = _delta(L, spec["t1"]), _delta(L, spec["t2"])
    elif kind == "boxcar":
        u = v = (np.arange(L) < spec["width"]).astype(complex)
    elif kind == "periodized_gaussian":
        u = v = _periodized_gaussian(L, spec["width"], spec["wraps"], spec["center"])
    elif kind == "random_signal_pair":
        u, v = rand_complex(rng, L), rand_complex(rng, L)
    else:
        raise ConfigError(f"unknown builder kind {kind!r}")
    return rank_one_fibers(u, v, lat, out=out)
