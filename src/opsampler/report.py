"""Deterministic JSON serialization for run reports.

A report is ``json.dumps`` of the dicts the runner builds.  Floats are
written as Python's shortest round-trip ``repr``, so values round-trip
bit-exactly and reports for identical (config, seed) pairs are
byte-identical (timing aside); NaN and infinity are refused with a
``ValueError``.  Key order is the insertion order of the runner's dicts,
which is fixed.
"""

from __future__ import annotations

import json
import math

__all__ = ["canonical_json", "format_float"]


def format_float(x: float) -> str:
    """A finite float with 17 significant digits, as the CSV diagnostics write it."""
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite value {x!r} must not reach a report")
    return format(float(x), ".17g")


def canonical_json(obj) -> str:
    return json.dumps(obj, allow_nan=False) + "\n"
