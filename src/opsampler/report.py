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

__all__ = ["canonical_json"]


def canonical_json(obj) -> str:
    return json.dumps(obj, allow_nan=False) + "\n"
