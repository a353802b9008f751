"""Deterministic JSON serialization for run reports.

Floats are written with 17 significant digits so that values round-trip
bit-exactly and reports for identical (config, seed) pairs are
byte-identical (timing aside).  Complex numbers become [re, im] pairs.
Key order is the insertion order of the dicts built by the runner, which
is fixed.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii

__all__ = ["canonical_json", "format_float"]


def format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite value {x!r} must not reach a report")
    return format(float(x), ".17g")


def _encode(obj, parts: list[str]) -> None:
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        parts.append(format_float(obj))
    elif isinstance(obj, complex):
        parts.append(f"[{format_float(obj.real)}, {format_float(obj.imag)}]")
    elif isinstance(obj, str):
        parts.append(encode_basestring_ascii(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                parts.append(", ")
            if not isinstance(k, str):
                raise TypeError(f"report keys must be strings, got {k!r}")
            parts.append(encode_basestring_ascii(k))
            parts.append(": ")
            _encode(v, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, v in enumerate(obj):
            if i:
                parts.append(", ")
            _encode(v, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def canonical_json(obj) -> str:
    parts: list[str] = []
    _encode(obj, parts)
    parts.append("\n")
    return "".join(parts)
