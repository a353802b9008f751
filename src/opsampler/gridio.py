"""CSV export formats for phase-space diagnostics.

Three row layouts, all with 17-significant-digit floats:

* full phase-space grids (Weyl symbols, trace transforms):
  header ``x,omega,re,im``, rows row-major in (x, omega);
* dual-grid scalars (periodizations): header ``xi_index,value``;
* transfer matrices: header ``xi_index,m,n,re,im``, rows ordered by
  xi, then m, then n (0-based channel indices).
"""

from __future__ import annotations

import math

import numpy as np

from .report import format_float

__all__ = ["write_phase_grid", "read_phase_grid", "write_dual_values", "write_transfer"]


def _check_finite(values: np.ndarray) -> None:
    """Refuse NaN/Inf, checked once per array.

    Raises the ``ValueError`` that ``format_float`` raises for the first
    non-finite float in write order (re before im).
    """
    if np.isfinite(values).all():
        return
    if np.iscomplexobj(values):
        values = np.stack([values.real, values.imag], axis=-1)
    flat = np.ravel(values)
    format_float(flat[np.argmax(~np.isfinite(flat))])


def _write_blocks(fh, blocks, keys) -> None:
    """One ``%`` template per call: block i becomes the lines ``i,<key>,re,im``.

    ``%.17g`` formats a float exactly as ``format(x, ".17g")`` does.
    """
    template = "".join(["%%d,%s,%%.17g,%%.17g\n" % key for key in keys])
    fields = [0] * (3 * len(keys))
    for i, block in enumerate(blocks):
        fields[0::3] = [i] * len(keys)
        fields[1::3] = block.real.tolist()
        fields[2::3] = block.imag.tolist()
        fh.write(template % tuple(fields))


def write_phase_grid(path, F) -> None:
    F = np.asarray(F, dtype=complex)
    _check_finite(F)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,omega,re,im\n")
        _write_blocks(fh, F, range(F.shape[1]))


def read_phase_grid(path, L: int) -> np.ndarray:
    """Read back what ``write_phase_grid`` wrote, bit for bit; anything it
    cannot have written is a ``ValueError`` naming the file (and line)."""
    out = np.zeros((L, L), dtype=complex)
    seen = np.zeros((L, L), dtype=bool)
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "x,omega,re,im":
            raise ValueError(f"unexpected header {header!r} in {path}")
        for lineno, line in enumerate(fh, start=2):
            where = f"{path}, line {lineno}"
            try:
                xs, ws, re, im = line.strip().split(",")
                x, w, r, i = int(xs), int(ws), float(re), float(im)
            except ValueError:
                raise ValueError(f"{where}: expected x,omega,re,im, got {line.strip()!r}") from None
            if not (0 <= x < L and 0 <= w < L):
                raise ValueError(f"{where}: cell ({x}, {w}) is outside the {L}x{L} grid")
            if seen[x, w]:
                raise ValueError(f"{where}: cell ({x}, {w}) is listed twice")
            if not (math.isfinite(r) and math.isfinite(i)):
                raise ValueError(f"{where}: non-finite value {re},{im}")
            seen[x, w] = True
            out[x, w] = complex(r, i)
    if not seen.all():
        raise ValueError(f"expected {L * L} rows in {path}, found {int(seen.sum())}")
    return out


def write_dual_values(path, values) -> None:
    values = np.asarray(values, dtype=float)
    _check_finite(values)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("xi_index,value\n")
        fh.write("".join([f"{i},{v:.17g}\n" for i, v in enumerate(values.tolist())]))


def write_transfer(path, values) -> None:
    """values: (size, M, N) complex array of per-dual-index matrices."""
    values = np.asarray(values, dtype=complex)
    _check_finite(values)
    size, M, N = values.shape
    channels = [f"{m},{n}" for m in range(M) for n in range(N)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("xi_index,m,n,re,im\n")
        _write_blocks(fh, values.reshape(size, M * N), channels)
