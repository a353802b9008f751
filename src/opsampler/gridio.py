"""CSV export formats for phase-space diagnostics.

Three row layouts, all with floats written exactly as ``'%.17g' % v``:

* full phase-space grids (Weyl symbols, trace transforms):
  header ``x,omega,re,im``, rows row-major in (x, omega);
* dual-grid scalars (periodizations): header ``xi_index,value``;
* transfer matrices: header ``xi_index,m,n,re,im``, rows ordered by
  xi, then m, then n (0-based channel indices).

The writers format whole arrays at once, ``_CHUNK`` rows at a time, and
reproduce ``'%.17g'`` byte for byte.  For a finite nonzero ``x`` with
``a = |x|``:

1. ``E = floor(log10(a))``, possibly off by one, and ``y = a * 10**(16 - E)``
   in ``np.longdouble``, from ``_P10``, the correctly rounded powers
   ``1e-293 .. 1e341``; if ``y`` is not in ``[1e16, 1e17)``, ``E`` moves
   by one and ``y`` is formed again.
2. ``D = rint(y)`` is the 17-digit significand.  ``a`` is exact, and the
   table entry and the product each err by at most ``2**-64`` relative,
   so ``|y - a * 10**(16 - E)|`` is at most about ``1e17 * 2**-63``,
   ``0.011 < 1/64``.  Where
   ``|y - D| < 0.5 - 1/64``, ``D`` is therefore the correctly rounded
   significand.  The other values (about 3 %, exact ties among them, so
   round-half-even stays Python's) are *unsure*, and ``'%.17g'`` formats
   them.  ``D = 10**17`` becomes ``10**16`` with ``E + 1``.
3. The layout is ``%g``'s: scientific ``d.ddde+XX`` or ``d.ddde-XX`` when ``E < -4`` or
   ``E >= 17``, fixed otherwise (``0.`` and ``-E - 1`` zeros in front when
   ``E < 0``); trailing fraction zeros go, and the point with them, but
   never integer digits; the sign comes from ``signbit`` (``-0``).

Each row is a fixed-width ``uint64`` record in which a float takes six
words: sign and leading ``0.000`` with the first digit, four words of four
digits each followed by a point slot, and the exponent with the field's
separator.  Unused bytes are NUL and ``bytes.translate`` drops them, so
nothing is shifted.  Where ``np.longdouble`` has fewer than 63 fraction
bits (``_FAST`` is false) every value is unsure: the bytes are the same
on every platform, only slower.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

__all__ = ["write_phase_grid", "read_phase_grid", "write_dual_values", "write_transfer"]

_FAST = np.finfo(np.longdouble).nmant >= 63
_CHUNK = 1024  # rows formatted at once; bounds the writers' temporaries
_P10 = np.array([f"1e{k}" for k in range(-293, 342)], dtype=np.longdouble)  # _P10[k + 293] = 10**k
_EMIN = -324  # nonzero float64 have decimal exponents -324 .. 308

# Tables are filled by assignment, not arithmetic, so that importing the
# module runs few numpy loops: each new one maps more of numpy's code.
_g8 = np.full((10,) * 4 + (4, 2), 0xFF, np.uint8)  # [digits of g, digit, (ASCII, slot)]
_nsig = np.zeros((10,) * 4, np.int8)
for _p in range(4):
    _at = (slice(None),) * _p
    _g8[_at + (Ellipsis, _p, 0)] = np.arange(0x30, 0x3A, dtype=np.uint8).reshape((10,) + (1,) * (3 - _p))
    _nsig[_at + (slice(1, None),)] = _p + 1
# the four digits of g, each followed by an all-ones slot that a mask clears or makes "."
_G8 = _g8.reshape(-1, 8).view(np.uint64).ravel()
# digits a 4-digit group needs up to its last nonzero one; -16 for 0 drops it from a max
_NSIG = _nsig.ravel()
_NSIG[0] = -16
# masks of an index group of four digits by the number shown, then the last group's with ","
_SHOW = np.array([sum(0xFF << 16 * p for p in range(4 - s, 4)) for s in range(5)], np.uint64)
_SHOW_LAST = np.array([int(_SHOW[max(s, 1)]) | ord(",") << 56 for s in range(5)], np.uint64)
_TENS = np.array([1, 10, 100, 1000])

# by E - _EMIN, E = -324 .. 308: fixed notation for -4 <= E <= 16, at index 320 .. 340
_KMIN = np.ones(633, np.int64)  # fixed notation keeps every integer digit
_KMIN[324:341] = np.arange(1, 18)
_POINT = np.zeros(633, np.int64)  # the digit a point follows; 17: none
_POINT[320:324] = 17
_POINT[324:341] = np.arange(17)
# word 0 by (E, first digit): a NUL sign slot, "0." and -E-1 zeros when -4 <= E < 0, the digit
_lead = np.zeros((633, 10, 8), np.uint8)
for _e in range(-4, 0):
    _lead[_e - _EMIN, :, 1:2 - _e] = np.frombuffer(b"0.000"[:1 - _e], np.uint8)
_lead[:, :, 6] = np.arange(0x30, 0x3A)
_W0 = _lead.view(np.uint64).ravel()
# word 5 by E: "e", the sign and at least two exponent digits in scientific notation
_exp = np.zeros((633, 8), np.uint8)
_exp[:, 0] = ord("e")
_exp[:, 1] = ord("+")
_exp[:324, 1] = ord("-")
_exp[:, 2:5] = _g8[0].reshape(1000, 4, 2)[np.r_[324:0:-1, 0:309], 1:, 0]  # the digits of |E|
_exp[225:424, 2:5] = _exp[225:424, 3:6]  # |E| < 100: two digits
_exp[320:341] = 0
_EXP = _exp.view(np.uint64).ravel()
# the word masks by 18 * k + point: keep digits below k, write "." after the point digit if one follows
_cut = np.zeros((18, 18, 17, 2), np.uint8)  # [k, point, digit, (mask, slot)]
for _p in range(17):
    _cut[_p + 1:, :, _p, 0] = 0xFF
    _cut[_p + 2:, _p, _p, 1] = ord(".")
_cut = _cut.reshape(324, 34)
_CUT = [np.pad(_cut[:, 1:2], ((0, 0), (7, 0))).view(np.uint64).ravel()]
_CUT += [_cut[:, 2 + 8 * j: 10 + 8 * j].copy().view(np.uint64).ravel() for j in range(4)]
_SEPS = np.array([ord(",") << 56, ord("\n") << 56], np.uint64)  # ends a row's inner, last float field
del _g8, _nsig, _p, _at, _e, _lead, _exp, _cut


def _check_finite(values: np.ndarray) -> None:
    """Refuse NaN/Inf, checked once per array, with a ``ValueError`` naming
    the first non-finite float in write order (re before im)."""
    if np.isfinite(values).all():
        return
    if np.iscomplexobj(values):
        values = np.stack([values.real, values.imag], axis=-1)
    flat = np.ravel(values)
    x = flat[np.argmax(~np.isfinite(flat))]
    raise ValueError(f"non-finite value {x!r} must not reach a report")


def _format17(out: np.ndarray, x: np.ndarray, sep: np.ndarray) -> None:
    """Write the finite floats ``x`` as ``'%.17g'`` into the six words per
    value of ``out`` (shape ``x.shape + (6,)``), ``sep`` in the last byte."""
    unsure = True
    if _FAST:
        a = np.abs(x)
        zero = a == 0
        a[zero] = 1.0
        E = np.floor(np.log10(a)).astype(np.int64)
        a = a.astype(np.longdouble)
        y = a * _P10[309 - E]
        yh = y.astype(np.float64)  # an integer, since y > 2**53
        off = (yh <= 1e16) | (yh >= 1e17)
        if off.any():
            E[off] += (y[off] >= 1e17).astype(np.int64) - (y[off] < 1e16)
            y[off] = a[off] * _P10[309 - E[off]]
            yh[off] = y[off]
        r = (y - yh).astype(np.float64)  # exact: |r| <= 8 in steps of 2**-7
        del a, y
        n = np.rint(r)
        unsure = np.abs(r - n) >= 0.5 - 1 / 64
        D = yh.astype(np.int64) + n.astype(np.int64)
        del yh, r, n
        top = D == 10**17
        D[top] = 10**16
        E += top
        D[zero] = 0
        first = D // 10**16
        g = [D // 10 ** (12 - 4 * j) % 10**4 for j in range(4)]  # the other 16 digits, four a group
        e = E - _EMIN
        k = _KMIN[e]
        for j in range(4):
            np.maximum(k, _NSIG[g[j]] + (1 + 4 * j), out=k)
        cut = k * 18 + _POINT[e]
        out[..., 0] = _W0[e * 10 + first] | _CUT[0][cut] | np.signbit(x) * np.uint64(ord("-"))
        for j in range(4):
            out[..., 1 + j] = _G8[g[j]] & _CUT[1 + j][cut]
        out[..., 5] = _EXP[e] | sep
    idx = np.nonzero(np.broadcast_to(unsure, x.shape))
    if len(idx[0]):
        words = np.array([b"%.17g" % v for v in x[idx].tolist()], dtype="S48").view(np.uint64).reshape(-1, 6)
        words[:, 5] |= np.broadcast_to(sep, x.shape)[idx]
        out[idx] = words


def _put_index(out: np.ndarray, i: np.ndarray) -> None:
    """Write the integers ``i`` and a comma into the ``uint64`` columns of
    ``out``, four digits a column, right-aligned with leading zeros NUL."""
    groups = out.shape[1]
    for j in range(groups):
        v = i // 10 ** (4 * (groups - 1 - j))
        shown = np.searchsorted(_TENS, v, side="right")  # digits of v, at most 4
        out[:, j] = _G8[v % 10000] & (_SHOW_LAST if j == groups - 1 else _SHOW)[shown]


def _write_rows(path, header: str, values: np.ndarray) -> None:
    """One row per element of ``values`` in C order: its index, then the
    value (re and im for a complex one), comma-separated."""
    shape = values.shape
    floats = np.ascontiguousarray(values).reshape(-1, 1).view(np.float64)
    n, nf = floats.shape
    cols = list(itertools.accumulate([(len(str(max(s - 1, 0))) + 3) // 4 for s in shape], initial=0))
    buf = np.zeros((min(n, _CHUNK), cols[-1] + 6 * nf), np.uint64)
    fields = buf[:, cols[-1]:].reshape(len(buf), nf, 6)
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, n, _CHUNK):
            m = min(_CHUNK, n - start)
            for c0, c1, i in zip(cols, cols[1:], np.unravel_index(np.arange(start, start + m), shape)):
                _put_index(buf[:m, c0:c1], i)
            _format17(fields[:m], floats[start:start + m], _SEPS[2 - nf:])
            fh.write(buf[:m].tobytes().translate(None, b"\0"))


def write_phase_grid(path, F) -> None:
    F = np.asarray(F, dtype=complex)
    _check_finite(F)
    _write_rows(path, "x,omega,re,im", F)


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
    _write_rows(path, "xi_index,value", values)


def write_transfer(path, values) -> None:
    """values: (size, M, N) complex array of per-dual-index matrices."""
    values = np.asarray(values, dtype=complex)
    _check_finite(values)
    _write_rows(path, "xi_index,m,n,re,im", values)
