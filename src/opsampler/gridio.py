"""CSV export formats for phase-space diagnostics.

Three row layouts, all with floats written exactly as ``'%.17g' % v``:

* full phase-space grids (Weyl symbols, trace transforms):
  header ``x,omega,re,im``, rows row-major in (x, omega);
* dual-grid scalars (periodizations): header ``xi_index,value``;
* transfer matrices: header ``xi_index,m,n,re,im``, rows ordered by
  xi, then m, then n (0-based channel indices).

The writers format whole arrays at once, ``_CHUNK`` rows at a time, and
reproduce ``'%.17g'`` byte for byte, in float64 and int64 arithmetic
that is the same on every platform.  For a finite nonzero ``x`` with
``a = |x|``:

1. ``E = floor(log10(a))``, possibly off by one, and ``y = a * 10**(16 - E)``
   as the double-double ``p + t``.  ``10**k`` is the table pair
   ``_PH + _PL``: ``_PH`` is the correctly rounded power and ``_PL`` the
   correctly rounded remainder, so the pair is within ``2**-106``
   relative of ``10**k``.  ``p = fl(a * _PH)``, and ``t`` is Dekker's
   exact error of that product (``a`` split by clearing its low 27 bits,
   ``_PH`` by Veltkamp's method) plus ``a * _PL``.  For ``y <= 1e17`` the
   table, ``a * _PL`` and the sum in ``t`` each err by less than
   ``2e-15``, so ``|p + t - y| < 6e-15``; ``|t| < 20``, and ``p`` is an
   integer since ``y > 2**53``.
2. Where ``p`` is within 64 of ``[1e16, 1e17)`` or outside it (rare:
   ``E`` was off, or ``y`` is near a decade's end), ``h = fl(p + t)``
   and ``l = p + t - h`` decide the decade exactly: ``y >= 1e17`` iff
   ``h > 1e17`` or (``h == 1e17`` and ``l >= 0``), and ``y < 1e16`` iff
   ``h < 1e16`` or (``h == 1e16`` and ``l < 0``).  ``E`` moves by one,
   ``y`` is formed again, and a significand that rounds up to ``10**17``
   becomes ``10**16`` with ``E + 1`` (``t`` keeps its fraction for
   step 3).
3. ``D = p + rint(t)`` is then the correctly rounded 17-digit
   significand, unless ``t`` is within ``2**-40`` of a half-integer.
   Those values (exact ties among them, so round-half-even stays
   Python's) are formatted by ``'%.17g'``, and so are those with
   ``|E| > 280``, where the products would leave float64's normal
   range.  Standard normals almost never fall back.
4. int64 floor division by ``10**8``, then by ``10**4``, splits ``D``
   into the first digit and four groups of four digits; the remainders
   are ``D - q * 10**8`` and the like, since numpy vectorizes ``//`` by
   a constant but not ``%``.
5. The layout is ``%g``'s: scientific ``d.ddde+XX`` or ``d.ddde-XX`` when
   ``E < -4`` or ``E >= 17``, fixed otherwise (``0.`` and ``-E - 1``
   zeros in front when ``E < 0``); trailing fraction zeros go, and the
   point with them, but never integer digits, so the digits kept are an
   int8 maximum over the groups and the notation's minimum; the sign
   comes from ``signbit`` (``-0``).

Each row is a fixed-width ``uint64`` record.  Its index fields, each
with its comma, are gathered from per-axis tables of words, built once
per file from ``range(size)``.  Its floats take six words each,
assembled for a chunk in one ``(6, n)`` array, a contiguous row per
word, and copied into the rows at once: the sign, leading ``0.000`` and
first digit; four words of four digits, each digit followed by a point
slot; and the exponent with the field's separator.  Unused bytes are
NUL and ``bytes.translate`` drops them, so nothing is shifted.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

__all__ = ["write_phase_grid", "write_dual_values", "write_transfer"]

_CHUNK = 1024  # rows formatted at once; bounds the writers' temporaries
_EMIN = -324  # nonzero float64 have decimal exponents -324 .. 308
_EMAX = 280  # values with |E| above it are formatted by '%.17g'


def _power_of_ten(k: int) -> tuple[float, float]:
    """``10**k`` correctly rounded and the remainder ``10**k - h`` correctly
    rounded, from Python ints: int to float and int/int true division round
    correctly, and scaling by a power of two is exact."""
    if k >= 0:
        h = float(10**k)
        return h, float(10**k - int(h))
    d = 10**-k
    h = 1 / d
    hn, hd = h.as_integer_ratio()  # hd = 2**m
    return h, math.ldexp((hd - hn * d) / d, 1 - hd.bit_length())


# by E - _EMIN, E = -324 .. 308: _PH, its Veltkamp halves and _PL for
# 10**(16 - E); zeros for |E| > _EMAX + 1, which no product reads
_ph, _pl = np.zeros((2, 633))
_rows = slice(-_EMAX - 1 - _EMIN, _EMAX + 2 - _EMIN)
_ph[_rows], _pl[_rows] = np.array([_power_of_ten(16 - E) for E in range(-_EMAX - 1, _EMAX + 2)]).T
_phh = _ph * 134217729.0  # 2**27 + 1
_phh -= _phh - _ph
_PTAB = np.array([_ph, _phh, _ph - _phh, _pl])
_HIGH26 = np.uint64(2**64 - 2**27)  # clears the low 27 of a float64's 52 fraction bits

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
_GROUP_AT = np.array([[1], [5], [9], [13]], np.int8)  # the digits in front of each group
# masks of an index group of four digits by the number shown, then the last group's with ","
_SHOW = np.array([sum(0xFF << 16 * p for p in range(4 - s, 4)) for s in range(5)], np.uint64)
_SHOW_LAST = np.array([int(_SHOW[max(s, 1)]) | ord(",") << 56 for s in range(5)], np.uint64)
_TENS = np.array([1, 10, 100, 1000])

# by E - _EMIN, E = -324 .. 308: fixed notation for -4 <= E <= 16, at index 320 .. 340
_KMIN = np.ones(633, np.int8)  # fixed notation keeps every integer digit
_KMIN[324:341] = np.arange(1, 18)
_POINT18 = np.full(633, 0, np.intp)  # 18 * the digit a point follows; 18 * 17: none
_POINT18[320:324] = 18 * 17
_POINT18[324:341] = np.arange(0, 18 * 17, 18)
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
# the word masks by 18 * point + k: keep digits below k, write "." after the point digit if one follows
_cut = np.zeros((18, 18, 17, 2), np.uint8)  # [point, k, digit, (mask, slot)]
for _p in range(17):
    _cut[:, _p + 1:, _p, 0] = 0xFF
    _cut[_p, _p + 2:, _p, 1] = ord(".")
_cut = _cut.reshape(324, 34)
_cut0 = np.zeros((324, 8), np.uint8)
_cut0[:, 7] = _cut[:, 1]
_CUT0 = _cut0.view(np.uint64).ravel()
_CUT4 = np.array([_cut[:, 2 + 8 * j: 10 + 8 * j].copy().view(np.uint64).ravel() for j in range(4)])
_SEPS = np.array([ord(",") << 56, ord("\n") << 56], np.uint64)  # ends a row's inner, last float field
del _rows, _ph, _pl, _phh, _g8, _nsig, _p, _at, _e, _lead, _exp, _cut, _cut0


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


def _scale(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(p, t)``: ``p + t = a * 10**(16 - E)`` for the table rows ``e = E - _EMIN``."""
    ah = (a.view(np.uint64) & _HIGH26).view(np.float64)
    al = a - ah
    ph, phh, phl, pl = np.take(_PTAB, e, axis=1)
    p = a * ph
    t = ah * phh  # ah * phh + al * phh + ah * phl + al * phl - p is exact, in this order
    t -= p
    t += al * phh
    t += ah * phl
    t += al * phl
    t += a * pl
    return p, t


def _significand(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Steps 1 to 3 for the finite floats ``x``: the table rows ``e = E - _EMIN``,
    the significands ``D`` and where ``'%.17g'`` must format instead."""
    a = np.abs(x)
    np.maximum(a, 5e-324, out=a)  # a zero reads a table row of zeros: p = 0
    e = (np.log10(a) - _EMIN).astype(np.intp)  # a positive sum: truncation is floor
    p, t = _scale(a, e)
    off = (p < 1e16 + 64) | (p > 1e17 - 64)
    if off.any():
        _settle(np.flatnonzero(off), x, a, e, p, t)
    n = np.rint(t)
    unsure = np.abs(t - n) > 0.5 - 2.0**-40
    D = p.astype(np.int64)
    D += n.astype(np.int64)
    return e, D, unsure


def _format17(out: np.ndarray, x: np.ndarray, sep: np.ndarray) -> int:
    """Write the finite floats ``x`` (shape ``(n,)``) as ``'%.17g'`` into the
    six words per value, ``out[:, i]`` (``out`` a C-contiguous ``(6, n)``
    array), the separators ``sep`` (shape ``(n,)``) in the last byte;
    return how many values Python's ``'%.17g'`` formatted."""
    e, D, unsure = _significand(x)
    g = np.empty((4, len(x)), np.intp)  # [g0, g1, g2, g3]
    np.floor_divide(D, 10**8, out=g[1])
    np.subtract(D, g[1] * 10**8, out=g[3])
    np.floor_divide(g[1::2], 10**4, out=g[0::2])
    g[1::2] -= g[0::2] * 10**4
    lead = g[0] // 10**4  # the first digit, then its row of _W0
    g[0] -= lead * 10**4
    k = (_NSIG[g] + _GROUP_AT).max(axis=0)
    np.maximum(k, _KMIN[e], out=k)
    cut = _POINT18[e]
    cut += k
    lead += e * 10
    np.bitwise_or(_W0[lead] | _CUT0[cut], np.signbit(x) * np.uint64(ord("-")), out=out[0])
    np.take(_G8, g, out=out[1:5])
    out[1:5] &= np.take(_CUT4, cut, axis=1)
    np.bitwise_or(_EXP[e], sep, out=out[5])
    idx = np.flatnonzero(unsure)
    if len(idx):
        words = np.array([b"%.17g" % v for v in x[idx].tolist()], dtype="S48").view(np.uint64).reshape(-1, 6)
        words[:, 5] |= sep[idx]
        out[:, idx] = words.T
    return len(idx)


def _settle(i: np.ndarray, x, a, e, p, t) -> None:
    """Step 2 for the values ``i``, in place on ``e``, ``p`` and ``t``.
    A zero gets ``E = 0`` and ``p = t = 0``; a value with ``|E| > _EMAX``
    gets ``p = 0`` and ``t = 0.5``, a tie, which sends it to ``'%.17g'``."""
    ei, pi, ti = e[i], p[i], t[i]
    live = pi != 0  # |E| <= _EMAX + 1
    h = pi[live] + ti[live]
    l = ti[live] - (h - pi[live])
    el = ei[live]
    el += (h > 1e17) | ((h == 1e17) & (l >= 0))
    el -= (h < 1e16) | ((h == 1e16) & (l < 0))
    pl, tl = _scale(a[i[live]], el)
    top = (pl - 1e17) + np.rint(tl) >= 0  # exact where it is near 0 (Sterbenz)
    el[top] += 1
    pl[top] = 1e16
    tl[top] -= np.rint(tl[top])
    ei[live], pi[live], ti[live] = el, pl, tl
    wild = np.abs(ei + _EMIN) > _EMAX
    pi[wild] = 0.0
    ti[wild] = 0.5
    zero = x[i] == 0
    ei[zero] = -_EMIN
    pi[zero] = ti[zero] = 0.0
    e[i], p[i], t[i] = ei, pi, ti


def _index_words(size: int) -> np.ndarray:
    """The index fields ``0 .. size - 1``, each with its comma, as rows of
    ``uint64`` words, four digits a word, right-aligned with leading zeros
    NUL."""
    i = np.arange(size)
    groups = (len(str(max(size - 1, 0))) + 3) // 4
    out = np.empty((size, groups), np.uint64)
    for j in range(groups):
        v = i // 10 ** (4 * (groups - 1 - j))
        shown = np.searchsorted(_TENS, v, side="right")  # digits of v, at most 4
        out[:, j] = _G8[v % 10000] & (_SHOW_LAST if j == groups - 1 else _SHOW)[shown]
    return out


def _write_rows(path, header: str, values: np.ndarray) -> None:
    """One row per element of ``values`` in C order: its index, then the
    value (re and im for a complex one), comma-separated."""
    shape = values.shape
    floats = np.ascontiguousarray(values).reshape(-1, 1).view(np.float64)
    n, nf = floats.shape
    tables = [_index_words(s) for s in shape]
    cols = list(itertools.accumulate([t.shape[1] for t in tables], initial=0))
    rows = min(n, _CHUNK)
    buf = np.empty((rows, cols[-1] + 6 * nf), np.uint64)
    fields = buf[:, cols[-1]:].reshape(rows, nf, 6)
    words = np.empty(6 * rows * nf, np.uint64)
    seps = np.empty((rows, nf), np.uint64)
    seps[:] = _SEPS[2 - nf:]
    seps = seps.ravel()
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, n, _CHUNK):
            m = min(_CHUNK, n - start)
            for c0, c1, i, table in zip(cols, cols[1:], np.unravel_index(np.arange(start, start + m), shape), tables):
                buf[:m, c0:c1] = table[i]
            chunk = words[:6 * m * nf].reshape(6, m * nf)
            _format17(chunk, floats[start:start + m].reshape(-1), seps[:m * nf])
            fields[:m] = chunk.reshape(6, m, nf).transpose(1, 2, 0)
            fh.write(buf[:m].tobytes().translate(None, b"\0"))


def write_phase_grid(path, F) -> None:
    F = np.asarray(F, dtype=complex)
    _check_finite(F)
    _write_rows(path, "x,omega,re,im", F)


def write_dual_values(path, values) -> None:
    values = np.asarray(values, dtype=float)
    _check_finite(values)
    _write_rows(path, "xi_index,value", values)


def write_transfer(path, values) -> None:
    """values: (size, M, N) complex array of per-dual-index matrices."""
    values = np.asarray(values, dtype=complex)
    _check_finite(values)
    _write_rows(path, "xi_index,m,n,re,im", values)
