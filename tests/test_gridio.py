import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsampler import gridio
from opsampler.gridio import write_dual_values, write_phase_grid, write_transfer
from oracles import read_phase_grid

# ---------------------------------------------------- per-value oracle writers


def _g17(x) -> str:
    """One value as the writers format it, ``format(x, ".17g")``; a
    non-finite value is refused with the writers' message."""
    if not np.isfinite(x):
        raise ValueError(f"non-finite value {x!r} must not reach a report")
    return format(x, ".17g")


def oracle_phase_grid(path, F):
    F = np.asarray(F, dtype=complex)
    L = F.shape[0]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,omega,re,im\n")
        for x in range(L):
            for w in range(L):
                v = F[x, w]
                fh.write(f"{x},{w},{_g17(v.real)},{_g17(v.imag)}\n")


def oracle_dual_values(path, values):
    values = np.asarray(values, dtype=float)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("xi_index,value\n")
        for i, v in enumerate(values):
            fh.write(f"{i},{_g17(v)}\n")


def oracle_transfer(path, values):
    values = np.asarray(values, dtype=complex)
    size, M, N = values.shape
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("xi_index,m,n,re,im\n")
        for xi in range(size):
            for m in range(M):
                for n in range(N):
                    v = values[xi, m, n]
                    fh.write(f"{xi},{m},{n},{_g17(v.real)},{_g17(v.imag)}\n")


EXTREMES = [-0.0, 1e300, -1e300, 1e-300, -1e-300, 5e-324, 0.1, 1.0 / 3.0, 2.0**53 + 1]


def _values(shape, seed):
    rng = np.random.default_rng(seed)
    out = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
    flat = out.reshape(-1)
    flat[: len(EXTREMES)] = EXTREMES
    return out


def _complex_values(shape, seed):
    re, im = _values(shape, seed), _values(shape, seed + 1)
    out = re + 1j * im
    out.reshape(-1)[len(EXTREMES)] = complex(-0.0, -0.0)
    return out


CASES = {
    "phase_grid": (write_phase_grid, oracle_phase_grid, lambda: _complex_values((15, 15), 1)),
    "dual_values": (write_dual_values, oracle_dual_values, lambda: _values((45,), 2)),
    "transfer": (write_transfer, oracle_transfer, lambda: _complex_values((9, 3, 2), 3)),
    # several chunks of rows each, the dual indices past four digits
    "phase_grid_chunked": (write_phase_grid, oracle_phase_grid, lambda: _complex_values((47, 47), 7)),
    "dual_values_chunked": (write_dual_values, oracle_dual_values, lambda: _values((10007,), 8)),
    "transfer_chunked": (write_transfer, oracle_transfer, lambda: _complex_values((401, 3, 2), 9)),
    # two-digit channel indices
    "transfer_wide": (write_transfer, oracle_transfer, lambda: _complex_values((7, 12, 10), 11)),
}


@pytest.mark.parametrize("kind", sorted(CASES))
def test_writers_match_per_value_loop_byte_for_byte(tmp_path, kind):
    writer, oracle, make = CASES[kind]
    values = make()
    writer(tmp_path / "new.csv", values)
    oracle(tmp_path / "old.csv", values)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("kind", sorted(k for k in CASES if k.endswith("_chunked")))
def test_chunked_cases_span_several_chunks(kind):
    assert CASES[kind][2]().size > 2 * gridio._CHUNK  # one row per value


# Values the fast path leaves to '%.17g': |E| > 280 (among them subnormals
# and the extremes), values near a decade's end (powers of ten among them)
# and exact ties of the 17-digit rounding, which round half to even
# (12345678901234562.5 * 10**-1 is 1234567890123456.2).
FALLBACK = [1e300, -1.7976931348623157e308, 1e-290, -2.5e-310, 5e-324,
            1.0, -1e22, 0.99999999999999989, 1.0000000000000001e-07,
            1234567890123456.25, -1234567890123456.75, 123456789012345.125,
            1 + 2.0**-17, -(0.5 + 2.0**-18)]


@pytest.mark.parametrize("kind", sorted(CASES))
def test_writers_send_unsettled_values_to_percent_17g(tmp_path, kind):
    writer, oracle, make = CASES[kind]
    values = make()
    flat = values.reshape(-1)
    where = np.linspace(0, flat.size - 1, len(FALLBACK)).astype(int)
    flat[where] = np.array(FALLBACK) - 1j * np.array(FALLBACK[::-1]) if np.iscomplexobj(values) else FALLBACK
    writer(tmp_path / "new.csv", values)
    oracle(tmp_path / "old.csv", values)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_fallback_values_go_to_percent_17g():
    assert _format_count(FALLBACK) == len(FALLBACK)
    assert format(1234567890123456.25, ".17g") == "1234567890123456.2"


def test_standard_normals_almost_never_fall_back():
    """Nor do zeros, so zero-heavy exports stay vectorized."""
    values = np.random.default_rng(23).standard_normal(10**5)
    assert _format_count(values) <= 10
    assert _format_count(np.tile([0.0, -0.0], 5000)) == 0


def test_phase_grid_writer_temporaries_do_not_grow_with_the_grid(traced_peak):
    """The rows are formatted a chunk at a time: at L = 255 (65025 rows) the
    writer peaks at about 360 KB, while index fields for the whole grid
    alone would take 1 MB."""
    F = _complex_values((255, 255), 10)
    _, peak = traced_peak(write_phase_grid, "/dev/null", F)
    assert peak < 768 * 1024


@pytest.mark.parametrize("kind", sorted(CASES))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_writers_refuse_non_finite_values(tmp_path, kind, bad):
    writer, oracle, make = CASES[kind]
    values = make()
    flat = values.reshape(-1)
    flat[-1] = bad
    if np.iscomplexobj(values):
        flat[-2] = complex(1.0, -bad)  # the first offender in row order is an imaginary part
    with pytest.raises(ValueError, match="non-finite value") as new:
        writer(tmp_path / "new.csv", values)
    with pytest.raises(ValueError) as old:
        oracle(tmp_path / "old.csv", values)
    assert str(new.value) == str(old.value)


def test_phase_grid_round_trip_is_bit_exact(tmp_path):
    F = _complex_values((15, 15), 4)
    zeros = [0.0, -0.0]
    for i, (re, im) in enumerate([(r, m) for r in zeros for m in zeros] + [(-0.0, 2.5), (2.5, -0.0)]):
        F[i, 0] = complex(re, im)
    write_phase_grid(tmp_path / "grid.csv", F)
    back = read_phase_grid(tmp_path / "grid.csv", 15)
    assert back.tobytes() == F.tobytes()


def _replace_fields(lineno, **fields):
    """Edit: rewrite some fields (x, omega, re, im; None drops one) of one line."""
    names = ("x", "omega", "re", "im")

    def edit(lines):
        row = dict(zip(names, lines[lineno - 1].rstrip("\n").split(",")), **fields)
        return ",".join(row[k] for k in names if row[k] is not None) + "\n"
    return lineno, edit


# Defects a 3x3 grid file can have; line 1 is the header, cell (x, w) is
# written on line 2 + 3*x + w.
MALFORMED = {
    "negative_index": _replace_fields(8, x="-1"),          # cell (2, 0) as row -1
    "index_beyond_grid": _replace_fields(5, x="3"),        # cell (1, 0) as row 3
    "cell_listed_twice": (10, lambda lines: lines[1]),     # (0, 0) again, (2, 2) left out
    "nan_value": _replace_fields(6, re="nan"),
    "three_fields": _replace_fields(4, im=None),
}


@pytest.mark.parametrize("defect", sorted(MALFORMED))
def test_read_phase_grid_refuses_malformed_rows(tmp_path, defect):
    path = tmp_path / "grid.csv"
    write_phase_grid(path, _values((3, 3), 5) + 1j * _values((3, 3), 6))
    lines = path.read_text().splitlines(keepends=True)
    lineno, edit = MALFORMED[defect]
    lines[lineno - 1] = edit(lines)
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match=re.escape(f"{path}, line {lineno}: ")):
        read_phase_grid(path, 3)


# ------------------------------------------------------------- the formatter


def _format_words(values):
    """``gridio._format17``'s words for ``values`` and the number of values
    it sent to ``'%.17g'``."""
    x = np.asarray(values, dtype=float)
    out = np.zeros((6, len(x)), np.uint64)
    return out.T, gridio._format17(out, x, np.zeros(len(x), np.uint64))


def _formatted(values):
    """Each value as ``gridio._format17`` writes it."""
    return _decoded(_format_words(values)[0])


def _decoded(out):
    return [row.tobytes().translate(None, b"\0").decode() for row in out]


def _format_count(values):
    return _format_words(values)[1]


def _near_carry(E):
    """The doubles nearest ``(10**17 - j) * 10**(E - 16)``, j = 1 .. 8: 17
    nines down to ...92, whose significands round up across the decade or
    stop just short of it."""
    return [float((10**17 - j) * 10 ** (E - 16)) if E >= 16 else (10**17 - j) / 10 ** (16 - E) for j in range(1, 9)]


def _edge_values():
    """Powers of ten and their neighbours, values just below the next
    decade and theirs, powers of two, values near the 17-digit rounding
    boundary and its ties, normals scaled by 1e-5 .. 1e4 and their
    neighbours, subnormals, the extremes and zeros, with their negatives."""
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    carry = np.ravel([_near_carry(E) for E in range(-323, 308)])
    normals = np.random.default_rng(24).standard_normal(2000) * 10.0 ** np.arange(-5, 5).repeat(200)
    values = [tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf),
              carry, np.nextafter(carry, 0), np.nextafter(carry, np.inf),
              normals, np.nextafter(normals, 0), np.nextafter(normals, np.inf),
              np.ldexp(1.0, np.arange(-1074, 1024)),
              1e15 + np.arange(-64, 65) / 8, 1e16 + np.arange(-64, 65), 1e17 + 16 * np.arange(-64, 65),
              np.ldexp(np.arange(1, 2000), -1074), np.arange(-1000, 1001, dtype=float),
              [0.0, np.finfo(float).max, np.finfo(float).smallest_normal, 0.1, 1 / 3, 2.0**53 + 2]]
    values = np.concatenate([np.ravel(v) for v in values])
    return np.concatenate([values, -values])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_formatter_is_percent_17g(values):
    assert _formatted(values) == [format(v, ".17g") for v in values]


def test_formatter_on_random_bit_patterns():
    bits = np.random.default_rng(22).integers(0, 2**64, 100_000, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    assert len(values) > 99_000
    assert _formatted(values) == [format(v, ".17g") for v in values.tolist()]


def test_formatter_on_edge_values():
    values = _edge_values()
    assert _formatted(values) == [format(v, ".17g") for v in values.tolist()]


@pytest.mark.parametrize("shift", [-0.3, 0.3])
def test_estimates_one_off_go_to_percent_17g(monkeypatch, shift):
    """``log10`` may put ``E`` one off either way.  Shifted by ``shift``, it
    puts one off each value whose ``log10`` is within 0.3 of an integer on
    the side the shift crosses; those go to ``'%.17g'`` too."""
    values = _edge_values()
    exact = _format_count(values)
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    out, count = _format_words(values)
    assert _decoded(out) == [format(v, ".17g") for v in values.tolist()]
    assert count > exact + len(values) // 20


def test_power_of_ten_table_is_within_2_to_the_minus_106():
    """``_PH + _PL`` is ``10**(16 - E)`` to ``2**-106`` relative on every row
    a product can read, and ``_PH`` splits exactly into two 26-bit halves."""
    ph, phh, phl, pl = gridio._PTAB
    for E, h, hh, hl, l in zip(range(gridio._EMIN, 309), ph, phh, phl, pl):
        if abs(E) > gridio._EMAX + 1:
            assert h == hh == hl == l == 0.0, E
            continue
        exact = Fraction(10) ** (16 - E)
        assert abs(Fraction(h) + Fraction(l) - exact) <= exact / 2**106, E
        assert hh + hl == h and Fraction(hh) + Fraction(hl) == Fraction(h), E
        for half in (hh, hl):
            mantissa, _ = Fraction(abs(half)).as_integer_ratio()
            assert mantissa.bit_length() - (mantissa & -mantissa).bit_length() + 1 <= 26, E
