import re

import numpy as np
import pytest

from opsampler.gridio import read_phase_grid, write_dual_values, write_phase_grid, write_transfer
from opsampler.report import format_float

# ---------------------------------------------------- per-value oracle writers


def oracle_phase_grid(path, F):
    F = np.asarray(F, dtype=complex)
    L = F.shape[0]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,omega,re,im\n")
        for x in range(L):
            for w in range(L):
                v = F[x, w]
                fh.write(f"{x},{w},{format_float(v.real)},{format_float(v.imag)}\n")


def oracle_dual_values(path, values):
    values = np.asarray(values, dtype=float)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("xi_index,value\n")
        for i, v in enumerate(values):
            fh.write(f"{i},{format_float(v)}\n")


def oracle_transfer(path, values):
    values = np.asarray(values, dtype=complex)
    size, M, N = values.shape
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("xi_index,m,n,re,im\n")
        for xi in range(size):
            for m in range(M):
                for n in range(N):
                    v = values[xi, m, n]
                    fh.write(f"{xi},{m},{n},{format_float(v.real)},{format_float(v.imag)}\n")


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
}


@pytest.mark.parametrize("kind", sorted(CASES))
def test_writers_match_per_value_loop_byte_for_byte(tmp_path, kind):
    writer, oracle, make = CASES[kind]
    values = make()
    writer(tmp_path / "new.csv", values)
    oracle(tmp_path / "old.csv", values)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


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
