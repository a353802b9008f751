import itertools
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import opsampler.cli
from opsampler.builders import rand_complex
from opsampler.cli import main
from opsampler.config import MAX_FIBER_BYTES, MAX_JSON_NESTING, parse_config
from opsampler.frames import frame_bounds, gram_matrix_bounds, left_inverse_family
from opsampler.lattice import Lattice, _matmul, symplectic_series, unfibers
from opsampler.report import canonical_json
from opsampler.runner import _fibers, _make_rng, _norms_sq, run_analyze, run_export, run_roundtrip
from opsampler.sampling import system_transfer
from test_frames import SINGULAR_SOLVE
from oracles import inverse_fourier_wigner, read_phase_grid, weyl_symbol, weyl_transform

BASE = {
    "L": 15,
    "lattice": {"a": 3, "b": 5},
    "generators": [{"kind": "random_hs"}],
    "seed": 1234,
}


def write_cfg(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def strip_timing(report: dict) -> dict:
    out = dict(report)
    out.pop("timing", None)
    return out


# ------------------------------------------------------------------- analyze

def test_analyze_pass(tmp_path, capsys):
    rc = main(["analyze", "--config", write_cfg(tmp_path, BASE)])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["status"] == "pass"
    assert report["generator_riesz"]["verdict"] == "riesz_basis"
    assert report["system_frame"]["verdict"] == "riesz_basis"
    algorithm = "numpy.random." + type(_make_rng(1234).bit_generator).__name__
    assert report["rng"] == {"algorithm": algorithm, "seed": 1234}


def test_analyze_duplicated_generators_exit_2(tmp_path, capsys):
    data = dict(BASE)
    data["generators"] = [{"kind": "boxcar", "width": 3}, {"kind": "boxcar", "width": 3}]
    data["averagers"] = [{"kind": "random_hs"}, {"kind": "random_hs"}]
    rc = main(["analyze", "--config", write_cfg(tmp_path, data)])
    report = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert report["status"] == "condition_failure"
    assert report["generator_riesz"]["verdict"] == "fail"
    assert report["failure"]["witness_xi"] is not None


def test_analyze_config_error_exit_1(tmp_path, capsys):
    data = dict(BASE)
    data["lattice"] = {"a": 6, "b": 5}
    rc = main(["analyze", "--config", write_cfg(tmp_path, data)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "lattice.a" in err


@pytest.mark.parametrize("content", [b"\xff\xfe{\"L\": 15}", b"[" * 100000],
                         ids=["not_utf8", "nested_too_deep"])
def test_undecodable_config_file_exit_1(tmp_path, capsys, content):
    path = tmp_path / "cfg.json"
    path.write_bytes(content)
    assert main(["analyze", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(path) in captured.err and "Traceback" not in captured.err


# the smallest odd L whose one fiber stack (N = 1, no averagers, 16 * L^2 bytes)
# exceeds the cap
L_ABOVE_CAP = next(L for L in itertools.count(math.isqrt(MAX_FIBER_BYTES // 16) | 1, 2)
                   if 16 * L * L > MAX_FIBER_BYTES)


@pytest.mark.parametrize("L, step", [(999999999, 999999999), (L_ABOVE_CAP, 1)],
                         ids=["huge", "just_above_cap"])
def test_config_above_fiber_stack_cap_exit_1(tmp_path, capsys, traced_peak, L, step):
    data = {"L": L, "lattice": {"a": step, "b": step}, "seed": 1,
            "generators": [{"kind": "random_hs"}]}
    path = write_cfg(tmp_path, data)
    rc, peak = traced_peak(main, ["analyze", "--config", path])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert f"config field 'L': L={L}" in captured.err
    assert peak < 2**20  # refused before anything is allocated


def _run_cli(*argv):
    """The CLI in a fresh process, with a shallow stack as from the console script."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(opsampler.cli.__file__)))
    return subprocess.run([sys.executable, "-m", "opsampler.cli", *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))


def test_deeply_nested_whitened_spec_is_config_error(tmp_path, capsys):
    # the JSON decoder shares the caller's recursion limit, so a 980-level
    # file is refused before it is decoded: the message must not depend on
    # how deep the caller's stack already is
    spec = '{"kind": "whitened", "inner": ' * 980 + '{"kind": "random_hs"}' + "}" * 980
    path = tmp_path / "cfg.json"
    path.write_text('{"L": 15, "lattice": {"a": 3, "b": 5}, "seed": 1, "generators": [%s]}' % spec)
    proc = _run_cli("analyze", "--config", str(path))
    assert proc.returncode == 1 and proc.stdout == ""
    assert f"more than {MAX_JSON_NESTING} levels deep" in proc.stderr
    assert "Traceback" not in proc.stderr

    def nested(depth):
        # deeper frames before the call, as a deeply nested caller has
        return nested(depth - 1) if depth else main(["analyze", "--config", str(path)])

    for depth in (0, 60):
        assert nested(depth) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == proc.stderr
    # nine whitened levels nest 12 deep: decoded, then refused by the builder's cap
    spec = '{"kind": "whitened", "inner": ' * 9 + '{"kind": "random_hs"}' + "}" * 9
    path.write_text('{"L": 15, "lattice": {"a": 3, "b": 5}, "seed": 1, "generators": [%s]}' % spec)
    assert main(["analyze", "--config", str(path)]) == 1
    assert "generators[0]" in capsys.readouterr().err


@pytest.mark.parametrize("command, target", [
    ("export", "existing_file"),
    ("roundtrip", "directory"),
    ("analyze", "missing_dir/r.json"),
])
def test_unwritable_out_exit_1(tmp_path, capsys, command, target):
    (tmp_path / "existing_file").write_text("")
    (tmp_path / "directory").mkdir()
    out = tmp_path / target
    assert main([command, "--config", write_cfg(tmp_path, BASE), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "--out" in err and str(out) in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


# ----------------------------------------------------------------- roundtrip

def test_roundtrip_single_channel(tmp_path, capsys):
    rc = main(["roundtrip", "--config", write_cfg(tmp_path, BASE)])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["reconstruction"]["relative_error"] <= 1e-9
    assert report["interpolation"]["pass"] is True


def test_roundtrip_oversampled_random_c(tmp_path, capsys):
    data = dict(BASE)
    data["generators"] = [{"kind": "random_hs"}, {"kind": "random_hs"}]
    data["averagers"] = [{"kind": "random_hs"} for _ in range(3)]
    data["c_matrix"] = "random"
    rc = main(["roundtrip", "--config", write_cfg(tmp_path, data)])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["reconstruction"]["relative_error"] <= 1e-9
    assert report["interpolation"] is None


def test_roundtrip_failure_no_operator_emitted(tmp_path, capsys):
    data = dict(BASE)
    data["generators"] = [{"kind": "delta_pair", "t1": 2, "t2": 9}]
    del data["seed"]
    data["seed"] = 9  # roundtrip always needs one
    rc = main(["roundtrip", "--config", write_cfg(tmp_path, data)])
    report = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert report["status"] == "condition_failure"
    assert report["failure"]["witness_xi"] is not None
    assert "reconstruction" not in report


def test_roundtrip_without_seed_is_config_error(tmp_path, capsys):
    data = dict(BASE)
    data["generators"] = [{"kind": "boxcar", "width": 4}]
    del data["seed"]
    rc = main(["roundtrip", "--config", write_cfg(tmp_path, data)])
    assert rc == 1
    assert "seed" in capsys.readouterr().err


def test_roundtrip_tolerance_flag(tmp_path, capsys):
    # an absurdly tight tolerance turns a pass into a condition failure
    data = dict(BASE, tolerance=1e-30)
    rc = main(["roundtrip", "--config", write_cfg(tmp_path, data)])
    report = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert report["reconstruction"]["pass"] is False
    # the failure is witnessed by the dual index whose fiber the reconstruction
    # misses most, recomputed here from the same draws in coefficient space:
    # the squared norm of the error fiber at xi is e^T G conj(e), with G the
    # generators' coset Gram and e = B_hat (A c_hat) - c_hat
    cfg = parse_config(data)
    rng = _make_rng(cfg.seed)
    lat = Lattice(cfg.L, cfg.a, cfg.b)
    P = _fibers(cfg.generators, lat, rng)
    A = system_transfer(P, P, lat)
    c_hat = symplectic_series(rand_complex(rng, (len(P), lat.size)), lat).T[:, :, None]
    e_hat = left_inverse_family(A, frame_bounds(A, lat), None, _matmul(A, c_hat)) - c_hat
    xi = int(np.argmax(_norms_sq(gram_matrix_bounds(P, lat).gram, e_hat)))
    assert xi == 5
    failure = report["failure"]
    assert failure["witness_xi"] == xi
    assert failure["witness_point"] == lat.dual_points[xi].tolist()
    # the interpolation check of this square system misses too, but the
    # reconstruction's miss takes precedence in the failure block
    assert report["interpolation"]["pass"] is False
    assert failure["message"] == "relative error %.3e above tolerance 1.000e-30" % (
        report["reconstruction"]["relative_error"])


# one copy of the interpolation-miss config, shared with CI's console-script step
INTERPOLATION_MISS = os.path.join(os.path.dirname(__file__), "data", "interpolation_miss.json")


def test_roundtrip_interpolation_miss_exits_2(capsys):
    # a square system whose reconstruction meets the tolerance (1.52e-14)
    # while its reconstructors' samples miss the delta pattern by more
    # (2.68e-14): the failed interpolation check fails the run
    with open(INTERPOLATION_MISS) as fh:
        data = json.load(fh)
    rc = main(["roundtrip", "--config", INTERPOLATION_MISS])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert (rc, report["exit_code"], report["status"]) == (2, 2, "condition_failure")
    assert captured.err == ""
    assert report["reconstruction"]["pass"] is True and report["interpolation"]["pass"] is False
    failure = report["failure"]
    assert failure["message"] == "interpolation deviation %.3e above tolerance %.3e" % (
        report["interpolation"]["max_deviation"], data["tolerance"])
    # witnessed by the dual index with the largest |A B - I| entry
    cfg = parse_config(data)
    lat = Lattice(cfg.L, cfg.a, cfg.b)
    S = _fibers(cfg.generators + cfg.averagers, lat, _make_rng(cfg.seed))
    A = system_transfer(S[:2], S[2:], lat)
    B = left_inverse_family(A, frame_bounds(A, lat))
    xi = int(np.argmax(np.abs(A @ B - np.eye(2)).max(axis=(1, 2))))
    assert failure["witness_xi"] == xi
    assert failure["witness_point"] == lat.dual_points[xi].tolist()


def test_roundtrip_singular_solve_exits_2(tmp_path, capsys):
    # the frame verdict passes, but the left inverse meets an exactly zero
    # pivot: refused at the frame report's first witness, with no
    # reconstruction, as a failing verdict is
    rc = main(["roundtrip", "--config", write_cfg(tmp_path, SINGULAR_SOLVE)])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert (rc, report["exit_code"], report["status"]) == (2, 2, "condition_failure")
    assert captured.err == ""
    system = report["system_frame"]
    assert system["verdict"] == "riesz_basis"
    assert "reconstruction" not in report and "interpolation" not in report
    failure = report["failure"]
    assert failure["message"] == (
        "transfer matrix is singular at dual index 0 (alpha=%.3e, beta=%.3e)"
        % (system["alpha"], system["beta"]))
    assert failure["witness_xi"] == system["witness_xi"][0]
    assert failure["witness_point"] == system["witness_points"][0]


def test_roundtrip_out_file(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["roundtrip", "--config", write_cfg(tmp_path, BASE), "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["command"] == "roundtrip"


# --------------------------------------------------------------- determinism

def test_reports_byte_identical_modulo_timing():
    cfg = parse_config(dict(BASE, c_matrix="random",
                            generators=[{"kind": "random_hs"}, {"kind": "random_hs"}],
                            averagers=[{"kind": "random_hs"} for _ in range(3)]))
    r1, c1 = run_roundtrip(cfg)
    r2, c2 = run_roundtrip(cfg)
    assert c1 == c2 == 0
    assert canonical_json(strip_timing(r1)) == canonical_json(strip_timing(r2))


def test_float_precision_in_reports():
    cfg = parse_config(BASE)
    report, _ = run_analyze(cfg)
    text = canonical_json(report)
    alpha = report["generator_riesz"]["alpha"]
    assert repr(alpha) in text
    assert json.loads(text) == report


@pytest.mark.parametrize("text", [
    'plain', 'quote " inside', "back\\slash \\\"", "tab\tnew\nline\rbell\x07nul\x00 del\x7f",
    "caf\u00e9 \u03b1\u03b2 \u2028\u2029", "astral \U0001f600", "lone \ud800 surrogate", "",
])
def test_canonical_json_quotes_strings_like_json_dumps(text):
    # oracle: canonical_json used to quote every key and string with json.dumps
    assert canonical_json(text) == json.dumps(text) + "\n"
    assert canonical_json({text: [text]}) == "{%s: [%s]}\n" % (json.dumps(text), json.dumps(text))


# -------------------------------------------------------------------- export

def test_export_writes_all_kinds(tmp_path, capsys):
    data = dict(BASE)
    data["generators"] = [{"kind": "random_hs"}, {"kind": "random_hs"}]
    data["averagers"] = [{"kind": "random_hs"} for _ in range(3)]
    out = tmp_path / "exp"
    rc = main(["export", "--config", write_cfg(tmp_path, data), "--out", str(out)])
    manifest = json.loads(capsys.readouterr().out)
    assert rc == 0
    names = sorted(os.listdir(out))
    assert names == sorted(manifest["export"]["files"])
    assert "symbols_g0.csv" in names and "transfer.csv" in names

    # periodization: |Lambda| nonnegative values per generator
    lines = (out / "periodization_g0.csv").read_text().strip().splitlines()
    assert lines[0] == "xi_index,value"
    vals = [float(l.split(",")[1]) for l in lines[1:]]
    assert len(vals) == 15 and all(v >= 0 for v in vals)

    # transfer: M*N*|Lambda| complex entries
    tlines = (out / "transfer.csv").read_text().strip().splitlines()
    assert tlines[0] == "xi_index,m,n,re,im"
    assert len(tlines) - 1 == 3 * 2 * 15


def test_export_single_kind(tmp_path, capsys):
    out = tmp_path / "exp"
    rc = main(["export", "--config", write_cfg(tmp_path, BASE), "--out", str(out),
               "--what", "wigner"])
    assert rc == 0
    assert sorted(os.listdir(out)) == ["wigner_g0.csv"]
    capsys.readouterr()


def test_exported_symbol_reimports_to_operator(tmp_path, capsys):
    cfg = parse_config(BASE)
    out = tmp_path / "exp"
    run_export(cfg, "symbols", str(out))
    sym = read_phase_grid(out / "symbols_g0.csv", 15)
    # redraw the generator's fibers the way the random_hs builder does
    lat = Lattice(15, 3, 5)
    P = rand_complex(_make_rng(1234), (lat.size, lat.a * lat.b))
    S = inverse_fourier_wigner(unfibers(P, lat))
    assert np.linalg.norm(weyl_transform(sym) - S) <= 1e-10 * np.linalg.norm(S)
    assert np.linalg.norm(sym - weyl_symbol(S)) <= 1e-12 * np.linalg.norm(sym)


def test_csv_grid_headers(tmp_path):
    cfg = parse_config(BASE)
    out = tmp_path / "exp"
    run_export(cfg, "symbols", str(out))
    first = (out / "symbols_g0.csv").read_text().splitlines()[0]
    assert first == "x,omega,re,im"


# ------------------------------------------------ repeated calls in one process

def test_export_kind_does_not_leak_into_next_call(tmp_path, capsys):
    path = write_cfg(tmp_path, BASE)
    assert main(["export", "--config", path, "--out", str(tmp_path / "one"), "--what", "wigner"]) == 0
    assert json.loads(capsys.readouterr().out)["export"]["files"] == ["wigner_g0.csv"]
    assert main(["export", "--config", path, "--out", str(tmp_path / "all")]) == 0
    manifest = json.loads(capsys.readouterr().out)["export"]
    assert manifest["what"] == ["symbols", "wigner", "periodization", "transfer"]
    assert sorted(manifest["files"]) == sorted(os.listdir(tmp_path / "all"))
    assert {name.split("_")[0].split(".")[0] for name in manifest["files"]} == set(manifest["what"])


@pytest.mark.parametrize("argv, code", [
    (["analyze"], 1),                                                   # no --config
    (["roundtrip", "--config", "cfg.json", "--tolerance", "1e-9"], 1),  # an unknown flag
    (["--help"], 0),
], ids=["no-config", "unknown-flag", "help"])
def test_command_line_usage_exit_codes(capsys, argv, code):
    # argparse's usage errors are config errors (exit 1), never a condition
    # failure (exit 2); --help is a pass
    assert main(argv) == code
    captured = capsys.readouterr()
    assert "usage: opsampler" in (captured.err if code else captured.out)


def test_rejected_arguments_leave_next_call_as_in_fresh_process(tmp_path, capsys):
    path = write_cfg(tmp_path, BASE)
    # a malformed command line is exit 1, as a config error; 2 is kept for
    # condition failures
    assert main(["export", "--config", path, "--what", "bogus"]) == 1
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    assert main(["analyze", "--config", path]) == 0
    in_process = json.loads(capsys.readouterr().out)
    fresh = _run_cli("analyze", "--config", path)
    assert fresh.returncode == 0 and fresh.stderr == ""
    assert strip_timing(in_process) == strip_timing(json.loads(fresh.stdout))


# ------------------------------------------------------------ config errors

@pytest.mark.parametrize("key, literal", [
    ("tolerance", "NaN"),       # Python's json reads it as nan
    ("tolerance", "1e400"),     # JSON reads it as inf
    ("tol_pos", "1e400"),
    ("tolerance", "1" + "0" * 400),     # an integer literal beyond the float range
    ("tol_pos", "1"),           # alpha <= beta, so the gate could never pass
    ("tol_pos", "1e308"),       # finite, but tol_pos * beta overflows
], ids=["tolerance-nan", "tolerance-1e400", "tol_pos-1e400", "tolerance-huge-int",
        "tol_pos-1", "tol_pos-1e308"])
def test_non_finite_tolerance_is_config_error(tmp_path, capsys, key, literal):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BASE)[:-1] + f', "{key}": {literal}}}')
    rc = main(["roundtrip", "--config", str(path)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert key in captured.err


@pytest.mark.parametrize("param, literal", [
    ("width", "1e-200"),    # the square underflows to 0: the kernel is NaN
    ("width", "1e400"),     # JSON reads it as inf
    ("width", "1e200"),     # the square overflows
    ("wraps", str(10**9)),  # a 2*10**9 + 1 step loop
], ids=["width-underflow", "width-inf", "width-square-overflow", "wraps-huge"])
def test_unrunnable_periodized_gaussian_is_config_error(tmp_path, capsys, param, literal):
    spec = {"kind": "periodized_gaussian", "width": 4.0}
    text = json.dumps(dict(BASE, generators=[spec]))
    text = text.replace('"width": 4.0', f'"{param}": {literal}' if param == "width"
                        else f'"width": 4.0, "{param}": {literal}')
    path = tmp_path / "cfg.json"
    path.write_text(text)
    rc = main(["analyze", "--config", str(path)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert f"generators[0].{param}" in captured.err


@pytest.mark.parametrize("command", ["analyze", "export"])
@pytest.mark.parametrize("width", ["1e-160", "2e-152"])
def test_tiny_periodized_gaussian_width_is_a_clean_condition_failure(tmp_path, capsys,
                                                                    command, width):
    # below a width of about 1e-152 the exponent overflows to -inf, as
    # intended (exp(-inf) = 0): the signal is a delta, which analyze refuses
    # at its gram verdict; with every warning an error (tests/conftest.py)
    # nothing is printed and nothing is raised
    spec = {"kind": "periodized_gaussian", "width": 4.0}
    text = json.dumps({"L": 45, "lattice": {"a": 3, "b": 3}, "generators": [spec]})
    path = tmp_path / "cfg.json"
    path.write_text(text.replace("4.0", width))
    rc = main([command, "--config", str(path), "--out", str(tmp_path / "out")]
              if command == "export" else [command, "--config", str(path)])
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    if command == "export":
        assert rc == 0 and "failure" not in report
        return
    assert rc == 2
    assert report["failure"]["message"] == "gram condition failed at dual index 15"


def _count_calls(monkeypatch, counted):
    """Count calls (weight 1) or transformed operators (weight "ops") per function name.
    A name that only the oracle defines stays at 0: no CLI path can reach it."""
    import oracles
    import opsampler.builders as builders
    import opsampler.frames as frames
    import opsampler.runner as runner
    import opsampler.sampling as sampling
    import opsampler.weyl as weyl

    calls = dict.fromkeys(counted, 0)

    def counting(name, fn, weight):
        def wrapper(*args, **kwargs):
            calls[name] += int(np.prod(np.shape(args[0])[:-2])) if weight == "ops" else 1
            return fn(*args, **kwargs)
        return wrapper

    for name, weight in counted.items():
        source = next(mod for mod in (weyl, frames, sampling, oracles) if hasattr(mod, name))
        wrapped = counting(name, getattr(source, name), weight)
        for mod in (builders, frames, sampling, runner):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, wrapped)
    return calls


# The sampling system's transfer matrix is the coset Gram of the fibers:
# no CLI path builds the filter sequences or takes their series.
SYSTEM_CALLS = {"system_transfer": 1, "sample_filter_matrix": 1, "transfer_matrix": 1}
SYSTEM_ONCE = {"system_transfer": 1, "sample_filter_matrix": 0, "transfer_matrix": 0}


@pytest.mark.parametrize("m", [2, 3], ids=["square", "oversampled"])
def test_roundtrip_computes_each_spectral_quantity_once(tmp_path, capsys, monkeypatch, m):
    calls = _count_calls(monkeypatch, {"frame_bounds": 1, **SYSTEM_CALLS,
                                       "fourier_wigner": "ops", "inverse_fourier_wigner": "ops"})
    n = 2
    data = dict(BASE, generators=[{"kind": "random_hs"}] * n,
                averagers=[{"kind": "random_hs"}] * m, c_matrix="random")
    assert main(["roundtrip", "--config", write_cfg(tmp_path, data)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["interpolation"] is not None) == (m == n)
    # random_hs operators are drawn as fibers, and the element is
    # synthesized, sampled and reconstructed as fibers: no operator is
    # transformed or quantized
    assert calls == {"frame_bounds": 1, **SYSTEM_ONCE,
                     "fourier_wigner": 0, "inverse_fourier_wigner": 0}


@pytest.mark.parametrize("m", [2, 3], ids=["square", "oversampled"])
def test_roundtrip_forms_the_generators_coset_gram_once(tmp_path, capsys, monkeypatch, m):
    # the Riesz test's coset Gram of P, kept on its report, also gives the
    # error norms: a roundtrip forms that Gram and the transfer's product of
    # (Q, P), and no third coset product
    import opsampler.frames as frames
    import opsampler.lattice as lattice
    import opsampler.sampling as sampling

    calls = []

    def recording(Q, P):
        calls.append((Q is P, len(Q), len(P)))
        return lattice._coset_gram(Q, P)

    for mod in (frames, sampling):
        monkeypatch.setattr(mod, "_coset_gram", recording)
    n = 2
    data = dict(BASE, generators=[{"kind": "random_hs"}] * n,
                averagers=[{"kind": "random_hs"}] * m, c_matrix="random")
    assert main(["roundtrip", "--config", write_cfg(tmp_path, data)]) == 0
    capsys.readouterr()
    assert calls == [(True, n, n), (False, m, n)]


@pytest.mark.parametrize("m", [2, 3], ids=["square", "oversampled"])
def test_analyze_computes_the_transfer_once(tmp_path, capsys, monkeypatch, m):
    calls = _count_calls(monkeypatch, {"frame_bounds": 1, **SYSTEM_CALLS,
                                       "fourier_wigner": "ops", "inverse_fourier_wigner": "ops"})
    n = 2
    data = dict(BASE, generators=[{"kind": "random_hs"}] * n,
                averagers=[{"kind": "random_hs"}] * m)
    assert main(["analyze", "--config", write_cfg(tmp_path, data)]) == 0
    assert json.loads(capsys.readouterr().out)["system_frame"]["verdict"] in ("riesz_basis", "frame")
    assert calls == {"frame_bounds": 1, **SYSTEM_ONCE,
                     "fourier_wigner": 0, "inverse_fourier_wigner": 0}


@pytest.mark.parametrize("m", [2, 3], ids=["square", "oversampled"])
def test_export_transfer_computes_the_transfer_once(tmp_path, capsys, monkeypatch, m):
    calls = _count_calls(monkeypatch, {**SYSTEM_CALLS, "fourier_wigner": "ops"})
    n = 2
    data = dict(BASE, generators=[{"kind": "random_hs"}] * n,
                averagers=[{"kind": "random_hs"}] * m)
    out = tmp_path / "export"
    assert main(["export", "--config", write_cfg(tmp_path, data), "--out", str(out),
                 "--what", "transfer"]) == 0
    size = json.loads(capsys.readouterr().out)["lattice"]["size"]
    assert calls == {**SYSTEM_ONCE, "fourier_wigner": 0}
    lines = (out / "transfer.csv").read_text().splitlines()
    assert lines[0] == "xi_index,m,n,re,im" and len(lines) == 1 + size * m * n


def test_export_factorizes_nothing(tmp_path, capsys, monkeypatch):
    # export writes no verdict, so it computes neither the Riesz nor the frame
    # report: N = 2 generators, so the 1 x 1 shortcut would not hide a call
    data = dict(BASE, generators=[{"kind": "random_hs"}] * 2, averagers=[{"kind": "random_hs"}] * 3)
    path = write_cfg(tmp_path, data)
    assert main(["export", "--config", path, "--out", str(tmp_path / "plain")]) == 0
    plain = json.loads(capsys.readouterr().out)

    def refuse(*args, **kwargs):
        raise AssertionError("export factorized a matrix")

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    out = tmp_path / "patched"
    assert main(["export", "--config", path, "--out", str(out)]) == 0
    patched = json.loads(capsys.readouterr().out)
    patched["export"]["directory"] = plain["export"]["directory"]
    assert strip_timing(patched) == strip_timing(plain)
    assert sorted(os.listdir(out)) == sorted(plain["export"]["files"])


def _record_shapes(monkeypatch, names):
    """The shape of the first argument of every call to each ``np.linalg`` function named."""
    shapes = {name: [] for name in names}

    def recording(name, fn):
        def wrapper(a, *args, **kwargs):
            shapes[name].append(np.shape(a))
            return fn(a, *args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(np.linalg, name, recording(name, getattr(np.linalg, name)))
    return shapes


@pytest.mark.parametrize("m", [2, 3], ids=["square", "oversampled"])
def test_roundtrip_factorizes_the_transfer_once(tmp_path, capsys, monkeypatch, m):
    # both reports read eigenvalues only, and the left inverse is one solve
    # of the transfer Gram; the square system's interpolation check solves
    # for B once more; no eigenvectors and no determinant
    shapes = _record_shapes(monkeypatch, ("eigh", "eigvalsh", "det", "solve"))
    n = 2
    data = dict(BASE, generators=[{"kind": "random_hs"}] * n,
                averagers=[{"kind": "random_hs"}] * m, c_matrix="random")
    assert main(["roundtrip", "--config", write_cfg(tmp_path, data)]) == 0
    report = json.loads(capsys.readouterr().out)
    gram = (report["lattice"]["size"], n, n)
    assert shapes == {"eigh": [], "eigvalsh": [gram, gram], "det": [],
                      "solve": [gram] * (2 if m == n else 1)}


def test_analyze_reads_eigenvalues_only(tmp_path, capsys, monkeypatch):
    # a verdict needs no eigenvectors and no left inverse
    shapes = _record_shapes(monkeypatch, ("eigh", "eigvalsh", "solve"))
    n = 2
    data = dict(BASE, generators=[{"kind": "random_hs"}] * n, averagers=[{"kind": "random_hs"}] * 3)
    assert main(["analyze", "--config", write_cfg(tmp_path, data)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["system_frame"]["verdict"] == "frame"
    gram = (report["lattice"]["size"], n, n)
    assert shapes == {"eigh": [], "eigvalsh": [gram, gram], "solve": []}


def test_one_by_one_roundtrip_calls_no_blas_or_lapack(tmp_path, capsys, monkeypatch):
    # N = M = 1 on a = b = 1: every matrix of the fiber algebra is 1 x 1,
    # so every product is elementwise, every eigenvalue is read off and
    # every solve is a division
    calls = {"eigh": 0, "eigvalsh": 0, "solve": 0, "matmul": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh", "solve"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    monkeypatch.setattr(np, "matmul", counting("matmul", np.matmul))
    data = dict(BASE, lattice={"a": 1, "b": 1}, averagers=[{"kind": "random_hs"}])
    assert main(["roundtrip", "--config", write_cfg(tmp_path, data)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["interpolation"]["pass"] is True
    assert calls == {"eigh": 0, "eigvalsh": 0, "solve": 0, "matmul": 0}
    # the counters see the calls a system with N = 2 does make (a*b >= N)
    data = dict(BASE, generators=[{"kind": "random_hs"}] * 2, averagers=[{"kind": "random_hs"}] * 2)
    assert main(["roundtrip", "--config", write_cfg(tmp_path, data)]) == 0
    capsys.readouterr()
    assert calls["eigh"] == 0 and calls["eigvalsh"] == 2 and calls["solve"] == 2
    assert calls["matmul"] > 0


@pytest.mark.parametrize("n", [1, 3])
def test_analyze_without_averagers_transforms_generators_once(tmp_path, capsys, monkeypatch, n):
    # rank-one generators are transformed once each, from their signals
    calls = _count_calls(monkeypatch, {"rank_one_fibers": "ops"})
    data = dict(BASE, lattice={"a": 3, "b": 3}, generators=[{"kind": "random_signal_pair"}] * n)
    assert main(["analyze", "--config", write_cfg(tmp_path, data)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["system_frame"]["verdict"] == "riesz_basis"
    assert calls == {"rank_one_fibers": n}


def test_failure_fuzz_engineered_generators(tmp_path, capsys):
    # rank-one point-pair generators always miss adjoint cosets here, so
    # every draw must refuse with a witness and emit no operator
    rng = np.random.default_rng(42)
    for _ in range(20):
        t1, t2 = map(int, rng.integers(0, 15, 2))
        data = dict(BASE)
        data["generators"] = [{"kind": "delta_pair", "t1": t1, "t2": t2}]
        data["seed"] = int(rng.integers(0, 2**32))
        rc = main(["roundtrip", "--config", write_cfg(tmp_path, data)])
        report = json.loads(capsys.readouterr().out)
        assert rc == 2
        assert report["failure"]["witness_xi"] is not None
        assert "reconstruction" not in report


# ------------------------------------------------------------ refusal texts

REFUSALS = {
    "generator_riesz": r"gram condition failed at dual index (?P<xi>\d+)",
    "system_frame": r"transfer condition failed at dual index (?P<xi>\d+)",
}
FAILING = {
    # a point-pair generator misses adjoint cosets: its Gram test fails
    "generator_riesz": {"generators": [{"kind": "delta_pair", "t1": 1, "t2": 4}]},
    # a Riesz generator, but a point-pair averager: the system fails
    "system_frame": {"averagers": [{"kind": "delta_pair", "t1": 2, "t2": 9}]},
}


@pytest.mark.parametrize("command,section", list(itertools.product(("analyze", "roundtrip"),
                                                                     sorted(REFUSALS))))
def test_refusal_message_and_witness_come_from_the_failing_section(tmp_path, capsys,
                                                                   command, section):
    rc = main([command, "--config", write_cfg(tmp_path, dict(BASE, **FAILING[section]))])
    report = json.loads(capsys.readouterr().out)
    assert rc == 2 and report["status"] == "condition_failure"
    failing = report[section]
    assert failing["verdict"] == "fail"
    if section == "system_frame":
        assert report["generator_riesz"]["verdict"] == "riesz_basis"
    failure = report["failure"]
    match = re.fullmatch(REFUSALS[section], failure["message"])
    assert match, failure["message"]
    assert int(match["xi"]) == failure["witness_xi"] == failing["witness_xi"][0]
    assert failure["witness_point"] == failing["witness_points"][0]


AGREEING = {
    "pass": {},
    # N = 2, M = 3: both reports reach LAPACK's eigenvalue routine
    "pass_oversampled": {"generators": [{"kind": "random_hs"}] * 2,
                         "averagers": [{"kind": "random_hs"}] * 3, "c_matrix": "random"},
    "gen_fail": FAILING["generator_riesz"],
    "sys_fail": FAILING["system_frame"],
    # whitening refuses a point-pair generator before any verdict
    "build_fail": {"generators": [{"kind": "whitened",
                                   "inner": {"kind": "delta_pair", "t1": 1, "t2": 4}}]},
    # N = 2 generators on a*b = 1 coset: rank-deficient at every dual index
    "n_above_ab": {"lattice": {"a": 1, "b": 1},
                   "generators": [{"kind": "random_hs"}, {"kind": "random_hs"}]},
}


@pytest.mark.parametrize("design", sorted(AGREEING))
def test_roundtrip_verdicts_and_failure_agree_with_analyze(tmp_path, capsys, design):
    path = write_cfg(tmp_path, dict(BASE, **AGREEING[design]))
    sections = ("generator_riesz", "system_frame", "failure")
    reports = {}
    for command in ("analyze", "roundtrip"):
        rc = main([command, "--config", path])
        report = json.loads(capsys.readouterr().out)
        assert rc == report["exit_code"] == (0 if design.startswith("pass") else 2)
        reports[command] = {key: report.get(key) for key in sections}
    assert reports["roundtrip"] == reports["analyze"]
