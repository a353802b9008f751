import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import opsampler.cli
from opsampler.builders import rand_complex
from opsampler.cli import main
from opsampler.config import parse_config
from opsampler.gridio import read_phase_grid
from opsampler.lattice import Lattice, unfibers
from opsampler.report import canonical_json
from opsampler.runner import run_analyze, run_export, run_roundtrip
from opsampler.weyl import inverse_fourier_wigner, weyl_symbol, weyl_transform

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
    assert report["rng"] == {"algorithm": "numpy.random.Philox", "seed": 1234}


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


def _run_cli(*argv):
    """The CLI in a fresh process, with a shallow stack as from the console script."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(opsampler.cli.__file__)))
    return subprocess.run([sys.executable, "-m", "opsampler.cli", *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))


def test_deeply_nested_whitened_spec_is_config_error(tmp_path):
    # 980 levels decode and used to validate, then ran the recursive build
    # into a RecursionError; whitening twice is whitening once
    spec = '{"kind": "whitened", "inner": ' * 980 + '{"kind": "random_hs"}' + "}" * 980
    path = tmp_path / "cfg.json"
    path.write_text('{"L": 15, "lattice": {"a": 3, "b": 5}, "seed": 1, "generators": [%s]}' % spec)
    proc = _run_cli("analyze", "--config", str(path))
    assert proc.returncode == 1 and proc.stdout == ""
    assert "generators[0]" in proc.stderr and "Traceback" not in proc.stderr


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
    rc = main(["roundtrip", "--config", write_cfg(tmp_path, BASE), "--tolerance", "1e-30"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert report["reconstruction"]["pass"] is False


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
    assert format(alpha, ".17g") in text
    assert json.loads(text)["generator_riesz"]["alpha"] == alpha


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
    P = rand_complex(np.random.Generator(np.random.Philox(1234)), (lat.size, lat.a * lat.b))
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

def test_tolerance_flag_does_not_leak_into_next_call(tmp_path, capsys):
    path = write_cfg(tmp_path, dict(BASE, tolerance=1e-9))
    assert main(["roundtrip", "--config", path, "--tolerance", "1e-300"]) == 2
    assert json.loads(capsys.readouterr().out)["reconstruction"]["tolerance"] == 1e-300
    assert main(["roundtrip", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out)["reconstruction"]["tolerance"] == 1e-9


def test_export_kind_does_not_leak_into_next_call(tmp_path, capsys):
    path = write_cfg(tmp_path, BASE)
    assert main(["export", "--config", path, "--out", str(tmp_path / "one"), "--what", "wigner"]) == 0
    assert json.loads(capsys.readouterr().out)["export"]["files"] == ["wigner_g0.csv"]
    assert main(["export", "--config", path, "--out", str(tmp_path / "all")]) == 0
    manifest = json.loads(capsys.readouterr().out)["export"]
    assert manifest["what"] == ["symbols", "wigner", "periodization", "transfer"]
    assert sorted(manifest["files"]) == sorted(os.listdir(tmp_path / "all"))
    assert {name.split("_")[0].split(".")[0] for name in manifest["files"]} == set(manifest["what"])


def test_rejected_arguments_leave_next_call_as_in_fresh_process(tmp_path, capsys):
    path = write_cfg(tmp_path, BASE)
    with pytest.raises(SystemExit) as exc:
        main(["export", "--config", path, "--what", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    assert main(["analyze", "--config", path]) == 0
    in_process = json.loads(capsys.readouterr().out)
    fresh = _run_cli("analyze", "--config", path)
    assert fresh.returncode == 0 and fresh.stderr == ""
    assert strip_timing(in_process) == strip_timing(json.loads(fresh.stdout))


# ------------------------------------------------------------ config errors

@pytest.mark.parametrize("key, literal", [
    ("--tolerance", "nan"),
    ("tolerance", "1e400"),     # JSON reads it as inf
    ("tol_pos", "1e400"),
    ("tolerance", "1" + "0" * 400),     # an integer literal beyond the float range
], ids=["flag-nan", "tolerance-1e400", "tol_pos-1e400", "tolerance-huge-int"])
def test_non_finite_tolerance_is_config_error(tmp_path, capsys, key, literal):
    text = json.dumps(BASE)
    argv = []
    if key.startswith("--"):
        argv = [key, literal]
    else:
        text = text[:-1] + f', "{key}": {literal}}}'
    path = tmp_path / "cfg.json"
    path.write_text(text)
    rc = main(["roundtrip", "--config", str(path)] + argv)
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


def _count_calls(monkeypatch, counted):
    """Count calls (weight 1) or transformed operators (weight "ops") per function name."""
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
        source = next(mod for mod in (weyl, frames, sampling) if hasattr(mod, name))
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
    # random_hs operators are drawn as fibers, so only the synthesized
    # element is transformed; only the synthesized and the reconstructed
    # element are quantized (the interpolation check pairs the
    # reconstructors' fibers directly)
    assert calls == {"frame_bounds": 1, **SYSTEM_ONCE,
                     "fourier_wigner": 1, "inverse_fourier_wigner": 2}


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


@pytest.mark.parametrize("m", [2, 3], ids=["square", "oversampled"])
def test_roundtrip_factorizes_the_transfer_once(tmp_path, capsys, monkeypatch, m):
    # one batched eigh of the transfer Gram gives the bounds and the left
    # inverse; no determinant and no linear solve
    shapes = {"eigh": [], "det": [], "solve": []}

    def recording(name, fn):
        def wrapper(a, *args, **kwargs):
            shapes[name].append(np.shape(a))
            return fn(a, *args, **kwargs)
        return wrapper

    for name in shapes:
        monkeypatch.setattr(np.linalg, name, recording(name, getattr(np.linalg, name)))
    n = 2
    data = dict(BASE, generators=[{"kind": "random_hs"}] * n,
                averagers=[{"kind": "random_hs"}] * m, c_matrix="random")
    assert main(["roundtrip", "--config", write_cfg(tmp_path, data)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert shapes == {"eigh": [(report["lattice"]["size"], n, n)], "det": [], "solve": []}


def test_one_by_one_roundtrip_calls_no_blas_or_lapack(tmp_path, capsys, monkeypatch):
    # N = M = 1 on a = b = 1: every matrix of the fiber algebra is 1 x 1,
    # so every product is elementwise and every eigenproblem is read off
    calls = {"eigh": 0, "eigvalsh": 0, "matmul": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    monkeypatch.setattr(np, "matmul", counting("matmul", np.matmul))
    data = dict(BASE, lattice={"a": 1, "b": 1}, averagers=[{"kind": "random_hs"}])
    assert main(["roundtrip", "--config", write_cfg(tmp_path, data)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["interpolation"]["pass"] is True
    assert calls == {"eigh": 0, "eigvalsh": 0, "matmul": 0}
    # the counters see the calls a system with N = 2 does make (a*b >= N)
    data = dict(BASE, generators=[{"kind": "random_hs"}] * 2, averagers=[{"kind": "random_hs"}] * 2)
    assert main(["roundtrip", "--config", write_cfg(tmp_path, data)]) == 0
    capsys.readouterr()
    assert calls["eigh"] == 1 and calls["eigvalsh"] == 1 and calls["matmul"] > 0


@pytest.mark.parametrize("n", [1, 3])
def test_analyze_without_averagers_transforms_generators_once(tmp_path, capsys, monkeypatch, n):
    # rank-one generators are formed as kernels and transformed once each
    calls = _count_calls(monkeypatch, {"fourier_wigner": "ops"})
    data = dict(BASE, lattice={"a": 3, "b": 3}, generators=[{"kind": "random_signal_pair"}] * n)
    assert main(["analyze", "--config", write_cfg(tmp_path, data)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["system_frame"]["verdict"] == "riesz_basis"
    assert calls == {"fourier_wigner": n}


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

NUMBER = r"-?\d\.\d{3}e[+-]\d{2,3}"
REFUSALS = {
    ("analyze", "generator_riesz"): r"gram condition failed at dual index (?P<xi>\d+)",
    ("roundtrip", "generator_riesz"):
        rf"generator translates are not a Riesz sequence "
        rf"\(min Gram eigenvalue (?P<alpha>{NUMBER}) at dual index (?P<xi>\d+)\)",
    ("analyze", "system_frame"): r"transfer condition failed at dual index (?P<xi>\d+)",
    ("roundtrip", "system_frame"):
        rf"sampling system is not a frame: lower bound (?P<alpha>{NUMBER}) "
        rf"at dual index (?P<xi>\d+)",
}
FAILING = {
    # a point-pair generator misses adjoint cosets: its Gram test fails
    "generator_riesz": {"generators": [{"kind": "delta_pair", "t1": 1, "t2": 4}]},
    # a Riesz generator, but a point-pair averager: the system fails
    "system_frame": {"averagers": [{"kind": "delta_pair", "t1": 2, "t2": 9}]},
}


@pytest.mark.parametrize("command,section", sorted(REFUSALS))
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
    match = re.fullmatch(REFUSALS[command, section], failure["message"])
    assert match, failure["message"]
    assert int(match["xi"]) == failure["witness_xi"] == failing["witness_xi"][0]
    assert failure["witness_point"] == failing["witness_points"][0]
    if "alpha" in match.groupdict():
        assert float(match["alpha"]) == pytest.approx(failing["alpha"], rel=1e-3, abs=1e-300)
