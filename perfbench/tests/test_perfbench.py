"""Tests of the benchmark's own arithmetic, checker, tracer and inputs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types
from functools import cached_property

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import checker  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def span(name, start, end, parent=None, call=0, layer=None):
    return tracing.Span(name, layer or name.split(".")[0], start, end, parent, call)


# -- self time ------------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [
        span("cli.main", 0, 100),                     # 0
        span("runner.run_analyze", 10, 90, 0),        # 1
        span("sampling.average_samples", 20, 50, 1),  # 2
        span("weyl.weyl_symbol", 25, 35, 2),          # 3
        span("frames.frame_bounds", 60, 70, 1),       # 4
    ]
    assert tracing.self_times(spans) == [20, 40, 20, 10, 10]


def test_self_time_counts_overlapping_children_once():
    spans = [span("cli.main", 0, 100), span("weyl.a", 10, 40, 0), span("weyl.b", 30, 60, 0),
             span("weyl.c", 95, 120, 0)]
    assert tracing.self_times(spans)[0] == 100 - 50 - 5


def test_per_call_layers_recursion_and_alloc():
    spans = [
        span("builders.build_operator", 0, 100, None, call=7),   # 0
        span("builders.build_operator", 10, 60, 0, call=7),      # 1 recursion
        span("sampling.whiten_generator", 20, 50, 1, call=7),    # 2
        span("cli.main", 0, 30, None, call=8),                   # 3 another call
    ]
    spans[2].alloc = 3 * 2**20
    rows = tracing.per_call(spans)
    assert rows[7]["builders.self_ms"] == pytest.approx((50 + 20) / 1e6)
    assert rows[7]["builders.calls"] == 2
    assert rows[7]["builders.build_operator.ms"] == pytest.approx(100 / 1e6)
    assert rows[7]["sampling.alloc_peak_mb"] == 3
    assert rows[8]["cli.self_ms"] == pytest.approx(30 / 1e6)
    summary = tracing.summarize([rows[7], rows[8]], ["cli.self_ms", "gridio.self_ms"])
    assert summary == {"cli.self_ms": pytest.approx(30 / 1e6), "gridio.self_ms": 0.0}


# -- tail percentile --------------------------------------------------------------

def test_tail_has_exactly_ten_samples_beyond():
    samples = [float(i) for i in range(100, 0, -1)]
    value, percentile, n = run.tail_latency(samples)
    assert (value, percentile, n) == (90.0, 90.0, 100)
    assert sum(s > value for s in samples) == run.TAIL_BEYOND


def test_tail_at_smallest_sample_count_is_the_median():
    samples = [float(i) for i in range(20)]
    assert run.tail_latency(samples) == (9.0, 50.0, 20)


def test_tail_omitted_when_too_few_samples():
    assert run.tail_latency([1.0] * 19) is None
    assert run.tail_latency([]) is None


# -- reference scaling --------------------------------------------------------------

def test_interval_is_divided_by_the_reference_times_around_it():
    log = reference.SpeedLog()
    log.walls, log.marks = [0.3, 0.2], [0.002, 0.004, 0.001]
    assert log.scaled(0) == pytest.approx(0.3 / 0.003 * reference.UNIT_S)
    assert log.scaled(1) == pytest.approx(0.2 / 0.0025 * reference.UNIT_S)


def test_record_times_the_reference_work():
    log = reference.SpeedLog()
    log.record(0.01)
    assert log.walls == [0.01] and len(log.marks) == 2 and min(log.marks) > 0


# -- checker ------------------------------------------------------------------------

PASS_EXPECT = workloads._expect(
    workloads._config(15, 3, 3, [workloads._rand()], [workloads._rand()], seed=1), "pass")


def _report(command="analyze", **over):
    report = {
        "command": command,
        "lattice": {"L": 15, "a": 3, "b": 3, "size": 25},
        "generator_riesz": {"alpha": 0.5, "beta": 1.0, "verdict": "riesz_basis"},
        "system_frame": {"alpha": 0.25, "beta": 1.0, "verdict": "riesz_basis"},
        "status": "pass",
        "exit_code": 0,
        "timing": {"seconds": 0.01},
    }
    report.update(over)
    return report


def test_checker_accepts_designed_outcome():
    assert checker.check("analyze", PASS_EXPECT, 0, json.dumps(_report()), "") == []


def test_checker_rejects_flipped_verdict():
    report = _report(system_frame={"alpha": 0.0, "beta": 1.0, "verdict": "fail"})
    problems = checker.check("analyze", PASS_EXPECT, 0, json.dumps(report), "")
    assert any("system_frame verdict 'fail'" in p for p in problems)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_checker_rejects_non_finite_values(token):
    text = json.dumps(_report()).replace('"alpha": 0.5', f'"alpha": {token}')
    problems = checker.check("analyze", PASS_EXPECT, 0, text, "")
    assert problems and "does not parse" in problems[0]


def test_checker_rejects_error_above_tolerance():
    expect = dict(PASS_EXPECT, interpolation=True)
    good = _report("roundtrip", reconstruction={"relative_error": 1e-12, "pass": True},
                   interpolation={"max_deviation": 1e-13, "pass": True})
    assert checker.check("roundtrip", expect, 0, json.dumps(good), "") == []
    bad = dict(good, reconstruction={"relative_error": 2 * workloads.TOLERANCE, "pass": True})
    problems = checker.check("roundtrip", expect, 0, json.dumps(bad), "")
    assert any("above tolerance" in p for p in problems)


def test_checker_wants_exit_code_and_named_field():
    expect = workloads._expect(workloads._config(45, 4, 3, [workloads._rand()], seed=1),
                               "config_error", "lattice.a")
    message = "config error: config field 'lattice.a': must be a positive divisor"
    assert checker.check("analyze", expect, 1, None, message) == []
    assert checker.check("analyze", expect, 1, None, "config error: other") != []
    assert checker.check("analyze", expect, 2, None, message) == ["exit code 2, expected 1"]


def test_checker_counts_export_rows(tmp_path):
    expect = PASS_EXPECT
    files = workloads.export_files(expect)
    for name, rows, header in files:
        (tmp_path / name).write_text(header + "\n" + "0\n" * rows)
    report = _report("export", export={"files": [f for f, _, _ in files]})
    del report["generator_riesz"], report["system_frame"]
    assert checker.check("export", expect, 0, json.dumps(report), "", str(tmp_path)) == []
    name, rows, header = files[-1]
    assert name == "transfer.csv" and rows == 25 * 1 * 1
    (tmp_path / name).write_text(header + "\n" + "0\n" * (rows - 1))
    problems = checker.check("export", expect, 0, json.dumps(report), "", str(tmp_path))
    assert problems == [f"transfer.csv: {rows - 1} rows, expected {rows}"]


# -- tracer -------------------------------------------------------------------------

@pytest.fixture
def fake_package():
    """A two-module stand-in: sampling defines a target, runner imports it by name."""
    names = ["fakepkg", "fakepkg.sampling", "fakepkg.runner", "fakepkg.lattice"]
    mods = {n: types.ModuleType(n) for n in names}

    def sample_filter_matrix(x):
        return x + 1

    class Lattice:
        @cached_property
        def _characters(self):
            return "table"

    mods["fakepkg.sampling"].sample_filter_matrix = sample_filter_matrix
    mods["fakepkg.runner"].sample_filter_matrix = sample_filter_matrix
    mods["fakepkg.lattice"].Lattice = Lattice
    sys.modules.update(mods)
    yield mods, sample_filter_matrix
    for n in names:
        sys.modules.pop(n, None)


def test_tracer_wraps_every_importer_and_skips_absent_names(fake_package):
    mods, original = fake_package
    t = tracing.Tracer()
    t.install("fakepkg")
    try:
        assert "sampling._lattice_correlate" in t.missing
        assert "frames.transfer_matrix" in t.missing       # module absent altogether
        assert "lattice.character_table" not in t.missing
        t.begin(1)
        assert mods["fakepkg.runner"].sample_filter_matrix(1) == 2
        lat = mods["fakepkg.lattice"].Lattice()
        assert lat._characters == "table"
        assert lat._characters == "table"                  # cached: one span only
        t.end()
        assert mods["fakepkg.sampling"].sample_filter_matrix(1) == 2   # outside a call
    finally:
        t.uninstall()
    assert [s.name for s in t.spans] == ["sampling.sample_filter_matrix", "lattice.character_table"]
    assert mods["fakepkg.runner"].sample_filter_matrix is original
    assert mods["fakepkg.sampling"].sample_filter_matrix is original


def test_tracer_charges_unlisted_module_to_other(fake_package):
    spectral = types.ModuleType("fakepkg.spectral")

    def fiberize(x):
        return 2 * x

    fiberize.__module__ = spectral.__name__
    spectral.fiberize = fiberize
    mods, _ = fake_package
    mods["fakepkg.sampling"].fiberize = fiberize
    sys.modules[spectral.__name__] = spectral
    t = tracing.Tracer()
    try:
        t.install("fakepkg")
        t.begin(1)
        assert mods["fakepkg.sampling"].fiberize(3) == 6
        t.end()
        t.uninstall()
    finally:
        sys.modules.pop(spectral.__name__)
    assert t.unlisted == ["spectral"]
    assert [(s.name, s.layer) for s in t.spans] == [("other.spectral.fiberize", "other")]
    assert mods["fakepkg.sampling"].fiberize is fiberize


def test_tracer_reports_character_table_missing_when_class_lacks_it(fake_package):
    mods, _ = fake_package
    mods["fakepkg.lattice"].Lattice = type("Lattice", (), {})
    t = tracing.Tracer()
    t.install("fakepkg")
    t.uninstall()
    assert "lattice.character_table" in t.missing


# -- inputs and definition ------------------------------------------------------------

def test_inputs_depend_only_on_seed(tmp_path):
    a = workloads.generate("design_sweep", 5, str(tmp_path / "a"))
    b = workloads.generate("design_sweep", 5, str(tmp_path / "b"))
    c = workloads.generate("design_sweep", 6, str(tmp_path / "c"))
    read = lambda calls: [open(x.config).read() for x in calls]  # noqa: E731
    assert read(a) == read(b) != read(c)
    assert [x.expect for x in a] == [x.expect for x in b]


def test_design_sweep_cycle_mix(tmp_path):
    calls = workloads.generate("design_sweep", 1, str(tmp_path))
    cycle = calls[:workloads.warmup_calls("design_sweep")]
    exits = [checker.expected_exit(c.command, c.expect) for c in cycle]
    assert [c.command for c in cycle].count("export") == 5
    assert all(cycle[i].command == "export" for i in range(4, 25, 5))
    assert (exits.count(0), exits.count(1), exits.count(2)) == (17, 2, 6)
    assert all(json.load(open(c.config))["L"] <= 75 for c in cycle)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "design_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
