"""opsampler benchmark: one closed-loop client calling the CLI in process.

    python3 perfbench/run.py --workload full_lattice --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
its ``src`` directory.  Each call is ``opsampler.cli.main([...])`` on a
config file written before timing starts, with ``--out`` pointing into
a scratch directory; the next call starts when the previous one
returns.  Every call's outcome is checked against the outcome its
config was designed to produce.  Times are reported in reference
units: each call's wall time divided by the time of a fixed piece of
reference work measured just before and after it (reference.py).

With ``--trace 0`` the last line of standard output is a JSON object
holding the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a separate traced run.  The line before it
carries the details (sample counts, tail percentile, wall-time figures,
reference times, exit-code counts, layer shares, machine facts); the
same details are written under ``perfbench/results/``.  See
perfbench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import checker  # noqa: E402
import tracer as tracing  # noqa: E402
from reference import SpeedLog  # noqa: E402
from workloads import WORKLOADS, generate, warmup_calls  # noqa: E402

# BLAS threads, fixed below nproc (2 on the reference machine): one thread
# keeps the single client's calls from competing with each other.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 3                 # set-ups per run: this process plus SETUP_RUNS - 1 fresh ones
SETUP_PROBE_TIMEOUT = 120
TAIL_BEYOND = 10               # samples that must lie beyond the tail percentile
TRACE_PAIRS_SHARE = 0.8        # share of a traced run spent on traced/untraced pairs


def metric_table(kind):
    """(name, unit) of each metric of ``kind`` ("end_to_end" or "per_layer") in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


# -- statistics ---------------------------------------------------------------

def tail_latency(samples):
    """Highest percentile with at least TAIL_BEYOND samples beyond it (nearest rank).

    Returns (value, percentile, sample count), or None when fewer than
    2 * TAIL_BEYOND samples exist and the tail would sit below the median.
    """
    n = len(samples)
    if n < 2 * TAIL_BEYOND:
        return None
    rank = n - TAIL_BEYOND
    return sorted(samples)[rank - 1], 100.0 * rank / n, n


# -- the program under test ---------------------------------------------------

def import_program():
    """Import opsampler from this checkout's src directory, nowhere else."""
    sys.path.insert(0, SRC)
    import opsampler.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"run.py: imported opsampler from {cli.__file__}, not from {SRC}")
    return cli


def run_call(cli, call, work_dir):
    """Make one CLI call; returns (exit code, seconds, problems)."""
    report_path = os.path.join(work_dir, "report.json")
    export_dir = os.path.join(work_dir, "export")
    if os.path.exists(report_path):
        os.remove(report_path)
    if os.path.isdir(export_dir):
        shutil.rmtree(export_dir)
    out = export_dir if call.command == "export" else report_path
    argv = [call.command, "--config", call.config, "--out", out]
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # a crash is a failed call, not the end of the run
        rc, error = None, traceback.format_exc(limit=-3)
    elapsed = time.perf_counter() - start
    if error is not None:
        return rc, elapsed, [f"exception: {error}"]
    if call.command == "export":
        text = stdout.getvalue()
    elif os.path.exists(report_path):
        with open(report_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = None
    return rc, elapsed, checker.check(call.command, call.expect, rc, text, stderr.getvalue(),
                                      export_dir)


class Outcomes:
    """Attempted/failed counts plus observed and designed exit codes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.exit_codes = {"observed": {}, "designed": {}}
        self.problems = []

    def add(self, call, rc, problems):
        self.attempted += 1
        for key, code in (("observed", rc), ("designed", checker.expected_exit(call.command, call.expect))):
            counts = self.exit_codes[key]
            counts[str(code)] = counts.get(str(code), 0) + 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append({"config": os.path.basename(call.config),
                                      "command": call.command, "problems": problems})


def setup(workload, seed, work_dir, outcomes):
    """Import, input generation and warm-up calls, each followed by a reference time.

    Returns (cli, calls, warm-up count, speed log); the log's intervals
    so far are the set-up stages.
    """
    speed = SpeedLog()
    start = time.perf_counter()
    cli = import_program()
    speed.record(time.perf_counter() - start)
    start = time.perf_counter()
    calls = generate(workload, seed, work_dir)
    speed.record(time.perf_counter() - start)
    warm = warmup_calls(workload)
    for call in calls[:warm]:
        rc, elapsed, problems = run_call(cli, call, work_dir)
        outcomes.add(call, rc, problems)
        speed.record(elapsed)
    return cli, calls, warm, speed


def setup_seconds(speed):
    """(reference, wall) seconds of the set-up stages, the first intervals of ``speed``."""
    return sum(map(speed.scaled, range(len(speed.walls)))), sum(speed.walls)


def stream(calls, start):
    i = start
    while True:
        yield i, calls[i % len(calls)]
        i += 1


# -- runs ---------------------------------------------------------------------

def timed_run(cli, calls, warm, work_dir, seconds, outcomes, speed):
    """Closed loop for ``seconds`` of call time; returns wall and reference seconds per call."""
    first = len(speed.walls)
    busy = 0.0
    for _, call in stream(calls, warm):
        if busy >= seconds:
            break
        rc, elapsed, problems = run_call(cli, call, work_dir)
        outcomes.add(call, rc, problems)
        speed.record(elapsed)
        busy += elapsed
    timed = range(first, len(speed.walls))
    return [speed.walls[i] for i in timed], [speed.scaled(i) for i in timed]


def traced_run(cli, calls, warm, work_dir, seconds, outcomes, speed, trace_path, names):
    """Traced and untraced calls in pairs, then a few calls with allocation tracking.

    Times are in reference milliseconds, like the end-to-end ones.
    """
    import tracemalloc

    tracer = tracing.Tracer()
    intervals, ratios, alloc_ids = {}, [], []   # traced call -> its interval in ``speed``
    busy = 0.0
    for k, call in stream(calls, warm):
        if busy >= seconds and alloc_ids:
            break
        alloc = bool(intervals) and busy >= TRACE_PAIRS_SHARE * seconds
        if alloc and not tracer.track_alloc:
            tracer.track_alloc = True
            tracemalloc.start()
        # Alternate which half of a pair runs first, so warm caches favour neither.
        order = [True] if alloc else [False, True] if k % 2 == 0 else [True, False]
        times = {}
        for traced in order:
            if traced:
                tracer.install()
                tracer.begin(k)
            try:
                rc, elapsed, problems = run_call(cli, call, work_dir)
            finally:
                if traced:
                    tracer.end()
                    tracer.uninstall()
            outcomes.add(call, rc, problems)
            busy += elapsed
            times[traced] = elapsed
            if traced and not alloc:
                speed.record(elapsed)
                intervals[k] = len(speed.walls) - 1
        if alloc:
            alloc_ids.append(k)
        else:
            ratios.append(times[True] / times[False])
    if tracer.track_alloc:
        tracemalloc.stop()
    tracer.dump(trace_path)

    rows = tracing.per_call(tracer.spans)
    walls = {k: speed.scaled(i) for k, i in intervals.items()}
    for k, i in intervals.items():
        factor = walls[k] / speed.walls[i]
        rows[k] = {n: v * factor if n.endswith("ms") else v for n, v in rows[k].items()}
    timed = [rows[k] for k in walls]
    allocs = [rows[k] for k in alloc_ids]
    alloc_names = [n for n in names if n.endswith("alloc_peak_mb")]
    time_names = [n for n in names
                  if n not in alloc_names and n not in tracing.COUNTERS and not n.startswith("trace.")]
    values = tracing.summarize(timed, time_names)
    values.update(tracing.summarize(allocs, alloc_names))
    for name in tracing.COUNTERS:
        values[name] = sum(tracer.counters[k][name] for k in walls) / len(walls)
    # Time in an unlisted module (layer "other") counts as unattributed.
    self_ms = {k: sum(rows[k].get(f"{layer}.self_ms", 0.0) for layer in tracing.LAYERS)
               for k in walls}
    values["trace.overhead_ratio"] = median(ratios)
    values["trace.unattributed_ms"] = median(walls[k] * 1e3 - self_ms[k] for k in walls)
    total = sum(walls.values()) * 1e3
    shares = {layer: sum(rows[k].get(f"{layer}.self_ms", 0.0) for k in walls) / total
              for layer in tracing.LAYERS + (tracing.OTHER,)}
    return values, {"traced_calls": len(walls), "alloc_calls": len(alloc_ids),
                    "self_time_shares": shares, "missing_spans": tracer.missing,
                    "unlisted_modules": tracer.unlisted,
                    "trace_file": os.path.relpath(trace_path, ROOT)}


def setup_probe(workload, seed):
    """(reference, wall) set-up seconds of a fresh process.

    Import time is paid once per process, so each extra set-up sample
    needs a fresh one; SETUP_RUNS - 1 of these run before each timed
    run, and setup_s is the median of all SETUP_RUNS samples.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
           "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_PROBE_TIMEOUT,
                          cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"run.py: set-up probe failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["setup_s"], result["wall_s"]


# -- machine facts ------------------------------------------------------------

def _blas_threads_in_use():
    """Thread count reported by the loaded OpenBLAS, or None when it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cache_sizes():
    base = "/sys/devices/system/cpu/cpu0/cache"
    sizes = {}
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return sizes
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def machine_facts():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration")},
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_in_use": _blas_threads_in_use(),
        "caches": _cache_sizes(),
        "machine": platform.machine(),
    }


# -- entry point --------------------------------------------------------------

def _positive(text):
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _parser():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=_positive, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p


def _metrics(values, table):
    return {name: {"value": values[name], "unit": unit} for name, unit in table}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    if not os.path.isfile(os.path.join(SRC, "opsampler", "cli.py")):
        print(f"run.py: no opsampler sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    work_dir = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        return _run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _timing(seconds):
    """calls_per_s, latency_p50_ms and latency_tail_ms of per-call times, plus the tail's rank."""
    tail = tail_latency(seconds)
    values = {"calls_per_s": len(seconds) / sum(seconds), "latency_p50_ms": median(seconds) * 1e3}
    if tail is not None:
        values["latency_tail_ms"] = tail[0] * 1e3
    return values, tail


def _run(args, work_dir) -> int:
    outcomes = Outcomes()
    if args.setup_probe:
        *_, speed = setup(args.workload, args.seed, work_dir, outcomes)
        ref, wall = setup_seconds(speed)
        if outcomes.failed:
            print(json.dumps(outcomes.problems), file=sys.stderr)
            return 1
        print(json.dumps({"setup_s": ref, "wall_s": wall}))
        return 0

    setups = []
    if not args.trace:
        setups = [setup_probe(args.workload, args.seed) for _ in range(SETUP_RUNS - 1)]
    cli, calls, warm, speed = setup(args.workload, args.seed, work_dir, outcomes)
    setups.append(setup_seconds(speed))

    results_dir = os.path.join(HERE, "results")
    os.makedirs(results_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "load": "closed loop, 1 client, no think time"}
    if args.trace:
        values, extra = traced_run(cli, calls, warm, work_dir, args.seconds, outcomes, speed,
                                   os.path.join(results_dir, f"spans-{tag}.json"),
                                   [n for n, _ in metric_table("per_layer")])
        detail.update(extra)
        metrics = _metrics(values, metric_table("per_layer"))
    else:
        walls, refs = timed_run(cli, calls, warm, work_dir, args.seconds, outcomes, speed)
        values, tail = _timing(refs)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values["setup_s"] = median(r for r, _ in setups)
        wall_values, _ = _timing(walls)
        wall_values["setup_s"] = median(w for _, w in setups)
        metrics = _metrics(values, [(n, u) for n, u in metric_table("end_to_end") if n in values])
        detail.update({
            "timed_calls": len(walls), "busy_s": sum(walls),
            "tail": None if tail is None else {"percentile": tail[1], "samples": tail[2],
                                                "beyond": TAIL_BEYOND},
            "setup_samples_s": [r for r, _ in setups],
            "wall": wall_values,
        })
    detail.update({
        "reference_ms": {"count": len(speed.marks), "min": min(speed.marks) * 1e3,
                         "median": median(speed.marks) * 1e3, "max": max(speed.marks) * 1e3},
        "error_rate": outcomes.failed / outcomes.attempted,
        "exit_codes": outcomes.exit_codes,
        "problems": outcomes.problems,
        "machine": machine_facts(),
    })
    with open(os.path.join(results_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "metrics": metrics,
                   "intervals": {"wall_s": speed.walls, "reference_s": speed.marks}}, fh)
    print(json.dumps(detail))
    print(json.dumps({"correct": outcomes.failed == 0, "attempted": outcomes.attempted,
                      "failed": outcomes.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
