"""The runner's one fiber stack and what a run loads and faults in.

``runner._start`` builds the generators, then the averagers, into one
``(N + M, |Lambda|, a*b)`` stack with a single ``_fibers`` call and hands
the pipeline its two slices, ``P`` and ``Q``.  The checks here: those
slices are bit for bit the two stacks the same stream gave before, a
builder's refusal is the same failure block, repeated in-process calls
fault no pages back in, and only ``export`` loads the CSV writers.
"""

import json
import os
import platform
import subprocess
import sys
from statistics import median

import numpy as np
import pytest
from hypothesis import example, given, settings

import opsampler
from opsampler import runner
from opsampler.builders import build_operator
from opsampler.cli import main
from opsampler.config import parse_config
from opsampler.errors import SingularTransfer
from opsampler.lattice import Lattice
from strategies import designs

SRC = os.path.dirname(os.path.dirname(os.path.abspath(opsampler.__file__)))


def _two_stacks(cfg, lat, rng):
    """The generator and averager stacks as two ``_fibers`` calls on one stream."""
    P = runner._fibers(cfg.generators, lat, rng)
    return P, P if cfg.averagers is None else runner._fibers(cfg.averagers, lat, rng)


def _failure_of(exc: SingularTransfer) -> dict:
    return {"message": str(exc), "witness_xi": exc.witness_xi,
            "witness_point": list(exc.witness_point)}


@settings(max_examples=60, deadline=None)
@given(designs())
@example(parse_config({"L": 45, "lattice": {"a": 3, "b": 3}, "seed": 3,
                       "generators": [{"kind": "whitened", "inner": {"kind": "random_hs"}}],
                       "averagers": [{"kind": "random_hs"}, {"kind": "random_signal_pair"}]}))
@example(parse_config({"L": 15, "lattice": {"a": 3, "b": 3}, "seed": 1,
                       "generators": [{"kind": "random_hs"}, {"kind": "random_hs"}]}))
def test_one_stack_is_the_two_stacks_of_the_same_stream(cfg):
    # same slots, same draw order: P and Q are bit for bit what two stacks
    # gave, the stream ends where it did (the roundtrip draws on from it),
    # and a builder's refusal is the same failure block
    rng = runner._make_rng(cfg.seed)
    lat, report, stacks = runner._start(cfg, "analyze", rng)
    ref_rng = runner._make_rng(cfg.seed)
    try:
        P_ref, Q_ref = _two_stacks(cfg, lat, ref_rng)
    except SingularTransfer as exc:
        assert stacks is None
        assert report["failure"] == _failure_of(exc)
        return
    assert "failure" not in report
    P, Q = stacks
    assert P.shape == P_ref.shape and P.tobytes() == P_ref.tobytes()
    assert Q.shape == Q_ref.shape and Q.tobytes() == Q_ref.tobytes()
    assert rng.standard_normal() == ref_rng.standard_normal()
    if cfg.averagers is None:
        assert Q is P  # without averagers the generators average themselves
    else:
        # two disjoint, C-contiguous slices of one stack
        assert P.base is Q.base and P.flags.c_contiguous and Q.flags.c_contiguous
        assert P.base.shape == (len(P) + len(Q),) + P.shape[1:]
        assert not np.shares_memory(P, Q)


@pytest.mark.parametrize("command", ["analyze", "roundtrip"])
def test_a_refusing_averager_is_the_builders_failure_block(tmp_path, capsys, command):
    # a whitened delta pair has a vanishing coset power: its refusal, raised
    # while it is built into its slot, is the run's one failure block
    data = {"L": 45, "lattice": {"a": 3, "b": 3}, "seed": 3,
            "generators": [{"kind": "random_hs"}],
            "averagers": [{"kind": "random_hs"},
                          {"kind": "whitened", "inner": {"kind": "delta_pair", "t1": 1, "t2": 2}}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    assert main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert captured.err == ""
    lat = Lattice(45, 3, 3)
    spec = parse_config(data).averagers[1]
    with pytest.raises(SingularTransfer) as refusal:
        build_operator(spec, lat, None, np.empty((lat.size, 9), dtype=complex))
    assert report["failure"] == _failure_of(refusal.value)
    assert report["failure"]["message"].startswith("cannot whiten: periodized spectrum vanishes")
    assert (report["status"], report["exit_code"]) == ("condition_failure", 2)
    assert "generator_riesz" not in report and "reconstruction" not in report


def _fresh(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter on this checkout's package, with
    no development mode and the allocator settings of a plain start."""
    env = {key: val for key, val in os.environ.items()
           if key not in ("PYTHONMALLOC", "PYTHONDEVMODE", "PYTHONTRACEMALLOC", "GLIBC_TUNABLES")
           and not key.startswith("MALLOC_")}
    env["PYTHONPATH"] = SRC
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, env=env, check=True)


FAULTS = """
import json, resource, sys
from opsampler.cli import main
argv = json.loads(sys.argv[1])
faults = []
for _ in range(20):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    code = main(argv)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert code == 0, code
print(json.dumps(faults))
"""


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="glibc's dynamic mmap and trim thresholds")
@pytest.mark.parametrize("command, data", [
    ("roundtrip", {"L": 105, "lattice": {"a": 7, "b": 5}, "seed": 5, "c_matrix": "random",
                   "generators": [{"kind": "random_hs"}] * 4,
                   "averagers": [{"kind": "random_hs"}] * 6}),
    ("analyze", {"L": 75, "lattice": {"a": 5, "b": 5}, "seed": 5,
                 "generators": [{"kind": "random_hs"}, {"kind": "random_hs"},
                                {"kind": "whitened", "inner": {"kind": "random_hs"}}],
                 "averagers": [{"kind": "random_hs"}] * 4}),
], ids=["many_channels_roundtrip", "design_sweep_analyze"])
def test_repeated_calls_fault_no_pages_back_in(tmp_path, command, data):
    # glibc frees a large block with munmap and lifts its trim threshold to
    # twice that block; one stack of every operator (1.76 MB in the
    # roundtrip) lifts it above a call's working set, so the heap is not
    # trimmed between calls and the next call faults nothing back in.
    # Two stacks (Q alone 1.06 MB) left it below, at 571-616 and 122-133
    # faults a call.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    argv = [command, "--config", str(path), "--out", str(tmp_path / "report.json")]
    faults = json.loads(_fresh(FAULTS, json.dumps(argv)).stdout)
    assert median(faults[10:]) <= 16, faults


def test_only_export_loads_the_csv_writers(tmp_path):
    # analyze and roundtrip never import gridio (nor build its power table)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"L": 15, "lattice": {"a": 3, "b": 3}, "seed": 7,
                                "generators": [{"kind": "random_hs"}]}))
    script = """
import sys
from opsampler.cli import main
for argv in (["analyze"], ["roundtrip"], ["export", "--out", sys.argv[2]]):
    code = main(argv + ["--config", sys.argv[1]])
    print(argv[0], code, "opsampler.gridio" in sys.modules, file=sys.stderr)
"""
    done = _fresh(script, str(path), str(tmp_path / "out"))
    assert done.stderr.splitlines() == ["analyze 0 False", "roundtrip 0 False", "export 0 True"]
