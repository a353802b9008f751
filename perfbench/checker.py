"""Checks one CLI call's outcome against the outcome designed for its config.

``check`` returns a list of problems; an empty list means the call is
correct.  It never trusts the program's own bookkeeping alone: the exit
code, the report's verdicts, the finiteness of every number and, for
exports, the files on disk are each compared with what the config was
built to produce.
"""

from __future__ import annotations

import json
import math
import os

from workloads import TOLERANCE, export_files


def expected_exit(command: str, expect: dict) -> int:
    """Exit code of ``command`` on a config with this designed outcome.

    An export only fails when the operators cannot be built; a degenerate
    spectrum still exports its diagnostics.
    """
    if command == "export" and expect["outcome"] in ("gen_fail", "sys_fail"):
        return 0
    return expect["exit"]


def _reject_constant(token):
    raise ValueError(f"non-finite constant {token} in report")


def parse_report(text: str):
    """Parse a report; NaN/Infinity tokens and overflowing literals are errors."""
    data = json.loads(text, parse_constant=_reject_constant)
    bad = [path for path, value in _numbers(data, "$") if not math.isfinite(value)]
    if bad:
        raise ValueError(f"non-finite value at {bad[0]}")
    return data


def _numbers(obj, path):
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return
    if isinstance(obj, (int, float)):
        yield path, float(obj)
    elif isinstance(obj, dict):
        for k, v in obj.items():
            yield from _numbers(v, f"{path}.{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _numbers(v, f"{path}[{i}]")


def _check_export_dir(expect: dict, report: dict, export_dir: str) -> list[str]:
    files = export_files(expect)
    names = [name for name, _, _ in files]
    problems = []
    listed = report.get("export", {}).get("files")
    if listed != names:
        problems.append(f"manifest lists {listed}, expected {names}")
    on_disk = sorted(os.listdir(export_dir)) if os.path.isdir(export_dir) else []
    if on_disk != sorted(names):
        problems.append(f"export directory holds {on_disk}, expected {sorted(names)}")
        return problems
    for name, rows, header in files:
        with open(os.path.join(export_dir, name), "r", encoding="utf-8") as fh:
            first = fh.readline().rstrip("\n")
            count = sum(1 for _ in fh)
        if first != header:
            problems.append(f"{name}: header {first!r}, expected {header!r}")
        if count != rows:
            problems.append(f"{name}: {count} rows, expected {rows}")
    return problems


def check(command: str, expect: dict, rc, report_text: str | None, stderr: str,
          export_dir: str | None = None) -> list[str]:
    """Problems with one call; ``report_text`` is the report file or export manifest."""
    want = expected_exit(command, expect)
    if rc != want:
        return [f"exit code {rc}, expected {want}"]
    if want == 1:
        problems = []
        if "config error" not in stderr or expect["field"] not in stderr:
            problems.append(f"config error message {stderr.strip()!r} does not name {expect['field']!r}")
        if report_text:
            problems.append("a report was written for an invalid config")
        return problems
    if not report_text:
        return ["no report"]
    try:
        report = parse_report(report_text)
    except ValueError as exc:
        return [f"report does not parse: {exc}"]

    problems = []
    if report.get("command") != command:
        problems.append(f"report command {report.get('command')!r}, expected {command!r}")
    if report.get("exit_code") != rc:
        problems.append(f"report exit_code {report.get('exit_code')}, process returned {rc}")
    status = "pass" if rc == 0 else "condition_failure"
    if report.get("status") != status:
        problems.append(f"status {report.get('status')!r}, expected {status!r}")
    if (rc == 2) != ("failure" in report):
        problems.append("failure block present" if rc != 2 else "failure block missing")
    size = report.get("lattice", {}).get("size")
    if size != expect["size"]:
        problems.append(f"lattice size {size}, expected {expect['size']}")

    if command == "export":
        if rc == 0:
            problems += _check_export_dir(expect, report, export_dir)
        return problems

    for key, verdict in (("generator_riesz", expect["gen"]), ("system_frame", expect["sys"])):
        got = (report.get(key) or {}).get("verdict")
        if got != verdict:
            problems.append(f"{key} verdict {got!r}, expected {verdict!r}")

    if command == "roundtrip" and rc == 0:
        rec = report.get("reconstruction") or {}
        err = rec.get("relative_error")
        if rec.get("pass") is not True:
            problems.append("reconstruction.pass is not true")
        if not isinstance(err, (int, float)) or not err <= TOLERANCE:
            problems.append(f"relative_error {err!r} above tolerance {TOLERANCE}")
        interp = report.get("interpolation")
        if expect.get("interpolation"):
            if not interp or interp.get("pass") is not True:
                problems.append("interpolation.pass is not true on a square system")
        elif interp is not None:
            problems.append("interpolation reported for an oversampled system")
    return problems
