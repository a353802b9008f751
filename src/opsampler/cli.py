"""Command-line interface.

    opsampler analyze   --config cfg.json [--out report.json] [--tolerance x]
    opsampler roundtrip --config cfg.json [--out report.json] [--tolerance x]
    opsampler export    --config cfg.json [--out directory] [--what kind]

Reports are canonical JSON on stdout unless --out names a file; export
writes CSV files into the --out directory (default: current directory)
and prints a manifest.  Exit codes: 0 pass, 1 config error or an --out
that cannot be written, 2 condition failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

from .config import load_config
from .errors import ConfigError
from .report import canonical_json
from .runner import EXIT_CONFIG, EXPORT_KINDS, run_analyze, run_export, run_roundtrip

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opsampler",
        description="Average sampling experiments for operators on a finite phase space.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("analyze", "roundtrip", "export"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--out", default=None,
                       help="report file (analyze/roundtrip) or output directory (export)")
        p.add_argument("--tolerance", type=float, default=None,
                       help="override the config roundtrip error tolerance")
        if name == "export":
            p.add_argument("--what", default="all", choices=EXPORT_KINDS + ("all",),
                           help="which diagnostic to export (default: all)")
    return parser


# Built once per process: parse_args keeps no state between calls, so
# main() may be called any number of times in one process.
_PARSER = _build_parser()


def _emit(report: dict, out: str | None) -> None:
    text = canonical_json(report)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.tolerance is not None:
            if not (math.isfinite(args.tolerance) and args.tolerance > 0):
                raise ConfigError(f"--tolerance must be a positive finite number, got {args.tolerance!r}")
            cfg = replace(cfg, tolerance=args.tolerance)
        if args.command == "export":
            out_dir = args.out if args.out is not None else "."
            report, code = run_export(cfg, args.what, out_dir)
            sys.stdout.write(canonical_json(report))
        else:
            report, code = (run_analyze if args.command == "analyze" else run_roundtrip)(cfg)
            _emit(report, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # the config was read: only the output step writes
        print(f"output error: cannot write --out: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return code


if __name__ == "__main__":
    sys.exit(main())
