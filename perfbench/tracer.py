"""Span tracer that wraps the program's public functions from outside.

Each wrapped function records a span (name, layer, start, end, parent,
call id) while a call is being traced.  A function is wrapped under
every name that refers to it in any loaded ``opsampler`` module, so
``opsampler.runner.sample_filter_matrix`` is charged to ``sampling``
just like ``opsampler.sampling.sample_filter_matrix``.  Names that a
version of the program lacks are skipped and listed in ``missing``, so
the same tracer runs before and after a refactor that deletes them.
A package module that is not a layer is listed in ``unlisted`` and its
public functions are charged to layer ``other``.

A layer's self time is the duration of its spans minus the part of
each span covered by its child spans.  Spans are kept in memory and
written out by ``dump`` when the run ends.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, wraps
from statistics import median

PACKAGE = "opsampler"

LAYERS = ("cli", "runner", "config", "builders", "weyl", "lattice", "frames",
          "sampling", "report", "gridio")

# Functions wrapped per layer module: every function a CLI path reaches
# today or could reach after a refactor reroutes it, so time stays charged
# to the right layer.  ``Class.attr`` names a method, static method or
# cached property of a class defined in that module.
# ``core`` is not wrapped: it stays below 1 % of every workload, and
# its many tiny calls would cost more to trace than they take.
TARGETS = {
    "cli": ("main",),
    "runner": ("run_analyze", "run_roundtrip", "run_export"),
    "config": ("load_config", "parse_config", "config_echo"),
    "builders": ("build_operator", "validate_builder_spec", "spec_uses_rng", "rand_complex"),
    "weyl": ("weyl_symbol", "weyl_transform", "symplectic_ft", "fourier_wigner", "cross_wigner",
             "stft"),
    "lattice": ("symplectic_series", "inverse_symplectic_series", "lattice_convolve",
                "periodize_sq", "Lattice._characters", "Lattice._sub_index"),
    "frames": ("transfer_matrix", "frame_bounds", "single_gen_condition", "gram_matrix_bounds",
               "pseudo_inverse", "left_inverse_family", "dual_sequences",
               "ConvolutionMatrix.convolve"),
    "sampling": ("GeneratorSet.build", "AveragerSet.build", "synthesize_element",
                 "average_samples", "sample_filter_matrix", "build_reconstructor_single",
                 "build_reconstructor_multi", "reconstruct", "interpolation_check",
                 "whiten_generator", "relative_error", "_lattice_correlate", "_spread_symbol"),
    "report": ("canonical_json",),
    "gridio": ("write_phase_grid", "write_dual_values", "write_transfer"),
}

# Modules charged to their callers on purpose.  Any other loaded module
# of the package that is not a layer (say, one a refactor adds) has its
# public functions wrapped as layer ``other`` and is listed in ``unlisted``.
UNWRAPPED = ("core", "errors")
OTHER = "other"

# Span names that differ from "<layer>.<name>".
ALIASES = {"lattice.Lattice._characters": "lattice.character_table"}

EXIT_CONFIG = 1
EXIT_CONDITION = 2


def _count_config_error(args, result):
    return "cli.config_errors", 1 if result == EXIT_CONFIG else 0


def _count_condition_failure(args, result):
    failed = isinstance(result, tuple) and len(result) == 2 and result[1] == EXIT_CONDITION
    return "runner.condition_failures", 1 if failed else 0


def _count_rows(args, result):
    # Every writer takes (path, array); one CSV row per array element.
    return "gridio.rows_written", getattr(args[1], "size", 0) if len(args) > 1 else 0


HOOKS = {
    "cli.main": _count_config_error,
    "runner.run_analyze": _count_condition_failure,
    "runner.run_roundtrip": _count_condition_failure,
    "runner.run_export": _count_condition_failure,
    "gridio.write_phase_grid": _count_rows,
    "gridio.write_dual_values": _count_rows,
    "gridio.write_transfer": _count_rows,
}
COUNTERS = ("cli.config_errors", "runner.condition_failures", "gridio.rows_written")


@dataclass
class Span:
    name: str
    layer: str
    start: int               # perf_counter_ns
    end: int
    parent: int | None       # index into the span list
    call: int
    alloc: int | None = None  # bytes allocated above the entry level, when tracked


class Tracer:
    """Install with ``install()``; trace one CLI call between ``begin``/``end``."""

    def __init__(self, track_alloc: bool = False):
        self.spans: list[Span] = []
        self.counters: dict[int, dict[str, float]] = {}
        self.missing: list[str] = []
        self.unlisted: list[str] = []
        self.track_alloc = track_alloc
        self._call: int | None = None
        self._stack: list[int] = []
        self._alloc_stack: list[list[int]] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin(self, call: int) -> None:
        self._call = call
        self.counters[call] = dict.fromkeys(COUNTERS, 0)

    def end(self) -> None:
        self._call = None
        self._stack.clear()
        self._alloc_stack.clear()

    def _enter(self, name: str, layer: str) -> int:
        if self.track_alloc:
            current, peak = tracemalloc.get_traced_memory()
            if self._alloc_stack:
                self._alloc_stack[-1][1] = max(self._alloc_stack[-1][1], peak)
            tracemalloc.reset_peak()
            self._alloc_stack.append([current, current])
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, time.perf_counter_ns(), 0, parent, self._call))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter_ns()
        self._stack.pop()
        if self.track_alloc:
            base, seen = self._alloc_stack.pop()
            peak = max(seen, tracemalloc.get_traced_memory()[1])
            span.alloc = peak - base
            if self._alloc_stack:
                self._alloc_stack[-1][1] = max(self._alloc_stack[-1][1], peak)

    def _wrap(self, name: str, layer: str, fn):
        hook = HOOKS.get(name)
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            if tracer._call is None:
                return fn(*args, **kwargs)
            index = tracer._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(index)
            if hook is not None:
                counter, amount = hook(args, result)
                tracer.counters[tracer._call][counter] += amount
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self, package: str = PACKAGE) -> None:
        """Wrap every target under each name that refers to it in ``package``."""
        modules = {n: m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))}
        self.missing = []
        for layer, names in TARGETS.items():
            module = modules.get(f"{package}.{layer}")
            for name in names:
                span = ALIASES.get(f"{layer}.{name}", f"{layer}.{name}")
                owner_name, _, attr = name.rpartition(".")
                if module is None:
                    self.missing.append(span)
                elif owner_name:
                    self._patch_class_attr(module, owner_name, attr, span, layer)
                elif callable(vars(module).get(attr)):
                    self._patch_function(vars(module)[attr], span, layer, modules.values())
                else:
                    self.missing.append(span)
        self.unlisted = []
        for mod_name, module in sorted(modules.items()):
            short = mod_name[len(package) + 1:]
            if not short or short in LAYERS or short in UNWRAPPED:
                continue
            self.unlisted.append(short)
            for attr, fn in list(vars(module).items()):
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod_name):
                    self._patch_function(fn, f"{OTHER}.{short}.{attr}", OTHER, modules.values())

    def _patch_function(self, fn, span, layer, modules) -> None:
        traced = self._wrap(span, layer, fn)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, traced)
                    self._undo.append((mod, key, fn))

    def _patch_class_attr(self, module, owner_name, attr, span, layer) -> None:
        owner = vars(module).get(owner_name)
        raw = vars(owner).get(attr) if isinstance(owner, type) else None
        if isinstance(raw, cached_property):
            new = cached_property(self._wrap(span, layer, raw.func))
            new.__set_name__(owner, attr)
        elif isinstance(raw, staticmethod):
            new = staticmethod(self._wrap(span, layer, raw.__func__))
        elif callable(raw):
            new = self._wrap(span, layer, raw)
        else:
            self.missing.append(span)
            return
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"missing": self.missing, "unlisted": self.unlisted,
                       "fields": ["name", "layer", "start_ns", "end_ns", "parent", "call", "alloc"],
                       "spans": [[s.name, s.layer, s.start, s.end, s.parent, s.call, s.alloc]
                                 for s in self.spans]}, fh)


# -- arithmetic -------------------------------------------------------------

def _covered(interval, children) -> int:
    """Length of the union of ``children`` clipped to ``interval``."""
    lo, hi = interval
    total = 0
    reach = lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[int]:
    """Per span: its duration minus the part its direct children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [(s.end - s.start) - _covered((s.start, s.end), children.get(i, ()))
            for i, s in enumerate(spans)]


def per_call(spans) -> dict[int, dict[str, float]]:
    """Per traced call: layer self times, span counts, inclusive function times, alloc peaks.

    A function's inclusive time skips spans nested in a span of the same
    name, so recursion is not counted twice.
    """
    selfs = self_times(spans)
    calls: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, s in enumerate(spans):
        row = calls[s.call]
        row[f"{s.layer}.self_ms"] += selfs[i] / 1e6
        row[f"{s.layer}.calls"] += 1
        parent = s.parent
        while parent is not None and spans[parent].name != s.name:
            parent = spans[parent].parent
        if parent is None:
            row[f"{s.name}.ms"] += (s.end - s.start) / 1e6
        if s.alloc is not None:
            key = f"{s.layer}.alloc_peak_mb"
            row[key] = max(row[key], s.alloc / 2**20)
    return calls


def summarize(rows: list[dict[str, float]], names) -> dict[str, float]:
    """Median of each metric over the calls that reach it; 0.0 where none does."""
    return {name: median([r[name] for r in rows if name in r]) if any(name in r for r in rows)
            else 0.0 for name in names}
