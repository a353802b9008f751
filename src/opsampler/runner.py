"""Config-driven pipelines behind the command-line interface.

Each run rebuilds everything from the config and its seed, in a fixed
draw order (generators, then averagers, then roundtrip coefficients,
then the free left-inverse parameter), so identical inputs give
byte-identical reports apart from the timing block.  The random stream
is numpy's SFC64 bit generator, seeded through ``SeedSequence(seed)``;
its name is recorded in the report.  Each ``random_hs`` operator is one
draw straight into its slot of the fiber stack.

Exit codes: 0 = pass, 1 = configuration error, 2 = condition failure
(a builder's refusal, a Riesz or frame verdict that fails, or a
roundtrip error above tolerance).  Every exit 2 report carries one
``failure`` block: a message, a witnessing dual-grid index and its
point.  A failing verdict is witnessed by its report's first witness; a
reconstruction by the dual index whose fiber it misses most.  A roundtrip
whose verdict fails draws no coefficients and builds no reconstructor.
"""

from __future__ import annotations

import os
import time

import numpy as np

from .builders import build_operator, rand_complex
from .config import ExperimentConfig, config_echo
from .errors import ConfigError, SingularTransfer
from .frames import TransferMatrix, frame_bounds
from .gridio import write_dual_values, write_phase_grid, write_transfer
from .lattice import Lattice, periodize_sq, unfibers
from .sampling import (
    AveragerSet,
    GeneratorSet,
    average_samples,
    build_reconstructor_multi,
    interpolation_check,
    relative_error,
    synthesize_element,
    system_transfer,
)
from .weyl import symplectic_ft

__all__ = ["run_analyze", "run_roundtrip", "run_export", "EXPORT_KINDS"]

RNG_ALGORITHM = "numpy.random.SFC64"
EXPORT_KINDS = ("symbols", "wigner", "periodization", "transfer")

EXIT_PASS = 0
EXIT_CONFIG = 1
EXIT_CONDITION = 2


def _make_rng(seed: int | None) -> np.random.Generator | None:
    """The stream every run draws from: SFC64 seeded through ``SeedSequence(seed)``."""
    if seed is None:
        return None
    return np.random.Generator(np.random.SFC64(seed))


def _fibers(specs, lat: Lattice, rng) -> np.ndarray:
    """Each spec's fibers built into its slot of one (K, |Lambda|, a*b) stack, in spec order."""
    P = np.empty((len(specs), lat.size, lat.a * lat.b), dtype=complex)
    for k, spec in enumerate(specs):
        build_operator(spec, lat, rng, out=P[k])
    return P


def _failure(report: dict, message: str, xi: int, point) -> None:
    report["failure"] = {"message": message, "witness_xi": xi,
                         "witness_point": [int(v) for v in point]}


def _start(cfg: ExperimentConfig, command: str, rng):
    """The report header and the (generators, averagers) sets, both held as
    fibers; the sets are None when a builder refuses, with the failure recorded."""
    lat = Lattice(cfg.L, cfg.a, cfg.b)
    report = {
        "command": command,
        "config": config_echo(cfg),
        "rng": None if cfg.seed is None else {"algorithm": RNG_ALGORITHM, "seed": cfg.seed},
        "lattice": {
            "L": cfg.L, "a": cfg.a, "b": cfg.b, "size": lat.size,
            "adjoint": {"a": lat.adjoint.a, "b": lat.adjoint.b},
        },
    }
    try:
        gens = GeneratorSet.build(_fibers(cfg.generators, lat, rng), lat, tol_factor=cfg.tol_pos)
        # without averagers the generators average themselves: reuse their fibers
        avgs = (AveragerSet(lat, gens.fibers) if cfg.averagers is None
                else AveragerSet.build(_fibers(cfg.averagers, lat, rng), lat))
    except SingularTransfer as exc:  # a builder's refusal (whitening)
        _failure(report, str(exc), exc.witness_xi, exc.witness_point)
        return report, None
    return report, (gens, avgs)


def _verdicts(report: dict, gens: GeneratorSet, avgs: AveragerSet, tol_factor: float):
    """Record the Riesz and frame reports; the first failing one writes the
    failure block at its first witness.  Returns the transfer matrix and its report."""
    That = system_transfer(gens, avgs)
    system = frame_bounds(That, tol_factor=tol_factor)
    report["generator_riesz"] = gens.riesz.to_jsonable()
    report["system_frame"] = system.to_jsonable()
    failing = next((rep for rep in (gens.riesz, system) if not rep.passed), None)
    if failing is not None:
        xi = failing.witnesses[0]
        _failure(report, f"{failing.kind} condition failed at dual index {xi}",
                 xi, failing.witness_points[0])
    return That, system


def _finish(report: dict, started: float) -> tuple[dict, int]:
    failed = "failure" in report
    report["status"] = "condition_failure" if failed else "pass"
    report["exit_code"] = EXIT_CONDITION if failed else EXIT_PASS
    report["timing"] = {"seconds": time.monotonic() - started}
    return report, report["exit_code"]


def run_analyze(cfg: ExperimentConfig) -> tuple[dict, int]:
    """Riesz verdict for the generators plus frame verdict for the system."""
    started = time.monotonic()
    report, sets = _start(cfg, "analyze", _make_rng(cfg.seed))
    if sets is not None:
        _verdicts(report, *sets, cfg.tol_pos)
    return _finish(report, started)


def run_roundtrip(cfg: ExperimentConfig) -> tuple[dict, int]:
    """Synthesize a random element, sample it, reconstruct, report the error."""
    started = time.monotonic()
    if cfg.seed is None:
        raise ConfigError("roundtrip draws random coefficients and needs a seed", field="seed")
    rng = _make_rng(cfg.seed)
    report, sets = _start(cfg, "roundtrip", rng)
    if sets is None:
        return _finish(report, started)
    gens, avgs = sets
    That, system = _verdicts(report, gens, avgs, cfg.tol_pos)
    if "failure" in report:
        return _finish(report, started)

    lat = gens.lattice
    c = rand_complex(rng, (gens.n, lat.size))
    C = None
    if cfg.c_matrix == "random":
        C = TransferMatrix(lat, rand_complex(rng, (lat.size, gens.n, avgs.m)))
    rec = build_reconstructor_multi(gens, That, system, C)

    # the element, its samples and its reconstruction, all as fibers:
    # reconstruction is synthesis from the reconstructors
    P = synthesize_element(c, gens.fibers, lat)
    P_rec = synthesize_element(average_samples(P, avgs), rec.fibers, lat)
    err = relative_error(P_rec, P)
    report["reconstruction"] = {
        "c_matrix": cfg.c_matrix,
        "relative_error": err,
        "tolerance": cfg.tolerance,
        "pass": bool(err <= cfg.tolerance),
    }
    if avgs.m == gens.n:
        ok, dev = interpolation_check(rec, avgs, tol=cfg.tolerance)
        report["interpolation"] = {"max_deviation": dev, "pass": bool(ok)}
    else:
        report["interpolation"] = None
    if not report["reconstruction"]["pass"]:
        # witnessed by the fiber the reconstruction misses most
        xi = int(np.argmax(np.linalg.norm(P_rec - P, axis=-1)))
        _failure(report, f"relative error {err:.3e} above tolerance {cfg.tolerance:.3e}",
                 xi, lat.dual_points[xi])
    return _finish(report, started)


def run_export(cfg: ExperimentConfig, what, out_dir) -> tuple[dict, int]:
    """Write CSV diagnostics; returns a manifest of the files written."""
    started = time.monotonic()
    kinds = EXPORT_KINDS if what in (None, "all") else (what,)
    for kind in kinds:
        if kind not in EXPORT_KINDS:
            raise ConfigError(f"unknown export kind {kind!r}; expected one of {EXPORT_KINDS}")
    os.makedirs(out_dir, exist_ok=True)
    report, sets = _start(cfg, "export", _make_rng(cfg.seed))
    if sets is None:
        return _finish(report, started)
    gens, avgs = sets
    lat = gens.lattice
    files = []

    def _emit(name, writer, *args):
        path = os.path.join(out_dir, name)
        writer(path, *args)
        files.append(name)

    for kind in kinds:
        if kind == "symbols":
            for n in range(gens.n):
                # the symbol is the symplectic FT of the trace transform (self-inverse)
                _emit(f"symbols_g{n}.csv", write_phase_grid,
                      symplectic_ft(unfibers(gens.fibers[n], lat)))
        elif kind == "wigner":
            for n in range(gens.n):
                _emit(f"wigner_g{n}.csv", write_phase_grid, unfibers(gens.fibers[n], lat))
        elif kind == "periodization":
            for n in range(gens.n):
                _emit(f"periodization_g{n}.csv", write_dual_values,
                      periodize_sq(unfibers(gens.fibers[n], lat), lat))
        elif kind == "transfer":
            _emit("transfer.csv", write_transfer, system_transfer(gens, avgs).values)
    report["export"] = {"what": list(kinds), "directory": str(out_dir), "files": files}
    return _finish(report, started)
