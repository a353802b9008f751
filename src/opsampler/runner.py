"""Config-driven pipelines behind the command-line interface.

Each run rebuilds everything from the config and its seed, in a fixed
draw order (generators, then averagers, then roundtrip coefficients,
then the free left-inverse parameter), so identical inputs give
byte-identical reports apart from the timing block.  The random stream
is numpy's SFC64 bit generator, seeded through ``SeedSequence(seed)``;
its name is recorded in the report.  Each ``random_hs`` operator is one
draw straight into its slot of the fiber stack.

Exit codes: 0 = pass, 1 = configuration error, 2 = condition failure
(a spectrum with a zero, a non-frame sampling system, or a roundtrip
error above tolerance).  Condition failures still produce a report with
the witnessing dual-grid index; no operator is emitted for them.
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


def _base_report(cfg: ExperimentConfig, command: str) -> dict:
    lat = Lattice(cfg.L, cfg.a, cfg.b)
    return {
        "command": command,
        "config": config_echo(cfg),
        "rng": None if cfg.seed is None else {"algorithm": RNG_ALGORITHM, "seed": cfg.seed},
        "lattice": {
            "L": cfg.L, "a": cfg.a, "b": cfg.b, "size": lat.size,
            "adjoint": {"a": lat.adjoint.a, "b": lat.adjoint.b},
        },
    }


def _fibers(specs, lat: Lattice, rng) -> np.ndarray:
    """Each spec's fibers built into its slot of one (K, |Lambda|, a*b) stack, in spec order."""
    P = np.empty((len(specs), lat.size, lat.a * lat.b), dtype=complex)
    for k, spec in enumerate(specs):
        build_operator(spec, lat, rng, out=P[k])
    return P


def _build_sets(cfg: ExperimentConfig, rng):
    """(generators, averagers), both held as fibers."""
    lat = Lattice(cfg.L, cfg.a, cfg.b)
    gens = GeneratorSet.build(_fibers(cfg.generators, lat, rng), lat, tol_factor=cfg.tol_pos)
    if cfg.averagers is None:
        # the generators average themselves: reuse their fibers
        return gens, AveragerSet(lat, gens.fibers)
    return gens, AveragerSet.build(_fibers(cfg.averagers, lat, rng), lat)


def _failure(report: dict, exc: SingularTransfer) -> dict:
    report["failure"] = {
        "message": str(exc),
        "witness_xi": exc.witness_xi,
        "witness_point": None if exc.witness_point is None else list(exc.witness_point),
    }
    report["status"] = "condition_failure"
    report["exit_code"] = EXIT_CONDITION
    return report


def _finish(report: dict, started: float, passed: bool) -> tuple[dict, int]:
    if "status" not in report:
        report["status"] = "pass" if passed else "condition_failure"
        report["exit_code"] = EXIT_PASS if passed else EXIT_CONDITION
    report["timing"] = {"seconds": time.monotonic() - started}
    return report, report["exit_code"]


def run_analyze(cfg: ExperimentConfig) -> tuple[dict, int]:
    """Riesz verdict for the generators plus frame verdict for the system."""
    started = time.monotonic()
    report = _base_report(cfg, "analyze")
    try:
        gens, avgs = _build_sets(cfg, _make_rng(cfg.seed))
    except SingularTransfer as exc:
        return _finish(_failure(report, exc), started, False)
    report["generator_riesz"] = gens.riesz.to_jsonable()
    system = frame_bounds(system_transfer(gens, avgs), tol_factor=cfg.tol_pos)
    report["system_frame"] = system.to_jsonable()
    try:
        for rep in (gens.riesz, system):
            rep.require("{kind} condition failed at dual index {xi}")
    except SingularTransfer as exc:
        return _finish(_failure(report, exc), started, False)
    return _finish(report, started, True)


def run_roundtrip(cfg: ExperimentConfig) -> tuple[dict, int]:
    """Synthesize a random element, sample it, reconstruct, report the error."""
    started = time.monotonic()
    if cfg.seed is None:
        raise ConfigError("roundtrip draws random coefficients and needs a seed", field="seed")
    report = _base_report(cfg, "roundtrip")
    rng = _make_rng(cfg.seed)
    try:
        gens, avgs = _build_sets(cfg, rng)
    except SingularTransfer as exc:
        return _finish(_failure(report, exc), started, False)
    report["generator_riesz"] = gens.riesz.to_jsonable()
    That = system_transfer(gens, avgs)
    system = frame_bounds(That, tol_factor=cfg.tol_pos)
    report["system_frame"] = system.to_jsonable()

    lat = gens.lattice
    c = rand_complex(rng, (gens.n, lat.size))
    C = None
    if cfg.c_matrix == "random":
        C = TransferMatrix(lat, rand_complex(rng, (lat.size, gens.n, avgs.m)))
    try:
        gens.riesz.require("generator translates are not a Riesz sequence "
                           "(min Gram eigenvalue {alpha:.3e} at dual index {xi})")
        rec = build_reconstructor_multi(gens, That, system, C)
    except SingularTransfer as exc:
        return _finish(_failure(report, exc), started, False)

    # the element, its samples and its reconstruction, all as fibers:
    # reconstruction is synthesis from the reconstructors
    P = synthesize_element(c, gens.fibers, lat)
    err = relative_error(synthesize_element(average_samples(P, avgs), rec.fibers, lat), P)
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
    return _finish(report, started, report["reconstruction"]["pass"])


def run_export(cfg: ExperimentConfig, what, out_dir) -> tuple[dict, int]:
    """Write CSV diagnostics; returns a manifest of the files written."""
    started = time.monotonic()
    kinds = EXPORT_KINDS if what in (None, "all") else (what,)
    for kind in kinds:
        if kind not in EXPORT_KINDS:
            raise ConfigError(f"unknown export kind {kind!r}; expected one of {EXPORT_KINDS}")
    os.makedirs(out_dir, exist_ok=True)
    report = _base_report(cfg, "export")
    try:
        gens, avgs = _build_sets(cfg, _make_rng(cfg.seed))
    except SingularTransfer as exc:
        return _finish(_failure(report, exc), started, False)
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
    return _finish(report, started, True)
