"""Config-driven pipelines behind the command-line interface.

Each run rebuilds everything from the config and its seed, in a fixed
draw order (generators, then averagers, then roundtrip coefficients,
then the free left-inverse parameter), so identical inputs give
byte-identical reports apart from the timing block.  The random stream
is numpy's SFC64 bit generator, seeded through ``SeedSequence(seed)``;
its name is recorded in the report.  Each ``random_hs`` operator is one
draw straight into its slot of the fiber stack.

Every operator of a run is built into one ``(N + M, |Lambda|, a*b)``
fiber stack by one ``_fibers`` call, generators first; the pipeline
passes plain arrays with the lattice: the generator fibers P and the
averager fibers Q, the stack's two slices (without averagers Q is P),
and the transfer matrix.  One stack, not two, is what keeps a repeated
call's working set resident under glibc: a freed block above the mmap
threshold is unmapped and lifts the heap's trim threshold to twice its
size.  Two stacks left that at twice Q (2.1 MB for many_channels'
roundtrip, (105, 7, 5) with N = 4, M = 6), below a call's working set,
so each call trimmed the heap and the next faulted some 600 pages back
in; the one stack (1.76 MB) lifts it to 3.5 MB and those calls fault
none.  Still churning (``ru_minflt``, calls 11-20 in one interpreter):
runs without averagers, whose stack is only P (about 310 faults a
roundtrip and 330 an analyze at (105, 7, 5), N = 4), and a repeated
export at (75, 5, 5), N = 3, M = 4 (about 275, from the CSV writer's
temporaries).

A roundtrip stays in coefficient space.  Synthesis is linear, so the
samples' series is A c_hat, the transfer matrix applied to the
coefficients' series; the left inverse recovers d_hat from it, and the
error fiber at xi, sum_n e_n P_n[xi] with e_hat = d_hat - c_hat, has the
squared norm e^T G conj(e), G being the coset Gram the Riesz test formed
and kept on its report.  So no element, sample or reconstructor is
formed; the relative error is sqrt(sum_xi e^T G conj(e) / sum_xi c^T G
conj(c)).  Only the square-system interpolation check forms the left
inverse B, and reads the reconstructors' samples off A B.  It takes the
Moore-Penrose member (no C): a square system has one left inverse, so
every C gives it up to roundoff, and it solves with the same Gram
matrices as the reconstruction did.

Exit codes: 0 = pass, 1 = configuration error, 2 = condition failure
(a builder's refusal, a Riesz or frame verdict that fails, a passing
frame report whose Gram matrix is singular to the solve, a roundtrip
error above tolerance, or a square system's interpolation deviation
above it).  Every exit 2 report carries one ``failure`` block: a
message, a witnessing dual-grid index and its point.  A failing or
singular report is witnessed by its first witness; a reconstruction by
the dual index whose error fiber is largest; an interpolation miss,
which a reconstruction miss takes precedence over, by the dual index
with the largest entry of |A B - I|.  A roundtrip whose verdict fails
draws no coefficients, and neither it nor one whose Gram matrix is
singular reconstructs anything.
"""

from __future__ import annotations

import os
import time

import numpy as np

from .builders import build_operator, rand_complex
from .config import ExperimentConfig, config_echo
from .errors import ConfigError, SingularTransfer
from .frames import frame_bounds, gram_matrix_bounds, left_inverse_family
from .lattice import Lattice, _matmul, periodize_sq, symplectic_series, unfibers
from .sampling import interpolation_check, system_transfer
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
    """The lattice, the report header and the generator and averager fibers
    (P, Q), two slices of one stack; they are None when a builder refuses,
    with the failure recorded."""
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
        S = _fibers(cfg.generators + (cfg.averagers or ()), lat, rng)
    except SingularTransfer as exc:  # a builder's refusal (whitening)
        _failure(report, str(exc), exc.witness_xi, exc.witness_point)
        return lat, report, None
    n = len(cfg.generators)
    P = S[:n]
    # without averagers the generators average themselves
    return lat, report, (P, P if cfg.averagers is None else S[n:])


def _verdicts(report: dict, P, Q, lat: Lattice, tol_factor: float):
    """Record the Riesz and frame reports; the first failing one writes the
    failure block at its first witness.  Returns both reports and the
    transfer matrix."""
    riesz = gram_matrix_bounds(P, lat, tol_factor)
    A = system_transfer(P, Q, lat)
    system = frame_bounds(A, lat, tol_factor)
    report["generator_riesz"] = riesz.to_jsonable()
    report["system_frame"] = system.to_jsonable()
    failing = next((rep for rep in (riesz, system) if not rep.passed), None)
    if failing is not None:
        xi = failing.witnesses[0]
        _failure(report, f"{failing.kind} condition failed at dual index {xi}",
                 xi, failing.witness_points[0])
    return riesz, A, system


def _finish(report: dict, started: float) -> tuple[dict, int]:
    failed = "failure" in report
    report["status"] = "condition_failure" if failed else "pass"
    report["exit_code"] = EXIT_CONDITION if failed else EXIT_PASS
    report["timing"] = {"seconds": time.monotonic() - started}
    return report, report["exit_code"]


def run_analyze(cfg: ExperimentConfig) -> tuple[dict, int]:
    """Riesz verdict for the generators plus frame verdict for the system."""
    started = time.monotonic()
    lat, report, stacks = _start(cfg, "analyze", _make_rng(cfg.seed))
    if stacks is not None:
        _verdicts(report, *stacks, lat, cfg.tol_pos)
    return _finish(report, started)


def _norms_sq(G, x) -> np.ndarray:
    """x[xi]^T G[xi] conj(x[xi]) per xi, for coefficient series x (|Lambda|, N, 1):
    the squared norm of the fiber sum_n x_n P_n[xi] when G is P's coset Gram."""
    return (x * _matmul(G, x.conj())).sum(axis=(1, 2)).real


def run_roundtrip(cfg: ExperimentConfig) -> tuple[dict, int]:
    """Draw a random element's coefficients, recover them from the series of
    its samples, report the relative HS error of the reconstruction."""
    started = time.monotonic()
    if cfg.seed is None:
        raise ConfigError("roundtrip draws random coefficients and needs a seed", field="seed")
    rng = _make_rng(cfg.seed)
    lat, report, stacks = _start(cfg, "roundtrip", rng)
    if stacks is None:
        return _finish(report, started)
    P, Q = stacks
    riesz, A, system = _verdicts(report, P, Q, lat, cfg.tol_pos)
    if "failure" in report:
        return _finish(report, started)

    n, m = len(P), len(Q)
    c = rand_complex(rng, (n, lat.size))
    C = rand_complex(rng, (lat.size, n, m)) if cfg.c_matrix == "random" else None

    # in coefficient space: the samples' series is A c_hat, the left inverse
    # recovers d_hat from it, and the error fiber's squared norm at xi is the
    # Riesz Gram's quadratic form in e_hat = d_hat - c_hat
    c_hat = symplectic_series(c, lat).T[:, :, None]
    try:
        e_hat = left_inverse_family(A, system, C, _matmul(A, c_hat))
    except SingularTransfer as exc:  # a passing G with an exactly zero pivot
        _failure(report, str(exc), exc.witness_xi, exc.witness_point)
        return _finish(report, started)
    e_hat -= c_hat
    misses = _norms_sq(riesz.gram, e_hat)  # >= 0 up to roundoff, as is their sum
    err = float(np.sqrt(max(misses.sum(), 0.0) / _norms_sq(riesz.gram, c_hat).sum()))
    report["reconstruction"] = {
        "c_matrix": cfg.c_matrix,
        "relative_error": err,
        "tolerance": cfg.tolerance,
        "pass": bool(err <= cfg.tolerance),
    }
    if m == n:
        B = left_inverse_family(A, system)
        ok, dev = interpolation_check(A, B, lat, tol=cfg.tolerance)
        report["interpolation"] = {"max_deviation": dev, "pass": bool(ok)}
    else:
        report["interpolation"] = None
    if not report["reconstruction"]["pass"]:
        # witnessed by the dual index whose fiber the reconstruction misses most
        xi = int(np.argmax(misses))
        _failure(report, f"relative error {err:.3e} above tolerance {cfg.tolerance:.3e}",
                 xi, lat.dual_points[xi])
    elif m == n and not ok:
        # witnessed by the dual index where A B is furthest from the identity
        xi = int(np.argmax(np.abs(_matmul(A, B) - np.eye(n)).max(axis=(1, 2))))
        _failure(report, f"interpolation deviation {dev:.3e} above tolerance {cfg.tolerance:.3e}",
                 xi, lat.dual_points[xi])
    return _finish(report, started)


def run_export(cfg: ExperimentConfig, what, out_dir) -> tuple[dict, int]:
    """Write CSV diagnostics; returns a manifest of the files written."""
    # imported here, so that analyze and roundtrip never load the CSV writers
    from .gridio import write_dual_values, write_phase_grid, write_transfer

    started = time.monotonic()
    kinds = EXPORT_KINDS if what in (None, "all") else (what,)
    for kind in kinds:
        if kind not in EXPORT_KINDS:
            raise ConfigError(f"unknown export kind {kind!r}; expected one of {EXPORT_KINDS}")
    os.makedirs(out_dir, exist_ok=True)
    lat, report, stacks = _start(cfg, "export", _make_rng(cfg.seed))
    if stacks is None:
        return _finish(report, started)
    P, Q = stacks
    files = []

    def _emit(name, writer, *args):
        path = os.path.join(out_dir, name)
        writer(path, *args)
        files.append(name)

    for kind in kinds:
        if kind == "symbols":
            for n in range(len(P)):
                # the symbol is the symplectic FT of the trace transform (self-inverse)
                _emit(f"symbols_g{n}.csv", write_phase_grid, symplectic_ft(unfibers(P[n], lat)))
        elif kind == "wigner":
            for n in range(len(P)):
                _emit(f"wigner_g{n}.csv", write_phase_grid, unfibers(P[n], lat))
        elif kind == "periodization":
            for n in range(len(P)):
                _emit(f"periodization_g{n}.csv", write_dual_values,
                      periodize_sq(P[n], lat))
        elif kind == "transfer":
            _emit("transfer.csv", write_transfer, system_transfer(P, Q, lat))
    report["export"] = {"what": list(kinds), "directory": str(out_dir), "files": files}
    return _finish(report, started)
