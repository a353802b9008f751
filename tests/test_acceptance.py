"""Acceptance suite: one test per shipped guarantee, each printing a
single PASS/FAIL line with the measured margin.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import json
import time

import numpy as np

from opsampler.cli import main
from opsampler.frames import (
    frame_bounds,
    gram_matrix_bounds,
    interpolation_check,
    left_inverse_family,
)
from opsampler.lattice import Lattice, periodize_sq
from opsampler.weyl import symplectic_ft
from oracles import (
    ConvolutionMatrix,
    average_samples,
    build_reconstructor_multi,
    fibers,
    fourier_wigner,
    hs_inner,
    hs_norm,
    operator_of,
    points,
    relative_error,
    sample_filter_matrix,
    synthesize_element,
    trace_fibers,
    transfer_matrix,
    translate_operator,
    translation_covariance_check,
    weyl_symbol,
    weyl_transform,
)

rng = np.random.default_rng(20240809)


def _report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def rand_op(L):
    return rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))


def rand_coeffs(n, lat):
    return rng.standard_normal((n, lat.size)) + 1j * rng.standard_normal((n, lat.size))


def operator_error(P_rec, P, lat):
    """Relative HS error of the operators quantized from two elements' fibers."""
    T = operator_of(P, lat)
    return float(np.linalg.norm(operator_of(P_rec, lat) - T) / hs_norm(T))


def coset_zeroed_generator(lat):
    spectrum = fourier_wigner(rand_op(lat.L))
    z0 = lat.dual_points[rng.integers(0, lat.size)]
    for mu in points(lat.adjoint):
        spectrum[(z0[0] + mu[0]) % lat.L, (z0[1] + mu[1]) % lat.L] = 0.0
    return weyl_transform(symplectic_ft(spectrum))


def test_criterion_01_weyl_unitarity():
    started = time.monotonic()
    worst = 0.0
    for L in (9, 15, 33):
        for _ in range(40):
            S, T = rand_op(L), rand_op(L)
            dev = abs(hs_inner(S, T) - np.vdot(weyl_symbol(T), weyl_symbol(S)))
            worst = max(worst, dev / (hs_norm(S) * hs_norm(T)))
    elapsed = time.monotonic() - started
    ok = worst <= 1e-10 and elapsed < 5.0
    _report(1, "weyl-unitarity", ok,
            f"120 pairs, max rel dev {worst:.2e} <= 1e-10; {elapsed:.2f}s < 5s")


def test_criterion_02_translation_covariance_exhaustive():
    started = time.monotonic()
    L = 9
    F = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
    scale = np.linalg.norm(F)
    worst = max(translation_covariance_check(F, (x, w)) / scale
                for x in range(L) for w in range(L))
    elapsed = time.monotonic() - started
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(2, "translation-covariance", ok,
            f"all {L * L} shifts at L=9, max rel residual {worst:.2e} <= 1e-10; "
            f"{elapsed:.2f}s < 10s")


def test_criterion_03_trace_transform_is_symplectic_ft_of_symbol():
    L = 15
    worst = 0.0
    for _ in range(50):
        S = rand_op(L)
        dev = np.linalg.norm(fourier_wigner(S) - symplectic_ft(weyl_symbol(S)))
        worst = max(worst, dev / np.linalg.norm(S))
    ok = worst <= 1e-10
    _report(3, "trace-transform-identity", ok,
            f"50 operators at L=15, max rel dev {worst:.2e} <= 1e-10")


def test_criterion_04_samples_are_convolutions():
    lat = Lattice(15, 3, 5)
    worst = 0.0
    for n, m in ((1, 1), (1, 2), (2, 2), (2, 3)):
        for _ in range(50):
            P = trace_fibers([rand_op(15) for _ in range(n)], lat)
            Q = trace_fibers([rand_op(15) for _ in range(m)], lat)
            A = sample_filter_matrix(P, Q, lat)
            c = rand_coeffs(n, lat)
            s = average_samples(synthesize_element(c, P, lat), Q, lat)
            dev = np.linalg.norm(s - A.convolve(c)) / np.linalg.norm(s)
            worst = max(worst, dev)
    ok = worst <= 1e-9
    _report(4, "samples-as-convolution", ok,
            f"50 instances per (N,M) in (1,1),(1,2),(2,2),(2,3); "
            f"max rel dev {worst:.2e} <= 1e-9")


def test_criterion_05_single_generator_roundtrip():
    started = time.monotonic()
    worst = 0.0
    for L, a, b in ((15, 3, 5), (33, 3, 11)):
        lat = Lattice(L, a, b)
        S = rand_op(L)
        P = trace_fibers([S], lat)
        for averager in (S, rand_op(L)):
            Q = trace_fibers([averager], lat)
            That = transfer_matrix(sample_filter_matrix(P, Q, lat))
            H = build_reconstructor_multi(P, That, frame_bounds(That, lat))
            T = synthesize_element(rand_coeffs(1, lat), P, lat)
            T_rec = synthesize_element(average_samples(T, Q, lat), H, lat)
            # the error of the fibers and of the operators they quantize
            worst = max(worst, relative_error(T_rec, T), operator_error(T_rec, T, lat))
    elapsed = time.monotonic() - started
    ok = worst <= 1e-9 and elapsed < 30.0
    _report(5, "single-generator-roundtrip", ok,
            f"L in (15,33), steps (3,5)/(3,11), matched and random averagers; "
            f"max rel err {worst:.2e} <= 1e-9; {elapsed:.2f}s < 30s")


def test_criterion_06_oversampled_roundtrip_and_left_inverse():
    lat = Lattice(15, 3, 5)
    P = trace_fibers([rand_op(15), rand_op(15)], lat)
    Q = trace_fibers([rand_op(15) for _ in range(3)], lat)
    A = sample_filter_matrix(P, Q, lat)
    That = transfer_matrix(A)
    T = synthesize_element(rand_coeffs(2, lat), P, lat)
    s = average_samples(T, Q, lat)
    worst_err, worst_res = 0.0, 0.0
    C = rng.standard_normal((lat.size, 2, 3)) + 1j * rng.standard_normal((lat.size, 2, 3))
    report = frame_bounds(That, lat)
    for free in (None, C):
        H = build_reconstructor_multi(P, That, report, free)
        T_rec = synthesize_element(s, H, lat)
        worst_err = max(worst_err, relative_error(T_rec, T), operator_error(T_rec, T, lat))
        prod = np.einsum("xnm,xmk->xnk", left_inverse_family(That, report, free), That)
        worst_res = max(worst_res, float(np.abs(prod - np.eye(2)).max()))
    ok = worst_err <= 1e-9 and worst_res <= 1e-10
    _report(6, "oversampled-roundtrip", ok,
            f"N=2 M=3 with zero and random free parameter; max rel err "
            f"{worst_err:.2e} <= 1e-9, left-inverse residual {worst_res:.2e} <= 1e-10")


def test_criterion_07_interpolation_property():
    lat = Lattice(15, 3, 5)
    worst = worst_ops = 0.0
    for n in (1, 2):
        P = trace_fibers([rand_op(15) for _ in range(n)], lat)
        ops = [rand_op(15) for _ in range(n)]
        Q = trace_fibers(ops, lat)
        That = transfer_matrix(sample_filter_matrix(P, Q, lat))
        report = frame_bounds(That, lat)
        H = build_reconstructor_multi(P, That, report)
        _, dev = interpolation_check(That, left_inverse_family(That, report), lat, tol=1e-9)
        worst = max(worst, dev)
        # the quantized operators H_n, paired with the translated averagers
        Hops = operator_of(H, lat)
        s = np.array([[[hs_inner(Hops[k], translate_operator(tuple(lam), ops[m]))
                        for lam in points(lat)] for k in range(n)] for m in range(n)])
        expect = np.zeros_like(s)
        expect[:, :, 0] = np.eye(n)
        worst_ops = max(worst_ops, float(np.abs(s - expect).max()))
    ok = worst <= 1e-9 and worst_ops <= 1e-9
    _report(7, "interpolation-property", ok,
            f"square systems N=M in (1,2); max |samples - delta pattern| "
            f"{worst:.2e} from the fibers, {worst_ops:.2e} from the operators, <= 1e-9")


def test_criterion_08_riesz_criterion_equivalence():
    lat = Lattice(15, 3, 5)

    def verdicts(S):
        aS = weyl_symbol(S)
        q = np.array([np.vdot(np.roll(aS, tuple(p), (0, 1)), aS) for p in points(lat)])
        P = periodize_sq(trace_fibers(S, lat), lat)
        return (frame_bounds(transfer_matrix(ConvolutionMatrix(lat, q[None, None])), lat).passed,
                gram_matrix_bounds(fibers(fourier_wigner(S[None]), lat), lat).passed,
                bool(P.min() > 1e-10 * P.max()))

    agreements = 0
    for _ in range(50):
        v = verdicts(rand_op(15))
        assert v == (True, True, True), f"passing generator disagreed: {v}"
        agreements += 1
    for _ in range(5):
        v = verdicts(coset_zeroed_generator(lat))
        assert v == (False, False, False), f"failing generator disagreed: {v}"
        agreements += 1
    _report(8, "criterion-equivalence", agreements == 55,
            "single-filter, Gram and periodization verdicts agree on 50 "
            "random + 5 engineered generators")


def test_criterion_09_empirical_frame_inequality():
    lat = Lattice(15, 3, 5)
    slack = 1e-12
    ok = True
    for n, m in ((1, 1), (1, 2), (2, 2), (2, 3)):
        P = trace_fibers([rand_op(15) for _ in range(n)], lat)
        Q = trace_fibers([rand_op(15) for _ in range(m)], lat)
        A = sample_filter_matrix(P, Q, lat)
        rep = frame_bounds(transfer_matrix(A), lat)
        for _ in range(100):
            c = rand_coeffs(n, lat)
            energy = np.linalg.norm(A.convolve(c)) ** 2
            nc = np.linalg.norm(c) ** 2
            ok = ok and rep.alpha * nc <= energy * (1 + slack)
            ok = ok and energy <= rep.beta * nc * (1 + slack)
    _report(9, "empirical-frame-inequality", ok,
            "alpha||c||^2 <= ||A*c||^2 <= beta||c||^2 on 100 draws per "
            "(N,M) system; Parseval factor 1 under this normalization")


def test_criterion_10_failure_safety(tmp_path, capsys):
    ok = True
    for k in range(20):
        t1, t2 = map(int, rng.integers(0, 15, 2))
        cfg = {"L": 15, "lattice": {"a": 3, "b": 5},
               "generators": [{"kind": "delta_pair", "t1": t1, "t2": t2}],
               "seed": int(rng.integers(0, 2**32))}
        path = tmp_path / f"bad{k}.json"
        path.write_text(json.dumps(cfg))
        rc = main(["roundtrip", "--config", str(path)])
        report = json.loads(capsys.readouterr().out)
        ok = ok and rc == 2
        ok = ok and report["failure"]["witness_xi"] is not None
        ok = ok and "reconstruction" not in report
        ok = ok and np.isfinite(report["generator_riesz"]["alpha"])
    _report(10, "failure-safety", ok,
            "20 engineered spectrum-zero generators: exit code 2, dual-grid "
            "witness attached, no operator emitted")
