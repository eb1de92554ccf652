"""Acceptance suite: every exit criterion as a test, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
Criterion 2 is parameterized per dimension; its n=4 case pins the exact
closed-form strip where the advertised split F = F1 is smaller than
max(F1..F4), and every other dimension must match the maximum exactly.
"""
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from nakao.cli import dispatch
from nakao.exponents import (alpha0, alpha1, alpha_n, comp_wave, f1, f2, f3,
                             f4, f_case, p0_exponent, strauss_exponent)
from nakao.lifespan import sweep
from nakao.params import ProblemParams, admissible_cap
from nakao.pde import InitialDataSpec, Numerics, run
from nakao.slicing import (InitMode, IterationConfig, closed_form_deviation,
                           iterate, iteration_bounds, log_lower_bounds)
from nakao.testfn import PhiEvaluator, holder_ratio

from oracles import (asymptotic_ratio, laplacian_residual, wave_residual,
                     weighted_sum)
from test_pde import _mms_error


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {state}: {name}{tail}")


def _grid(n: int, res: int = 101):
    hi = admissible_cap(n) if n >= 3 else 8.0
    vals = np.linspace(1.0, hi, res + 1)[1:]
    P, Q = np.meshgrid(vals, vals, indexing="ij")
    return P.ravel(), Q.ravel()


# ---------------------------------------------------------------------------
def test_criterion_1_region_equivalences():
    t0 = time.perf_counter()
    bad = 0
    for n in range(1, 11):
        P, Q = _grid(n)
        assert P.size >= 10_000
        half = (n - 1) / 2.0
        F1, F2 = f1(n, P, Q), f2(n, P, Q)
        F3, F4 = f3(n, P, Q), f4(n, P, Q)
        bad += int(np.sum((alpha0(P, Q) > half) != (np.maximum(F1, F2) > 0)))
        bad += int(np.sum((alpha1(P, Q) > half) != (np.maximum(F3, F4) > 0)))
        full = np.maximum(np.maximum(F1, F2), np.maximum(F3, F4))
        bad += int(np.sum((alpha_n(P, Q) > half) != (full > 0)))
    wall = time.perf_counter() - t0
    ok = bad == 0 and wall < 10.0
    _verdict(1, "region/exponent-positivity equivalences",
             ok, f"{bad} counterexamples, {wall:.2f}s")
    assert bad == 0
    assert wall < 10.0


def _split_gap(n, P, Q):
    """Closed-form set where the dimension split drops a larger exponent.

    F1 - F4 = (1 + 1/p - 2p)/(pq - 1) + (n+1)/2, so F4 > F1 exactly where
    1 + 1/p - 2p + (n+1)/2 (pq - 1) < 0.  At n = 3 the split keeps F4, and
    for n >= 5 the left side is at least p + 1/p - 2 >= 0, so only n = 4 has
    a gap: a thin strip inside 1 < q < 41/40, widest at p = 4/3.
    """
    if n != 4:
        return np.zeros(P.shape, dtype=bool)
    return 1.0 + 1.0 / P - 2.0 * P + (n + 1) / 2.0 * (P * Q - 1.0) < 0.0


@pytest.mark.parametrize("n", range(1, 11))
def test_criterion_2_dimension_case_split(n):
    P, Q = _grid(n)
    F1, F2 = f1(n, P, Q), f2(n, P, Q)
    F3, F4 = f3(n, P, Q), f4(n, P, Q)
    full = np.maximum(np.maximum(F1, F2), np.maximum(F3, F4))
    split = f_case(n, F1, F2, F3, F4)
    blow = alpha_n(P, Q) > (n - 1) / 2.0
    mism = blow & (full != split)
    strip = blow & _split_gap(n, P, Q)
    off = mism != strip
    count = int(np.sum(off))
    _verdict(2, f"dimension case split, n={n}", count == 0,
             f"{int(np.sum(mism))} split/max mismatches, "
             f"{count} off the closed-form strip")
    if count:
        i = int(np.argmax(off))
        pytest.fail(f"{count} grid points where the split departs from "
                    f"max(F1..F4) off the closed-form n=4 strip; first at "
                    f"(p,q)=({P[i]:.4f},{Q[i]:.4f}): max(F1..F4)={full[i]:.6f} "
                    f"vs split value {split[i]:.6f}, strip={bool(strip[i])}")
    if n == 4:
        assert np.any(strip)
        assert np.all(Q[strip] < 41 / 40)
        assert np.array_equal(split[strip], F1[strip])
        assert np.all(F4[strip] > F1[strip])
        assert np.all(F1[strip] > 0)


def test_criterion_3_paper_remarks():
    issues = []
    for n in range(3, 11):
        P, Q = _grid(n)
        half = (n - 1) / 2.0
        lhs = alpha_n(P, Q) > half
        rhs = comp_wave(P, Q) > half
        if np.any(lhs != rhs):
            issues.append(f"n={n}: wave-component equivalence fails")
        if np.any((alpha1(P, Q) > half) & ~(alpha0(P, Q) > half)):
            issues.append(f"n={n}: region inclusion fails")
    for n in (8, 9, 10):
        P, Q = _grid(n)
        if not np.all(alpha_n(P, Q) > (n - 1) / 2.0):
            issues.append(f"n={n}: full admissible box not blow-up")
    _verdict(3, "high-dimension remarks", not issues, "; ".join(issues))
    assert not issues


def test_criterion_4_root_solvers():
    checks = [
        abs(strauss_exponent(3) - (1 + math.sqrt(2))) < 1e-12,
        abs(p0_exponent(2) - (1 + math.sqrt(2))) < 1e-12,
    ]
    for n in range(2, 13):
        ps, pc = strauss_exponent(n), p0_exponent(n)
        checks.append(pc < ps)
        checks.append(abs((n - 1) * ps * ps - (n + 1) * ps - 2) < 1e-12)
        checks.append(abs((n - 1) * pc ** 3 - (n + 3) * pc - 2) < 1e-12)
    ok = all(checks)
    _verdict(4, "critical-exponent root solvers", ok)
    assert ok


CONFIGS_5 = [(1, 2.0, 2.0), (1, 3.0, 2.0), (1, 1.5, 4.0),
             (2, 2.0, 2.0), (2, 1.5, 1.5), (2, 3.0, 2.0),
             (3, 2.0, 2.0), (3, 3.0, 3.0), (3, 1.5, 2.5),
             (4, 1.3, 1.6), (4, 2.0, 2.0), (5, 5 / 3, 1.2),
             (6, 1.4, 1.5), (10, 1.2, 1.2)]


def test_criterion_5_iteration_engine():
    t0 = time.perf_counter()
    worst_cf = 0.0
    for n, p, q in CONFIGS_5:
        for mode in InitMode:
            cfg = IterationConfig(params=ProblemParams(n, p, q),
                                  init_mode=mode)
            for s in iterate(cfg, 41):
                # np.maximum keeps a NaN deviation
                worst_cf = float(np.maximum(worst_cf,
                                            closed_form_deviation(s, cfg)))
    assert worst_cf < 1e-10

    worst_sum = 0.0
    for pq in (2.25, 4.0, 6.25):
        for j in range(3, 23, 2):
            brute, closed = weighted_sum(j, pq)
            worst_sum = max(worst_sum, abs(brute - closed) / abs(brute))
    assert worst_sum < 1e-12

    dominated = True
    for n, p, q, eps in [(1, 2.0, 2.0, 1e-2), (1, 2.0, 2.0, 1.0),
                         (2, 2.0, 2.0, 0.1), (4, 1.3, 1.6, 0.1)]:
        for mode in InitMode:
            cfg = IterationConfig(params=ProblemParams(n, p, q, epsilon=eps),
                                  init_mode=mode)
            bounds = iteration_bounds(cfg)
            lo = max(bounds.j0, bounds.j1)
            for s in iterate(cfg, 41):
                if s.j % 2 == 1 and s.j >= lo:
                    lo_u, lo_v = log_lower_bounds(s.j, cfg, bounds)
                    if (s.log_d < lo_u - 1e-9 * max(1, abs(lo_u))
                            or s.log_q < lo_v - 1e-9 * max(1, abs(lo_v))):
                        dominated = False
    wall = time.perf_counter() - t0
    ok = dominated and wall < 1.0
    _verdict(5, "iteration engine oracle equivalence", ok,
             f"closed-form err {worst_cf:.1e}, sum err {worst_sum:.1e}, "
             f"{wall:.3f}s")
    assert dominated
    assert wall < 1.0


def test_criterion_6_test_function_checks():
    issues = []
    for n in (1, 2, 3):
        ev = PhiEvaluator(n)
        r = np.linspace(0.2, 5.0, 60)
        res1 = laplacian_residual(ev, r, 2e-3)
        res2 = laplacian_residual(ev, r, 1e-3)
        order = math.log2(res1 / res2)
        if order < 1.9:
            issues.append(f"n={n}: residual order {order:.2f}")
        h, dt = 2e-3, 1e-3
        wres = wave_residual(ev, r, 1.0, h, dt)
        tol = (h * h + dt * dt) / 12.0 * float(np.max(ev.phi(r))) \
            * math.exp(-1.0) * 4.0
        if wres > tol:
            issues.append(f"n={n}: wave residual {wres:.2e} > {tol:.2e}")
        ratio = asymptotic_ratio(ev, np.linspace(20.0, 60.0, 81))
        drift = float((ratio.max() - ratio.min()) / ratio.min())
        if drift >= 0.01:
            issues.append(f"n={n}: asymptotic drift {drift:.3%}")
    plateaus = {(1, 2.0): 11.253720815694038, (2, 2.0): 179.45109047396946,
                (3, 2.0): 1832.8569424776128}
    for (n, p), cap in plateaus.items():
        ev = PhiEvaluator(n)
        ts = np.linspace(0.0, 50.0, 101)
        ratio = holder_ratio(ev, ts, p, 1.0)
        if not np.all(np.isfinite(ratio)) or float(np.max(ratio)) > cap * 1.01:
            issues.append(f"(n,p)=({n},{p}): ratio unbounded")
        tail = ratio[ts >= 40.0]
        if (tail.max() - tail.min()) / tail.min() >= 0.05:
            issues.append(f"(n,p)=({n},{p}): no late plateau")
    _verdict(6, "eigenfunction/Hoelder checks", not issues, "; ".join(issues))
    assert not issues


def test_criterion_7_simulator_correctness():
    issues = []
    errs = [_mms_error(h) for h in (0.04, 0.02, 0.01)]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    if min(orders) < 1.9:
        issues.append(f"manufactured-solution orders {orders}")

    params = ProblemParams(1, 2.0, 2.0, epsilon=0.05)
    res = {}
    for h in (0.02, 0.01):
        tr = run(params, InitialDataSpec(), Numerics(h=h, cfl=0.45, t_max=2.0))
        res[h] = (tr.res_u_max, tr.res_v_max)
    ratios = [res[0.02][i] / res[0.01][i] for i in range(2)]
    if not all(3.4 <= r <= 4.6 for r in ratios):   # clean second order: ~4x
        issues.append(f"balance residual refinement ratios {ratios}")

    for n in (1, 2, 3):
        p_run = ProblemParams(n, 2.0, 2.0, epsilon=0.3)
        num = Numerics(h=0.02, cfl=0.45, t_max=5.0)
        tr = run(p_run, InitialDataSpec(), num)
        if tr.support_max_excess > 2 * num.h:
            issues.append(f"n={n}: support excess {tr.support_max_excess:.3f}")
        if not (np.all(tr.U >= 0) and np.all(tr.V >= 0)):
            issues.append(f"n={n}: functional positivity")
        if np.min(np.diff(tr.V, 2)) < -1e-11 * (1 + float(np.max(tr.V))):
            issues.append(f"n={n}: V' not nondecreasing")
    detail = (f"orders {orders[0]:.2f}/{orders[1]:.2f}, "
              f"residual ratios {ratios[0]:.1f}/{ratios[1]:.1f}")
    _verdict(7, "simulator correctness", not issues,
             detail if not issues else "; ".join(issues))
    assert not issues


def test_criterion_8_lifespan_scaling():
    t0 = time.perf_counter()
    params = ProblemParams(1, 2.0, 2.0, R=1.0)
    ladder = [0.4, 0.3, 0.2, 0.15, 0.1]
    spec = InitialDataSpec()
    fits = {}
    for threshold in (1e8, 1e6):
        num = Numerics(h=0.02, cfl=0.45, t_max=60.0, threshold=threshold)
        fits[threshold] = sweep(params, ladder, spec, num)
    fit_half = sweep(params, ladder, spec,
                     Numerics(h=0.01, cfl=0.45, t_max=60.0, threshold=1e8))
    wall = time.perf_counter() - t0

    main = fits[1e8]
    checks = {
        "all points blow up": not main.inconclusive
                              and not fits[1e6].inconclusive
                              and not fit_half.inconclusive,
        "one-sided slope bound": main.fitted_slope <= 0.75 * 1.35,
        "threshold shift < 0.1":
            abs(main.fitted_slope - fits[1e6].fitted_slope) < 0.1,
        "grid shift < 0.05":
            abs(main.fitted_slope - fit_half.fitted_slope) < 0.05,
        "runtime < 5 min": wall < 300.0,
    }
    ok = all(checks.values())
    _verdict(8, "lifespan scaling at n=1",
             ok, f"slope {main.fitted_slope:.4f} vs 3/4, "
                 f"shifts {abs(main.fitted_slope - fits[1e6].fitted_slope):.4f}"
                 f"/{abs(main.fitted_slope - fit_half.fitted_slope):.4f}, "
                 f"{wall:.1f}s")
    for name, passed in checks.items():
        assert passed, name


def test_criterion_9_determinism(tmp_path):
    cases = {
        "region": ["region", "--n", "2", "--grid", "12", "--svg"],
        "curves": ["curves", "--n-min", "2", "--n-max", "8"],
        "sequences": ["sequences", "--n", "1", "--p", "2", "--q", "2",
                      "--jmax", "21"],
        "testfn": ["testfn", "--n", "2", "--r-max", "5", "--num", "21"],
        "simulate": ["simulate", "--n", "1", "--p", "2", "--q", "2",
                     "--epsilon", "0.5", "--h", "0.04", "--t-max", "8"],
        "sweep": ["sweep", "--n", "1", "--p", "2", "--q", "2", "--h", "0.04",
                  "--t-max", "30", "--epsilons", "0.5,0.4,0.3,0.2"],
        "report": ["report", "--n", "1", "--p", "2", "--q", "2"],
    }
    unstable = []
    for name, argv in cases.items():
        out = tmp_path / name
        snapshots = []
        for _ in range(2):
            rc = dispatch(argv + ["--out", str(out)])
            assert rc == 0, name
            blobs = {p.name: p.read_bytes()
                     for p in tmp_path.glob(f"{name}*") if p.is_file()}
            snapshots.append(blobs)
        if snapshots[0] != snapshots[1]:
            unstable.append(name)
    _verdict(9, "byte-identical reruns for every subcommand", not unstable,
             ", ".join(unstable) or "7 subcommands")
    assert not unstable


def test_acceptance_summary_note():
    # criterion 2 pins the n=4 gap to its closed-form strip; this meta-check
    # asserts the gap stays confined near q = 1 with F4 above F1
    P, Q = _grid(4)
    F1, F4 = f1(4, P, Q), f4(4, P, Q)
    blow = alpha_n(P, Q) > 1.5
    mism = blow & (np.maximum(np.maximum(F1, f2(4, P, Q)),
                              np.maximum(f3(4, P, Q), F4)) != F1)
    assert np.all(Q[mism] < 1.1)
    assert np.all(F4[mism] > F1[mism])
    _verdict(0, "criterion-2 n=4 counterexamples confined to the q<1.1 strip",
             True, f"{int(np.sum(mism))} grid points")
