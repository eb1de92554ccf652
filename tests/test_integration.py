"""Cross-module chain: measure data constants from a simulator run, feed them
into the explicit-constants iteration, and check the certified functional
bound sits below the measured functionals on its validity window."""
import math

import numpy as np

from nakao.params import ProblemParams
from nakao.pde import InitialDataSpec, Numerics, run
from nakao.slicing import (ConstantMode, DataConstants, InitMode,
                           IterationConfig, iteration_bounds, product_limit)
from nakao.testfn import PhiEvaluator, c2_constant

from oracles import log_functional_bound_u


def test_explicit_constants_from_measured_run():
    params = ProblemParams(1, 2.0, 2.0, R=1.0, epsilon=0.2)
    num = Numerics(h=0.02, cfl=0.45, t_max=12.0)
    trace = run(params, InitialDataSpec(), num)
    assert trace.t_blowup is None   # the window [2L, 12] stays smooth

    eps = params.epsilon
    late = trace.times >= 1.0
    measured = DataConstants(
        weighted_floor=float(np.min(trace.V1)) / eps,
        v_slope=float(np.min(trace.V[late] / trace.times[late])) / eps,
        u_mass=float(np.min(trace.U)) / eps,
    )
    assert measured.weighted_floor > 0
    assert measured.v_slope > 0
    assert measured.u_mass > 0

    holder = c2_constant(PhiEvaluator(1), params.p, params.R)
    limit = product_limit(params.pq)
    t_checks = [t for t in (10.0, 11.0) if t >= max(params.R, 2 * limit)]
    assert t_checks

    for mode in InitMode:
        cfg = IterationConfig(params=params, init_mode=mode,
                              constant_mode=ConstantMode.EXPLICIT,
                              data=measured, holder_constant=holder)
        bounds = iteration_bounds(cfg)
        start = max(bounds.j0, bounds.j1)
        for t in t_checks:
            i = int(np.argmin(np.abs(trace.times - t)))
            log_u_measured = math.log(trace.U[i])
            for j in range(start, start + 8, 2):
                lb = log_functional_bound_u(t, j, cfg, bounds, limit)
                assert math.isfinite(lb)
                assert log_u_measured >= lb


def test_unit_vs_explicit_bounds_ordering():
    # with sub-unit measured constants the explicit bound can only be weaker
    params = ProblemParams(1, 2.0, 2.0, epsilon=0.2)
    small = DataConstants(weighted_floor=0.05, v_slope=0.05, u_mass=0.05)
    unit_cfg = IterationConfig(params=params)
    expl_cfg = IterationConfig(params=params,
                               constant_mode=ConstantMode.EXPLICIT,
                               data=small, holder_constant=12.0)
    b_unit = iteration_bounds(unit_cfg)
    b_expl = iteration_bounds(expl_cfg)
    assert b_expl.growth_u < b_unit.growth_u
    assert b_expl.growth_v < b_unit.growth_v
