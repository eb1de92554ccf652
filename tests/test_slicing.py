import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nakao.params import ProblemParams
from nakao.slicing import (ConstantMode, DataConstants, InitMode,
                           IterationConfig, closed_form_deviation,
                           closed_form_exponents, even_beta_b, initial_state,
                           iterate, iteration_bounds, lifespan_upper_bound,
                           log_lower_bounds, product_limit, slice_factor,
                           step, thresholds)

from oracles import log_functional_bound_u, partial_product, weighted_sum

# spans every dimension case of the verdict split, both small and large pq
CONFIG_GRID = [(1, 2.0, 2.0), (1, 3.0, 2.0), (1, 1.5, 4.0),
               (2, 2.0, 2.0), (2, 1.5, 1.5), (2, 3.0, 2.0),
               (3, 2.0, 2.0), (3, 3.0, 3.0), (3, 1.5, 2.5),
               (4, 1.3, 1.6), (4, 2.0, 2.0), (5, 5 / 3, 1.2),
               (6, 1.4, 1.5), (10, 1.2, 1.2)]


def _cfg(n, p, q, mode=InitMode.EIGENFUNCTION, eps=1.0):
    return IterationConfig(params=ProblemParams(n, p, q, epsilon=eps),
                           init_mode=mode)


def test_slice_factor_values():
    assert slice_factor(1, 4.0) == 2.0
    assert slice_factor(2, 4.0) == 1.5
    assert slice_factor(3, 4.0) == 1.25
    assert partial_product(3, 4.0) == pytest.approx(3.75, rel=1e-15)
    for pq in (1.5, 2.0, 9.0, 100.0):
        assert slice_factor(1, pq) == 2.0


def test_slice_factor_log_ratio_limit():
    # consecutive log factors shrink by (pq)^{-1/2}
    r = math.log(slice_factor(31, 4.0)) / math.log(slice_factor(30, 4.0))
    assert r == pytest.approx(0.5, abs=1e-6)


def test_product_limit_frozen_value():
    # frozen from a 40-digit accumulation (two independent methods); the
    # returned value is certified to 1e-12 in log scale
    exact = 4.768462058062743
    assert product_limit(4.0) == pytest.approx(exact, rel=5e-12)
    prev = 0.0
    for j in range(1, 51):
        lj = partial_product(j, 4.0)
        assert prev < lj <= exact * (1 + 1e-14)
        prev = lj
    big = product_limit(1e6)
    assert 2.0 < big < 2.01


def test_partial_product_increment_identity():
    for pq in (2.25, 4.0, 6.25):
        for j in range(2, 30):
            lhs = partial_product(j, pq) - partial_product(j - 1, pq)
            rhs = partial_product(j - 1, pq) * pq ** ((1 - j) / 2)
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_initial_exponents_both_modes():
    st1 = initial_state(_cfg(1, 2.0, 2.0))
    # (n-1)p/2 = 0 in one dimension
    assert (st1.alpha, st1.a, st1.beta, st1.b) == (0.0, 0.0, 1.0, 1.0)
    st2 = initial_state(_cfg(2, 2.0, 2.0, mode=InitMode.DIRECT))
    assert (st2.alpha, st2.a, st2.beta, st2.b) == (2.0, 2.0, 3.0, 2.0)
    st3 = initial_state(_cfg(3, 2.0, 2.0))
    assert (st3.alpha, st3.a, st3.beta, st3.b) == (2.0, 0.0, 3.0, 1.0)


def test_initial_log_constants_unit_mode():
    st1 = initial_state(_cfg(1, 2.0, 2.0))
    assert st1.log_d == pytest.approx(math.log((1 - math.exp(-0.5)) / 2.0),
                                      rel=1e-14)
    assert st1.log_q == 0.0
    st2 = initial_state(_cfg(2, 2.0, 2.0, mode=InitMode.DIRECT, eps=0.5))
    assert st2.log_q == pytest.approx(2 * math.log(0.5) - math.log(2.0),
                                      rel=1e-14)
    assert st2.log_d == pytest.approx(
        2 * math.log(0.5) + math.log((1 - math.exp(-0.5)) / (3 * 8.0)),
        rel=1e-14)


def test_initial_state_rejects_inadmissible():
    with pytest.raises(ValueError):
        initial_state(_cfg(4, 2.5, 1.5))


def test_step_hand_recursion():
    cfg = _cfg(1, 2.0, 2.0)
    states = iterate(cfg, 4)
    assert [s.beta for s in states] == [1.0, 3.0, 9.0, 17.0]
    assert [s.b for s in states] == [1.0, 4.0, 8.0, 20.0]
    assert [s.alpha for s in states[:3]] == [0.0, 1.0, 3.0]
    assert states[1].ell == 1.5 and states[1].L == 3.0


def test_closed_form_examples():
    cfg = _cfg(1, 2.0, 2.0)
    a3, aa3, b3, bb3 = closed_form_exponents(3, cfg)
    assert b3 == pytest.approx((5 / 3 + 1) * 4 - 5 / 3, rel=1e-14)   # 9
    assert bb3 == pytest.approx((4 / 3 + 1) * 4 - 4 / 3, rel=1e-14)  # 8
    assert a3 == pytest.approx(3.0, rel=1e-14)
    st1 = initial_state(cfg)
    for cf, init in zip(closed_form_exponents(1, cfg),
                        (st1.alpha, st1.a, st1.beta, st1.b)):
        assert cf == pytest.approx(init, rel=1e-14, abs=1e-14)
    with pytest.raises(ValueError):
        closed_form_exponents(2, cfg)
    with pytest.raises(ValueError):
        even_beta_b(3, cfg)


@pytest.mark.parametrize("n,p,q", CONFIG_GRID)
@pytest.mark.parametrize("mode", list(InitMode))
def test_closed_forms_match_recursion(n, p, q, mode):
    cfg = _cfg(n, p, q, mode=mode)
    for s in iterate(cfg, 41):
        if s.j % 2 == 1:
            for cf, rec in zip(closed_form_exponents(s.j, cfg),
                               (s.alpha, s.a, s.beta, s.b)):
                assert cf == pytest.approx(rec, rel=1e-10, abs=1e-10)
        else:
            eb, ebb = even_beta_b(s.j, cfg)
            assert eb == pytest.approx(s.beta, rel=1e-10)
            assert ebb == pytest.approx(s.b, rel=1e-10)


def test_closed_form_deviation_flags_drift_and_nan():
    cfg = _cfg(2, 2.0, 2.0)
    odd, even = iterate(cfg, 4)[2:]
    assert (odd.j, even.j) == (3, 4)
    assert closed_form_deviation(odd, cfg) <= 1e-10
    assert closed_form_deviation(even, cfg) <= 1e-10
    drift = replace(odd, a=odd.a + 1e-6 * abs(odd.a))
    assert closed_form_deviation(drift, cfg) == pytest.approx(1e-6, rel=1e-3)
    # even j has no closed form for alpha, a
    assert (closed_form_deviation(replace(even, alpha=math.nan), cfg)
            == closed_form_deviation(even, cfg))
    assert math.isnan(closed_form_deviation(replace(odd, b=math.nan), cfg))
    assert math.isnan(closed_form_deviation(replace(even, beta=math.nan), cfg))


def test_weighted_sum_hand_values():
    assert weighted_sum(3, 4.0) == (3.0, 3.0)
    assert weighted_sum(5, 4.0) == (17.0, 17.0)
    for pq in (2.25, 4.0, 6.25):
        for j in range(3, 23, 2):
            brute, closed = weighted_sum(j, pq)
            assert closed == pytest.approx(brute, rel=1e-12)
    with pytest.raises(ValueError):
        weighted_sum(4, 4.0)


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=1, max_value=15),
       st.floats(min_value=1.1, max_value=12.0, allow_nan=False))
def test_weighted_sum_property(half, pq):
    j = 2 * half + 1
    brute, closed = weighted_sum(j, pq)
    assert closed == pytest.approx(brute, rel=1e-12)


@pytest.mark.parametrize("n,p,q", [(1, 2.0, 2.0), (2, 1.5, 1.5), (4, 1.3, 1.6)])
@pytest.mark.parametrize("mode", list(InitMode))
def test_growth_coefficient_bounds(n, p, q, mode):
    cfg = _cfg(n, p, q, mode=mode)
    bounds = iteration_bounds(cfg)
    pq = p * q
    m = math.exp(bounds.m_log)
    for s in iterate(cfg, 60):
        scale = pq ** ((s.j - 1) / 2 if s.j % 2 == 1 else s.j / 2)
        assert s.beta <= bounds.b0 * scale * (1 + 1e-12)
        assert s.b <= bounds.b0_tilde * scale * (1 + 1e-12)
        assert s.ell ** (-s.beta) >= m


@pytest.mark.parametrize("n,p,q", CONFIG_GRID)
@pytest.mark.parametrize("mode", list(InitMode))
def test_sequence_signs_and_growth(n, p, q, mode):
    cfg = _cfg(n, p, q, mode=mode)
    states = iterate(cfg, 41)
    for s in states:
        assert s.beta >= 1.0 and s.b >= 1.0
        assert s.alpha >= 0.0 and s.a >= 0.0
        assert s.ell >= 1.0   # strictly > 1 mathematically; saturates in floats
    # affine two-step recursions have slope pq, approached at rate (pq)^{-j/2}
    pq = p * q
    for seq in (lambda s: s.beta, lambda s: s.b):
        err_mid = abs(seq(states[20]) / seq(states[18]) - pq)
        err_end = abs(seq(states[40]) / seq(states[38]) - pq)
        assert err_end < err_mid or err_end < 1e-12
        assert states[-1].beta / states[-3].beta == pytest.approx(pq, rel=2e-3)


@pytest.mark.parametrize("mode", list(InitMode))
def test_two_step_inequality_with_certified_constants(mode):
    # log D_j >= log E0 - ((3/2+p) j - (p+1)) log(pq) + pq log D_{j-2}
    # must hold stepwise for the recursion-generated sequence (same for Q)
    for n, p, q in [(1, 2.0, 2.0), (2, 1.5, 1.5), (4, 1.3, 1.6)]:
        cfg = _cfg(n, p, q, mode=mode, eps=0.3)
        b = iteration_bounds(cfg)
        states = iterate(cfg, 41)
        pq, lpq = p * q, math.log(p * q)
        for j in range(3, 42, 2):
            s, s2 = states[j - 1], states[j - 3]
            rhs_d = b.log_e0 - ((1.5 + p) * j - (p + 1.0)) * lpq \
                + pq * s2.log_d
            assert s.log_d >= rhs_d - 1e-9 * abs(rhs_d)
            rhs_q = b.log_e0_tilde - ((1.0 + 1.5 * q) * j - 2.5 * q) * lpq \
                + pq * s2.log_q
            assert s.log_q >= rhs_q - 1e-9 * abs(rhs_q)


@pytest.mark.parametrize("eps", [1.0, 1e-2])
@pytest.mark.parametrize("mode", list(InitMode))
def test_recursion_dominates_lower_bound(eps, mode):
    cfg = _cfg(1, 2.0, 2.0, mode=mode, eps=eps)
    bounds = iteration_bounds(cfg)
    lo = max(bounds.j0, bounds.j1)
    checked = 0
    for s in iterate(cfg, 41):
        if s.j % 2 == 1 and s.j >= lo:
            lo_u, lo_v = log_lower_bounds(s.j, cfg, bounds)
            assert s.log_d >= lo_u - 1e-9 * max(1.0, abs(lo_u))
            assert s.log_q >= lo_v - 1e-9 * max(1.0, abs(lo_v))
            checked += 1
    assert checked >= 10


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=1.05, max_value=3.0, allow_nan=False),
       st.floats(min_value=1.05, max_value=3.0, allow_nan=False),
       st.integers(min_value=1, max_value=12),
       st.sampled_from(list(InitMode)))
def test_growth_coefficients_match_unrolled_sums(p, q, half, mode):
    # the certified bound comes from unrolling the two-step inequality down
    # to j = 1; the geometric-sum coefficients folded into growth_u/growth_v
    # must agree with the raw sums for every odd j
    params = ProblemParams(2, p, q)
    cfg = IterationConfig(params=params, init_mode=mode)
    b = iteration_bounds(cfg)
    init = initial_state(cfg)
    j = 2 * half + 1
    pq, s = p * q, p * q - 1.0
    lpq = math.log(pq)
    g = pq ** ((j - 1) / 2.0)
    s0 = sum(pq ** (k - 1) for k in range(1, (j - 1) // 2 + 1))
    s1 = weighted_sum(j, pq)[0] if j >= 3 else 0.0

    lhs_u = g * init.log_d - (1.5 + p) * lpq * s1 \
        + ((p + 1.0) * lpq + b.log_e0) * s0
    rhs_u = g * b.growth_u + (lpq / s) * ((1.5 + p) * (2.0 * pq / s + j)
                                          - (p + 1.0)) - b.log_e0 / s
    assert lhs_u == pytest.approx(rhs_u, rel=1e-11, abs=1e-9)

    lhs_v = g * init.log_q - (1.0 + 1.5 * q) * lpq * s1 \
        + (2.5 * q * lpq + b.log_e0_tilde) * s0
    rhs_v = g * b.growth_v + (lpq / s) * ((1.0 + 1.5 * q) * (2.0 * pq / s + j)
                                          - 2.5 * q) - b.log_e0_tilde / s
    assert lhs_v == pytest.approx(rhs_v, rel=1e-11, abs=1e-9)


def test_lower_bound_sign_tracks_growth_coefficient():
    cfg = _cfg(1, 2.0, 2.0, eps=1e-3)
    bounds = iteration_bounds(cfg)
    lo_small = [log_lower_bounds(j, cfg, bounds)[0] for j in (31, 41)]
    assert bounds.growth_u < 0 and lo_small[1] < lo_small[0]
    # a huge eps makes the growth coefficient positive and the bound diverge
    cfg_big = _cfg(1, 2.0, 2.0, eps=1e6)
    b_big = iteration_bounds(cfg_big)
    assert b_big.growth_u > 0
    lo_big = [log_lower_bounds(j, cfg_big, b_big)[0] for j in (31, 41)]
    assert lo_big[1] > lo_big[0]


def test_threshold_rounding():
    cfg = _cfg(1, 2.0, 2.0)
    j0, j1 = thresholds(cfg)
    assert j0 % 2 == 1 and j1 % 2 == 1 and j0 >= 1 and j1 >= 1
    # negative raw thresholds collapse to 1 (vacuous constraint)
    assert (j0, j1) == (1, 1)


def test_functional_bound_diverges_past_lifespan_bound():
    params = ProblemParams(1, 2.0, 2.0, epsilon=1e-3)
    lb = lifespan_upper_bound(params)
    cfg = IterationConfig(params=params, init_mode=InitMode.EIGENFUNCTION)
    bounds = iteration_bounds(cfg)
    t = max(lb.floor, lb.candidates["F1"]) * 1.5
    vals = [log_functional_bound_u(t, j, cfg, bounds, lb.product_limit)
            for j in (5, 9, 13, 17)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_lifespan_bound_binding_and_scaling():
    lb = lifespan_upper_bound(ProblemParams(1, 2.0, 2.0, epsilon=1e-3))
    assert lb.binding == "F3"   # 1/F = 3/4 exponent dominates at small eps
    lb2 = lifespan_upper_bound(ProblemParams(1, 2.0, 2.0, epsilon=5e-4))
    assert lb2.candidates["F3"] / lb.candidates["F3"] == \
        pytest.approx(2 ** 0.75, rel=1e-12)
    # formula check: exponent part matches (E1^{-1} 2^X)^{1/(pF1)} eps^{-1/F1}
    cfg = IterationConfig(params=ProblemParams(1, 2.0, 2.0, epsilon=1e-3))
    bounds = iteration_bounds(cfg)
    x_u = 0.0 + 1.0 + 5.0 / 3.0 - 1.0    # alpha1 + beta1 + c_beta - n
    f1 = 5.0 / 6.0
    expected = math.exp((x_u * math.log(2) - bounds.growth_u) / (2 * f1))
    assert lb.candidates["F1"] == pytest.approx(expected, rel=1e-12)


def test_lifespan_bound_floor():
    # at huge eps the power-law part sinks below max(R, 2L); the floor holds
    lb = lifespan_upper_bound(ProblemParams(1, 2.0, 2.0, epsilon=500.0))
    assert lb.t_upper == lb.floor
    assert lb.floor == pytest.approx(2 * lb.product_limit, rel=1e-12)


def test_lifespan_bound_rejects_non_blowup():
    with pytest.raises(ValueError):
        lifespan_upper_bound(ProblemParams(3, 3.0, 3.0))


@pytest.mark.parametrize("n,p,q", [(1, 2.0, 2.0), (1, 1.5, 4.0),
                                   (2, 1.5, 1.5), (2, 2.0, 2.5),
                                   (3, 1.5, 1.5), (4, 1.3, 1.6),
                                   (6, 1.2, 1.3), (10, 1.1, 1.1)])
def test_lifespan_bound_every_dimension_case(n, p, q):
    from nakao.exponents import Verdict, critical_values
    params = ProblemParams(n, p, q, epsilon=1e-3)
    assert critical_values(params).verdict is Verdict.BLOW_UP
    lb = lifespan_upper_bound(params)
    assert lb.candidates and lb.binding in lb.candidates
    assert math.isfinite(lb.t_upper) and lb.t_upper >= lb.floor
    # shrinking the data never shrinks the bound
    lb_small = lifespan_upper_bound(ProblemParams(n, p, q, epsilon=1e-4))
    assert lb_small.t_upper >= lb.t_upper


def test_explicit_constant_mode_shifts_bounds():
    params = ProblemParams(2, 2.0, 2.0, epsilon=0.1)
    unit = initial_state(IterationConfig(params=params))
    expl = initial_state(IterationConfig(
        params=params, constant_mode=ConstantMode.EXPLICIT,
        data=DataConstants(weighted_floor=0.5, v_slope=0.25),
        holder_constant=4.0))
    # log D1 shifts by p log C1 + (1-p) log C2, log Q1 by log C4
    assert expl.log_d - unit.log_d == pytest.approx(
        2 * math.log(0.5) - math.log(4.0), rel=1e-12)
    assert expl.log_q - unit.log_q == pytest.approx(math.log(0.25), rel=1e-12)
    with pytest.raises(ValueError):
        initial_state(IterationConfig(params=params,
                                      constant_mode=ConstantMode.EXPLICIT))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6),
       st.floats(min_value=1.05, max_value=3.0, allow_nan=False),
       st.floats(min_value=1.05, max_value=3.0, allow_nan=False),
       st.sampled_from(list(InitMode)),
       st.integers(min_value=1, max_value=10))
def test_closed_form_property(n, p, q, mode, half):
    params = ProblemParams(n, p, q)
    if not params.admissible:
        return
    cfg = IterationConfig(params=params, init_mode=mode)
    j = 2 * half + 1
    states = iterate(cfg, j)
    s = states[-1]
    for cf, rec in zip(closed_form_exponents(j, cfg),
                       (s.alpha, s.a, s.beta, s.b)):
        assert cf == pytest.approx(rec, rel=1e-9, abs=1e-9)
