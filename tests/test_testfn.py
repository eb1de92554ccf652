import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import i0

from nakao import testfn
from nakao.params import sphere_area
from nakao.testfn import (PhiEvaluator, c2_constant, holder_ratio,
                          psi_holder_norm)

from oracles import asymptotic_ratio, laplacian_residual, wave_residual


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_phi_at_origin_is_sphere_area(n):
    assert PhiEvaluator(n).phi(0.0) == pytest.approx(sphere_area(n), rel=1e-12)


def test_phi_n1_closed_form():
    ev = PhiEvaluator(1)
    r = np.linspace(0.0, 30.0, 61)
    assert np.allclose(ev.phi(r), 2.0 * np.cosh(r), rtol=1e-13)


def test_phi_n3_closed_form():
    ev = PhiEvaluator(3)
    assert ev.phi(2.0) == pytest.approx(4 * math.pi * math.sinh(2.0) / 2.0,
                                        rel=1e-12)
    for r in (0.5, 1.0, 5.0, 20.0):
        assert ev.phi(r) == pytest.approx(4 * math.pi * math.sinh(r) / r,
                                          rel=1e-12)


def test_phi_n2_matches_bessel():
    ev = PhiEvaluator(2)
    for r in (0.3, 1.0, 4.0, 12.0):
        assert ev.phi(r) == pytest.approx(2 * math.pi * i0(r), rel=1e-11)


def test_phi_positive_even_increasing():
    for n in (1, 2, 3):
        ev = PhiEvaluator(n)
        r = np.linspace(0.0, 10.0, 200)
        vals = ev.phi(r)
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) > 0)


@pytest.mark.parametrize("n,tol", [(1, 2e-5), (2, 1e-4), (3, 1e-4)])
def test_laplacian_residual_small_and_second_order(n, tol):
    # residual scale is h^2/12 * Phi(5) ~ 1.2e-5 at h = 1e-3
    ev = PhiEvaluator(n)
    r = np.linspace(0.1, 5.0, 80)
    res = laplacian_residual(ev, r, 1e-3)
    res_half = laplacian_residual(ev, r, 5e-4)
    assert res < tol
    assert res / res_half > 3.4   # ~4x per halving


def test_wave_residual_combined_tolerance():
    for n in (1, 2, 3):
        ev = PhiEvaluator(n)
        res = wave_residual(ev, np.linspace(0.5, 5.0, 40), 1.0, 1e-3, 1e-3)
        # second-order stencils on a function of size ~Phi(5)
        assert res < 1e-4 * float(np.max(ev.phi(5.0)))


def test_asymptotic_ratio_drift_below_one_percent():
    for n in (1, 2, 3):
        ev = PhiEvaluator(n)
        ratio = asymptotic_ratio(ev, np.linspace(20.0, 60.0, 81))
        drift = (ratio.max() - ratio.min()) / ratio.min()
        assert drift < 0.01


def test_log_phi_far_field_and_switch_continuity():
    for n in (1, 2, 3):
        ev = PhiEvaluator(n)
        assert math.isfinite(ev.log_phi(500.0))
        below, above = ev.log_phi(ev.r_switch - 1e-9), ev.log_phi(ev.r_switch + 1e-9)
        assert below == pytest.approx(above, rel=1e-9)


def test_holder_norm_n1_closed_form():
    ev = PhiEvaluator(1)
    # integral of (e^x + e^{-x})^2 over [-1, 1] = 2 sinh(2) + 4
    assert psi_holder_norm(ev, 0.0, 2.0, 1.0) == \
        pytest.approx(2 * math.sinh(2.0) + 4.0, rel=1e-12)


@pytest.mark.parametrize("n,p,t", [(2, 2.0, 3.0), (3, 2.5, 1.5)])
def test_holder_norm_against_scipy_quad(n, p, t):
    ev = PhiEvaluator(n)
    pp = p / (p - 1.0)

    def integrand(r):
        return math.exp(pp * (ev.log_phi(r) - t)) * r ** (n - 1)

    oracle, err = quad(integrand, 0.0, 1.0 + t, limit=200)
    oracle *= sphere_area(n)
    assert psi_holder_norm(ev, t, p, 1.0) == pytest.approx(oracle, rel=1e-9)


def test_holder_ratio_bounded_and_plateaus():
    # frozen plateau maxima over t in [0, 50], R = 1 (computed once at 101 pts)
    frozen = {(1, 2.0): 11.253720815694038, (2, 2.0): 179.45109047396946,
              (3, 2.0): 1832.8569424776128}
    for (n, p), cap in frozen.items():
        ev = PhiEvaluator(n)
        ts = np.linspace(0.0, 50.0, 101)
        ratio = holder_ratio(ev, ts, p, 1.0)
        assert np.all(np.isfinite(ratio))
        assert float(np.max(ratio)) <= cap * 1.01
        # late-time plateau: the last decade moves by < 5%
        tail = ratio[ts >= 40.0]
        assert (tail.max() - tail.min()) / tail.min() < 0.05
        assert c2_constant(ev, p, 1.0) == pytest.approx(float(np.max(ratio)),
                                                        rel=1e-12)


def test_phi_large_radius_against_scaled_bessel():
    from scipy.special import i0e
    ev = PhiEvaluator(2)
    for r in (50.0, 100.0, 150.0, 199.0):
        exact = math.log(2 * math.pi) + math.log(i0e(r)) + r
        assert ev.log_phi(r) == pytest.approx(exact, abs=1e-10)
    # beyond the switch the single-constant asymptotic carries the 1/(8r) tail
    exact500 = math.log(2 * math.pi) + math.log(i0e(500.0)) + 500.0
    assert ev.log_phi(500.0) == pytest.approx(exact500, abs=1e-3)


def test_quadrature_auto_refinement(monkeypatch):
    from scipy.special import i0e
    monkeypatch.setattr(testfn, "_START_ORDER", 8)
    ev = PhiEvaluator(2)
    assert ev.order > 8   # the starting order cannot resolve r_switch
    exact = math.log(2 * math.pi) + math.log(i0e(40.0)) + 40.0
    assert ev.log_phi(40.0) == pytest.approx(exact, abs=1e-10)


def test_unconverged_quadrature_refused(monkeypatch):
    monkeypatch.setattr(testfn, "_START_ORDER", 8)
    monkeypatch.setattr(testfn, "_MAX_ORDER", 16)
    with pytest.raises(ValueError, match="not converged"):
        PhiEvaluator(2)
    assert PhiEvaluator(1).phi(1.0) == pytest.approx(2 * math.cosh(1.0))


def test_log_phi_independent_of_call_history():
    # n = 22 is the first dimension whose rule is refined past order 64
    ev = PhiEvaluator(22)
    before = ev.log_phi(1.0)
    ev.log_phi(300.0)
    assert ev.log_phi(1.0) == before == PhiEvaluator(22).log_phi(1.0)


@pytest.mark.parametrize("n", range(2, 13))
def test_rule_converged_below_switch_radius(n):
    # the order is chosen at r_switch only; it must hold at smaller radii too
    ev = PhiEvaluator(n)
    r = np.linspace(0.0, ev.r_switch, 401)
    chosen = ev._log_phi_quad(r, ev.order)
    doubled = ev._log_phi_quad(r, 2 * ev.order)
    assert np.all(np.abs(chosen - doubled)
                  <= 1e-12 * np.maximum(1.0, np.abs(doubled)))


def test_holder_norm_rejects_bad_inputs():
    ev = PhiEvaluator(1)
    with pytest.raises(ValueError):
        psi_holder_norm(ev, -1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        psi_holder_norm(ev, 0.0, 1.0, 1.0)


@pytest.mark.parametrize("call", [
    lambda ev: psi_holder_norm(ev, math.inf, 2.0, 1.0),
    lambda ev: psi_holder_norm(ev, math.nan, 2.0, 1.0),
    lambda ev: psi_holder_norm(ev, 1e300, 2.0, 1.0),
    lambda ev: psi_holder_norm(ev, 0.0, math.inf, 1.0),
    lambda ev: psi_holder_norm(ev, 0.0, math.nan, 1.0),
    lambda ev: psi_holder_norm(ev, 0.0, 2.0, math.inf),
    lambda ev: psi_holder_norm(ev, 0.0, 2.0, math.nan),
    lambda ev: holder_ratio(ev, [0.0, math.nan], 2.0, 1.0),
    lambda ev: holder_ratio(ev, [0.0, math.inf], 2.0, 1.0),
    lambda ev: holder_ratio(ev, [0.0, 1.0], math.nan, 1.0),
    lambda ev: holder_ratio(ev, [0.0, 1.0], 2.0, math.inf),
    lambda ev: c2_constant(ev, math.nan, 1.0),
    lambda ev: c2_constant(ev, 2.0, math.nan),
], ids=["psi-t-inf", "psi-t-nan", "psi-t-huge", "psi-p-inf", "psi-p-nan",
        "psi-R-inf", "psi-R-nan", "ratio-t-nan", "ratio-t-inf", "ratio-p-nan",
        "ratio-R-inf", "c2-p-nan", "c2-R-nan"])
def test_holder_norms_refuse_non_finite_inputs(call):
    # each refusal is a ValueError, not an OverflowError or a wrapped panel
    # count (t = 1e300 needs more panels than any array can hold)
    with pytest.raises(ValueError):
        call(PhiEvaluator(2))


# c2_constant(PhiEvaluator(n), p, 1.0) as computed with one linspace panel
# layout per t (equal panels of width <= 0.5 on [0, 1 + t]); at R = 1 every
# 1 + t of c2_constant's grid is a lattice edge, so the layouts coincide
_C2_AT_R1 = {
    (1, 1.1): 64300.99878541727, (1, 1.3): 92.94192365950275,
    (1, 1.5): 27.459580893605487, (1, 2.0): 11.253720815694038,
    (2, 1.1): 9243438771.396202, (2, 1.3): 15877.155552406944,
    (2, 1.5): 1140.9627260657144, (2, 2.0): 179.45109047396934,
    (3, 1.1): 57027019776111.14, (3, 1.3): 788812.925152737,
    (3, 1.5): 23365.796504982747, (3, 2.0): 1832.856942477606,
}


@pytest.mark.parametrize("n,p", sorted(_C2_AT_R1))
def test_c2_constant_bit_identical_on_lattice(n, p):
    assert c2_constant(PhiEvaluator(n), p, 1.0) == _C2_AT_R1[n, p]


@pytest.mark.parametrize("R", [1.0, 1.3])
@pytest.mark.parametrize("n,p", [(1, 1.5), (2, 2.0), (3, 1.1)])
def test_holder_ratio_equals_per_t_norms(n, p, R):
    ev = PhiEvaluator(n)
    ts = np.linspace(0.0, 50.0, 101)
    expo = (n - 1) * (2.0 - p / (p - 1.0)) / 2.0
    per_t = np.array([psi_holder_norm(ev, t, p, R) for t in ts])
    assert np.array_equal(holder_ratio(ev, ts, p, R), per_t / (R + ts) ** expo)


@pytest.mark.parametrize("R,t", [(1.3, 0.5), (1.3, 0.7), (0.3, 0.0)])
@pytest.mark.parametrize("n,p", [(1, 2.0), (2, 2.0), (3, 1.5)])
def test_holder_norm_off_lattice_against_scipy_quad(n, p, R, t):
    # R + t = 1.8 ends in a partial panel, 1.3 + 0.7 rounds to the lattice
    # edge 2.0, and 0.3 is shorter than one panel
    ev = PhiEvaluator(n)
    pp = p / (p - 1.0)

    def integrand(r):
        return math.exp(pp * (ev.log_phi(r) - t)) * r ** (n - 1)

    oracle = sphere_area(n) * quad(integrand, 0.0, R + t, limit=200)[0]
    assert psi_holder_norm(ev, t, p, R) == pytest.approx(oracle, rel=1e-9)


def _count_radii(monkeypatch) -> list:
    sizes = []
    log_phi = PhiEvaluator.log_phi

    def counting(self, r):
        sizes.append(np.size(r))
        return log_phi(self, r)

    monkeypatch.setattr(PhiEvaluator, "log_phi", counting)
    return sizes


def test_c2_constant_evaluates_each_radius_once(monkeypatch):
    ev = PhiEvaluator(2)
    sizes = _count_radii(monkeypatch)
    c2_constant(ev, 1.5, 1.0)
    # 102 lattice panels of 16 nodes cover [0, 51]; no partial panel
    assert sizes == [1632]


def test_c2_constant_off_lattice_adds_one_panel_per_t(monkeypatch):
    ev = PhiEvaluator(2)
    sizes = _count_radii(monkeypatch)
    c2_constant(ev, 1.5, 1.3)
    lattice = 16 * math.floor((1.3 + 50.0) / 0.5)
    assert len(sizes) == 2
    assert sum(sizes) <= lattice + 16 * 101
