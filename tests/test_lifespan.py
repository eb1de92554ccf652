import numpy as np
import pytest

from nakao import lifespan
from nakao.lifespan import InconclusiveSweep, fit_powerlaw, sweep
from nakao.params import ProblemParams
from nakao.pde import InitialDataSpec, Numerics

FAST = Numerics(h=0.04, cfl=0.45, t_max=30.0, threshold=1e8)
LADDER = [0.5, 0.4, 0.3, 0.2]


def test_fit_powerlaw_exact():
    xs = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    slope, err = fit_powerlaw(xs, 3.0 * xs ** 0.75)
    assert slope == pytest.approx(0.75, abs=1e-12)
    assert err == pytest.approx(0.0, abs=1e-12)


def test_fit_powerlaw_constant():
    slope, err = fit_powerlaw([1.0, 2.0, 3.0, 4.0], [5.0] * 4)
    assert slope == 0.0 and err == 0.0


def test_fit_powerlaw_noise_recovers_slope():
    rng = np.random.default_rng(0)
    xs = np.logspace(0, 1, 12)
    ys = 2.0 * xs ** 0.75 * (1.0 + 0.05 * rng.standard_normal(12))
    slope, err = fit_powerlaw(xs, ys)
    assert slope == pytest.approx(0.75, abs=0.1)
    assert err > 0.0


def test_fit_powerlaw_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_powerlaw([1.0], [2.0])
    with pytest.raises(ValueError):
        fit_powerlaw([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])   # too few
    with pytest.raises(ValueError):
        fit_powerlaw([1.0, 2.0, 3.0, -4.0], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        fit_powerlaw([1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 3.0, 4.0])


def test_sweep_reference_point():
    fit = sweep(ProblemParams(1, 2.0, 2.0), LADDER, InitialDataSpec(), FAST)
    assert fit.predicted_slope == pytest.approx(0.75, rel=1e-12)
    assert fit.consistent
    assert fit.fitted_slope <= 0.75 * 1.35
    assert not fit.inconclusive
    assert np.all(np.diff(fit.epsilons) < 0)
    assert np.all(np.diff(fit.t_values) > 0)   # smaller eps lives longer


def test_sweep_rejects_bad_ladders():
    with pytest.raises(ValueError):
        sweep(ProblemParams(1, 2.0, 2.0), [0.5], InitialDataSpec(), FAST)
    with pytest.raises(ValueError):
        sweep(ProblemParams(1, 2.0, 2.0), [0.5, 0.5, 0.4, 0.3],
              InitialDataSpec(), FAST)
    with pytest.raises(ValueError):
        sweep(ProblemParams(3, 3.0, 3.0), LADDER, InitialDataSpec(), FAST)


@pytest.mark.parametrize("tol", [-1.0, -1e-12, float("inf"), float("nan")])
def test_sweep_refuses_bad_tol_before_running(tol, monkeypatch):
    # tol < 0 made the bound (1 + tol)/F smaller than 1/F, or 0 at tol = -1
    def no_run(*args, **kwargs):
        raise AssertionError("the simulator ran")

    monkeypatch.setattr(lifespan, "blowup_times", no_run)
    with pytest.raises(ValueError, match="tol must be finite"):
        sweep(ProblemParams(1, 2.0, 2.0), LADDER, InitialDataSpec(), FAST,
              tol=tol)


def test_sweep_inconclusive_when_tmax_too_short():
    short = Numerics(h=0.04, cfl=0.45, t_max=3.0, threshold=1e8)
    with pytest.raises(InconclusiveSweep):
        sweep(ProblemParams(1, 2.0, 2.0), LADDER, InitialDataSpec(), short)
