"""Epsilon sweeps of the simulator and the power-law lifespan fit.

The theory gives only an upper bound T(eps) <= C eps^{-1/F}, so acceptance of
a fit is one-sided: the measured slope of log T against log(1/eps) must not
exceed the predicted 1/F by more than the tolerance factor.  A sweep steps
the whole ladder at once (`pde.blowup_times`: level arrays with a trailing
epsilon axis), and each blow-up time equals that of its own `pde.run`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exponents import Verdict, critical_values
from .params import ProblemParams
from .pde import InitialDataSpec, Numerics, blowup_times


class InconclusiveSweep(ValueError):
    """Raised when too few ladder points blow up before t_max."""


def fit_powerlaw(xs, ys) -> tuple[float, float]:
    """Ordinary least squares of log ys against log xs: (slope, stderr).

    Needs at least four strictly positive points; stderr comes from the
    residual variance of the log-log fit.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size < 4:
        raise ValueError(f"need at least 4 points, got {x.size}")
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise ValueError("power-law fit needs strictly positive inputs")
    lx, ly = np.log(x), np.log(y)
    dx = lx - lx.mean()
    sxx = float(dx @ dx)
    if sxx == 0.0:
        raise ValueError("degenerate fit: all abscissae equal")
    slope = float(dx @ (ly - ly.mean())) / sxx
    resid = ly - ly.mean() - slope * dx
    ssr = float(resid @ resid)
    stderr = (ssr / (x.size - 2) / sxx) ** 0.5
    return slope, stderr


@dataclass(frozen=True)
class LifespanFit:
    """Result of one epsilon ladder: data, fit, prediction, verdict."""

    epsilons: np.ndarray       # strictly decreasing, conclusive points only
    t_values: np.ndarray
    fitted_slope: float
    slope_stderr: float
    predicted_slope: float     # 1/F from the dimension-split exponent
    consistent: bool           # fitted <= predicted * (1 + tol)
    tol: float
    inconclusive: tuple[float, ...]  # ladder points that never crossed


def sweep(params: ProblemParams, epsilons, spec: InitialDataSpec,
          numerics: Numerics, tol: float = 0.35) -> LifespanFit:
    """Run the ladder, fit log T against log(1/eps), compare with 1/F.

    Ladder points that reach t_max without crossing the threshold are
    excluded from the fit and reported in `inconclusive`; no point crosses at
    t = 0, since make_initial_data refuses data past the threshold.  Requires
    a finite tol >= 0, a blow-up verdict and at least four distinct ladder
    values (ValueError before any run) and at least four conclusive points
    (InconclusiveSweep).
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    report = critical_values(params)
    if report.verdict is not Verdict.BLOW_UP:
        raise ValueError(f"sweep needs a blow-up point, verdict is "
                         f"{report.verdict.value}")
    eps_list = [float(e) for e in epsilons]
    eps = sorted(set(eps_list), reverse=True)
    if len(eps) != len(eps_list):
        raise ValueError("ladder values must be distinct")
    if len(eps) < 4:
        raise ValueError(f"a ladder needs at least 4 distinct values, "
                         f"got {len(eps)}")
    if report.F <= 0.0:
        raise ValueError("nonpositive lifespan exponent")
    results = list(zip(eps, blowup_times(params, eps, spec, numerics)))
    concl = [(e, t) for e, t in results if t is not None]
    inconcl = tuple(e for e, t in results if t is None)
    if len(concl) < 4:
        raise InconclusiveSweep(f"only {len(concl)} conclusive ladder points; "
                                f"inconclusive: {sorted(inconcl)}")
    e_arr = np.array([e for e, _ in concl])
    t_arr = np.array([t for _, t in concl])
    slope, stderr = fit_powerlaw(1.0 / e_arr, t_arr)
    predicted = 1.0 / report.F
    return LifespanFit(epsilons=e_arr, t_values=t_arr, fitted_slope=slope,
                       slope_stderr=stderr, predicted_slope=predicted,
                       consistent=slope <= predicted * (1.0 + tol),
                       tol=tol, inconclusive=inconcl)
