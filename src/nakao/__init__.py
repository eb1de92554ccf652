"""Critical curves, slicing-iteration bounds and radial finite-difference
experiments for a weakly coupled damped-wave/wave system.

pde.step and slicing.step stay module-qualified (one advances the field, the
other the iteration state)."""

from . import exponents, lifespan, params, pde, slicing, testfn
from .exponents import (ExponentReport, Verdict, critical_values,
                        diagonal_blowup_bound, fujita_exponent, p0_exponent,
                        region_axes, region_scan, strauss_exponent)
from .lifespan import LifespanFit, fit_powerlaw, sweep
from .params import ProblemParams, admissible_cap, ball_volume, sphere_area
from .pde import FunctionalTrace, InitialDataSpec, Numerics, RadialField, run
from .slicing import (ConstantMode, DataConstants, InitMode, IterationConfig,
                      SlicingState, closed_form_exponents, initial_state,
                      iterate, iteration_bounds, lifespan_upper_bound,
                      log_lower_bounds, product_limit, slice_factor,
                      thresholds)
from .testfn import PhiEvaluator, c2_constant, holder_ratio, psi_holder_norm

__version__ = "0.1.0"

__all__ = [
    "exponents", "lifespan", "params", "pde", "slicing", "testfn",
    "ExponentReport", "Verdict", "critical_values", "diagonal_blowup_bound",
    "fujita_exponent", "p0_exponent", "region_axes", "region_scan",
    "strauss_exponent",
    "LifespanFit", "fit_powerlaw", "sweep",
    "ProblemParams", "admissible_cap", "ball_volume", "sphere_area",
    "FunctionalTrace", "InitialDataSpec", "Numerics", "RadialField", "run",
    "ConstantMode", "DataConstants", "InitMode", "IterationConfig",
    "SlicingState", "closed_form_exponents", "initial_state", "iterate",
    "iteration_bounds", "lifespan_upper_bound", "log_lower_bounds",
    "product_limit", "slice_factor", "thresholds",
    "PhiEvaluator", "c2_constant", "holder_ratio", "psi_holder_norm",
    "__version__",
]
