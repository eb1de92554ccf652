#!/usr/bin/env python3
"""Reference lifespan experiment: n=1, p=q=2 epsilon ladder.

Runs the simulator over the ladder, fits log T against log(1/eps), and
compares the slope with the predicted 1/F (here 3/4).  The theory gives an
upper bound only, so the meaningful check is one-sided.
"""
import argparse
import sys

from nakao import InitialDataSpec, Numerics, ProblemParams, critical_values
from nakao.lifespan import sweep
from nakao.slicing import lifespan_upper_bound


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--h", type=float, default=0.02)
    ap.add_argument("--threshold", type=float, default=1e8)
    ap.add_argument("--epsilons", default="0.4,0.3,0.2,0.15,0.1")
    args = ap.parse_args(argv)

    params = ProblemParams(n=1, p=2.0, q=2.0, R=1.0)
    ladder = [float(v) for v in args.epsilons.split(",")]
    rep = critical_values(params)
    print(f"exponents: F1={rep.F1:.4f} F2={rep.F2:.4f} F3={rep.F3:.4f} "
          f"F4={rep.F4:.4f} -> F={rep.F:.4f}, predicted slope {1 / rep.F:.4f}")

    num = Numerics(h=args.h, cfl=0.45, t_max=60.0, threshold=args.threshold)
    fit = sweep(params, ladder, InitialDataSpec(), num)
    for e, t in zip(fit.epsilons, fit.t_values):
        unit = lifespan_upper_bound(ProblemParams(n=1, p=2.0, q=2.0, epsilon=e))
        print(f"  eps={e:<6g} T_blowup={t:<8g} "
              f"unit-constant bound={unit.t_upper:.3g} ({unit.binding})")
    print(f"fitted slope {fit.fitted_slope:.4f} +- {fit.slope_stderr:.4f}, "
          f"predicted {fit.predicted_slope:.4f}, "
          f"consistent={fit.consistent} (tol {fit.tol})")
    return 0 if fit.consistent else 1


if __name__ == "__main__":
    sys.exit(main())
