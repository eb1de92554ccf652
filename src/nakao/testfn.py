"""Positive Laplace eigenfunction Phi (Delta Phi = Phi), the decaying wave
solution Psi = e^{-t} Phi, and the Hoelder-norm quadratures built on them.

Phi is 2*cosh(r) in one dimension and the sphere average of e^{x.w} above;
it grows like r^{-(n-1)/2} e^r, so evaluation goes through log_phi to stay
finite far out.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .params import sphere_area

_START_ORDER = 64      # first polar Gauss order tried ...
_MAX_ORDER = 4096      # ... doubled up to this before refusing
_HOLDER_PANEL = 0.5    # radial lattice panel of the Hoelder norms
_HOLDER_ORDER = 16     # Gauss points per panel


@functools.cache
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], shared read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@dataclass
class PhiEvaluator:
    """Evaluator of Phi for one dimension n, fixed at construction.

    n = 1 is the closed form 2 cosh(r).  Above, the polar-angle integral uses
    one Gauss-Legendre rule: starting at order 64, the order is doubled until
    two consecutive orders agree to 1e-12 relative at r_switch, the largest
    radius the rule serves (the integrand needs more nodes as r grows), and
    construction raises ValueError if order 4096 is reached first.  Beyond
    r_switch the asymptotic form K r^{-(n-1)/2} e^r takes over, with K
    calibrated so the two branches agree at r_switch.
    """

    n: int
    order: int | None = field(init=False, default=None)  # None at n = 1
    r_switch: float = field(init=False, default=200.0)  # last quadrature radius
    _log_k: float | None = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        if self.n == 1:
            return
        probe = np.array([self.r_switch])
        order = _START_ORDER
        at_switch = self._log_phi_quad(probe, order)[0]
        while True:
            if order >= _MAX_ORDER:
                raise ValueError(
                    f"Phi quadrature for n = {self.n} not converged at "
                    f"r = {self.r_switch} by order {order}")
            doubled = self._log_phi_quad(probe, 2 * order)[0]
            if abs(at_switch - doubled) <= 1e-12 * max(1.0, abs(doubled)):
                break
            order, at_switch = 2 * order, doubled
        self.order = order
        self._log_k = float(at_switch - self.r_switch
                            + 0.5 * (self.n - 1) * math.log(self.r_switch))

    def _log_phi_quad(self, r: np.ndarray, order: int) -> np.ndarray:
        x, w = _gauss_legendre(order)
        theta = 0.5 * math.pi * (x + 1.0)  # [-1, 1] -> [0, pi]
        # factor out e^r: the integrand e^{r(cos t - 1)} sin^{n-2} t lies in [0, 1]
        core = np.exp(r[:, None] * (np.cos(theta)[None, :] - 1.0))
        if self.n > 2:
            core = core * np.sin(theta)[None, :] ** (self.n - 2)
        s = core @ (0.5 * math.pi * w)
        return r + np.log(sphere_area(self.n - 1) * s)

    def log_phi(self, r):
        """log Phi(r), elementwise, finite for any finite radius."""
        arr = np.atleast_1d(np.asarray(r, dtype=float))
        if np.any(arr < 0.0):
            raise ValueError("radius must be nonnegative")
        if not np.all(np.isfinite(arr)):
            raise ValueError("radius must be finite")
        if self.n == 1:
            out = arr + np.log1p(np.exp(-2.0 * arr))
        else:
            out = np.empty_like(arr)
            near = arr <= self.r_switch
            out[near] = self._log_phi_quad(arr[near], self.order)
            far = arr[~near]
            out[~near] = self._log_k + far - 0.5 * (self.n - 1) * np.log(far)
        return out[0] if np.isscalar(r) or np.ndim(r) == 0 else out

    def phi(self, r):
        """Phi(r) itself (overflows past r ~ 709 like e^r does)."""
        return np.exp(self.log_phi(r))


def _panel_terms(evaluator: PhiEvaluator, lo: np.ndarray,
                 hi: np.ndarray) -> np.ndarray:
    """Rows log Phi(r), (n-1) log r and the weight at the 16 Gauss nodes of
    each radial panel [lo, hi], panel by panel; one log_phi call for all."""
    x, w = _gauss_legendre(_HOLDER_ORDER)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    r = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    if r.size == 0:
        return np.empty((3, 0))
    log_r = (evaluator.n - 1) * np.log(r)   # nodes are interior, so r > 0
    return np.stack((evaluator.log_phi(r), log_r, wts))


def _holder_norms(evaluator: PhiEvaluator, ts, p: float,
                  R: float) -> np.ndarray:
    """psi_holder_norm at every t of ts, with Phi evaluated once per radius:
    the full lattice panels are shared by all t, and each t adds only the
    16 nodes of its own partial panel."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    finite = (ts >= 0.0) & (ts < math.inf)   # False at NaN as well
    if not np.all(finite):
        raise ValueError(f"need finite t >= 0, got t = {ts[~finite][0]}")
    if not (1.0 < p < math.inf and 0.0 < R < math.inf):
        raise ValueError(f"need finite p > 1 and R > 0, got p = {p}, R = {R}")
    pp = p / (p - 1.0)
    uppers = R + ts
    # full panels per t; exact, as the panel is 2^-1.  Kept as floats, so a
    # t too large for any grid fails in arange instead of wrapping an int.
    full = np.floor(uppers / _HOLDER_PANEL)
    edges = _HOLDER_PANEL * np.arange(np.max(full, initial=0.0) + 1.0)
    lattice = _panel_terms(evaluator, edges[:-1], edges[1:])
    lo = _HOLDER_PANEL * full
    cut = uppers > lo     # an empty partial panel would shift the sum's rounding
    partial = _panel_terms(evaluator, lo[cut], uppers[cut])
    out = np.empty(ts.size)
    j = 0                 # next partial panel's first column
    for i, t in enumerate(ts):
        terms = lattice[:, :int(full[i]) * _HOLDER_ORDER]
        if cut[i]:
            terms = np.concatenate(
                (terms, partial[:, j:j + _HOLDER_ORDER]), axis=1)
            j += _HOLDER_ORDER
        log_phi, log_r, wts = terms
        out[i] = float(np.sum(wts * np.exp(pp * (log_phi - t) + log_r)))
    return sphere_area(evaluator.n) * out


def psi_holder_norm(evaluator: PhiEvaluator, t: float, p: float,
                    R: float) -> float:
    """integral of |Psi(t,.)|^{p'} over the ball of radius R+t (p' = p/(p-1)).

    16-point Gauss-Legendre in the radius on the lattice panels
    [0.5k, 0.5(k+1)] for k < floor((R+t)/0.5), plus one partial last panel
    [0.5 floor((R+t)/0.5), R+t] unless R+t is a multiple of 0.5.  The
    integrand is summed in log space, so large t is safe.  Raises ValueError
    unless t >= 0, p > 1 and R > 0 are all finite.
    """
    return float(_holder_norms(evaluator, [t], p, R)[0])


def holder_ratio(evaluator: PhiEvaluator, t, p: float, R: float) -> np.ndarray:
    """psi_holder_norm at every t, normalized by (R+t)^{(n-1)(2-p')/2}; stays
    bounded in t.  All t share one evaluation of Phi on the lattice panels up
    to max(R+t), plus one on the partial last panels; each value equals
    psi_holder_norm at its t exactly."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    vals = _holder_norms(evaluator, t, p, R)
    expo = (evaluator.n - 1) * (2.0 - p / (p - 1.0)) / 2.0
    return vals / (R + t) ** expo


def c2_constant(evaluator: PhiEvaluator, p: float, R: float) -> float:
    """Calibrated Hoelder constant: the max of holder_ratio over the 101
    points of [0, 50].  The grid's step is the panel width 0.5, so with R a
    multiple of 0.5 every R+t ends on a lattice edge and no partial panel is
    evaluated.
    """
    ts = np.linspace(0.0, 50.0, 101)
    return float(np.max(holder_ratio(evaluator, ts, p, R)))
