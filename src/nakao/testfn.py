"""Positive Laplace eigenfunction Phi (Delta Phi = Phi), the decaying wave
solution Psi = e^{-t} Phi, and the Hoelder-norm quadratures built on them.

Phi is 2*cosh(r) in one dimension and the sphere average of e^{x.w} above;
it grows like r^{-(n-1)/2} e^r, so evaluation is of log Phi, to stay finite
far out.  Below r_switch every radius is summed by one polar quadrature
kernel over rows mid + off, whose integrand factorizes as
e^{r(cos t - 1)} = e^{mid(cos t - 1)} e^{off(cos t - 1)}: log_phi's radii
are rows with the single offset 0, and the Hoelder norms' lattice nodes (a
panel midpoint plus one of 16 fixed offsets) go through log_phi_grid.  The
contraction over the nodes is np.einsum, not BLAS `@`, because BLAS chooses
its summation order from the matrix shape, and a radius's value must not
depend on how many radii share the call (log_phi of one radius equals its
entry in any array; holder_ratio equals psi_holder_norm at each t exactly).
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
        probe, zero = np.array([self.r_switch]), np.zeros(1)
        order = _START_ORDER
        at_switch = self._log_phi_rule(probe, zero, order)[0, 0]
        while True:
            if order >= _MAX_ORDER:
                raise ValueError(
                    f"Phi quadrature for n = {self.n} not converged at "
                    f"r = {self.r_switch} by order {order}")
            doubled = self._log_phi_rule(probe, zero, 2 * order)[0, 0]
            if abs(at_switch - doubled) <= 1e-12 * max(1.0, abs(doubled)):
                break
            order, at_switch = 2 * order, doubled
        self.order = order
        self._log_k = float(at_switch - self.r_switch
                            + 0.5 * (self.n - 1) * math.log(self.r_switch))

    def _log_phi_rule(self, mid: np.ndarray, off: np.ndarray,
                      order: int) -> np.ndarray:
        """log Phi(mid[:, None] + off[None, :]) by the order-point polar
        rule: one exp per (mid, node) and per (off, node), contracted over
        the nodes.  The integrand e^{r(cos t - 1)} sin^{n-2} t is in [0, 1]."""
        x, w = _gauss_legendre(order)
        theta = 0.5 * math.pi * (x + 1.0)  # [-1, 1] -> [0, pi]
        drop = np.cos(theta) - 1.0
        rows = np.exp(mid[:, None] * drop[None, :])
        cols = np.exp(off[:, None] * drop[None, :]) * (0.5 * math.pi * w)
        if self.n > 2:
            cols = cols * np.sin(theta)[None, :] ** (self.n - 2)
        s = np.einsum("kj,ij->ki", rows, cols, optimize=False)
        return (mid[:, None] + off[None, :]
                + np.log(sphere_area(self.n - 1) * s))

    def log_phi(self, r):
        """log Phi(r), elementwise, finite for any finite radius; a radius's
        value does not depend on the other radii of the call."""
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
            out[near] = self._log_phi_rule(arr[near], np.zeros(1),
                                           self.order)[:, 0]
            far = arr[~near]
            out[~near] = self._log_k + far - 0.5 * (self.n - 1) * np.log(far)
        return out[0] if np.isscalar(r) or np.ndim(r) == 0 else out

    def log_phi_grid(self, mid: np.ndarray, off: np.ndarray) -> np.ndarray:
        """log Phi(mid[:, None] + off[None, :]), one row per mid.

        A row whose radii all lie at or below r_switch (n >= 2) is one mid
        of the quadrature kernel, so it takes one exp per (mid, node) and
        per (off, node) instead of one per (radius, node).  Every other row,
        and every row at n = 1, goes through log_phi, so each radius takes
        the branch it takes there.  Agrees with log_phi to a few ulp of the
        sum, and exactly when off is the single offset 0.
        """
        r = mid[:, None] + off[None, :]
        if np.any(r < 0.0):
            raise ValueError("radius must be nonnegative")
        out = np.empty(r.shape)
        # False at n = 1 and at NaN, which log_phi then refuses
        near = (self.n > 1) & np.all(r <= self.r_switch, axis=1)
        if not np.all(near):
            out[~near] = self.log_phi(r[~near].ravel()).reshape(-1, off.size)
        if np.any(near):
            out[near] = self._log_phi_rule(mid[near], off, self.order)
        return out

    def phi(self, r):
        """Phi(r) itself (overflows past r ~ 709 like e^r does)."""
        return np.exp(self.log_phi(r))


def _panel_logs(evaluator: PhiEvaluator, pp: float, lo: np.ndarray,
                hi: np.ndarray, lattice: bool) -> np.ndarray:
    """log of the 16-point Gauss-Legendre sum of Phi^{p'} r^{n-1} on each
    radial panel [lo, hi], less p' lo: the node terms
    p' (log Phi - lo) + (n-1) log r + log w as one (panels, 16) block, then
    one log-sum-exp per row.  Phi comes from one log_phi_grid call for
    lattice panels (every hi - lo is the lattice width, so each node is a
    midpoint plus one of 16 fixed offsets), else from one log_phi call."""
    if lo.size == 0:
        return np.empty(0)
    x, w = _gauss_legendre(_HOLDER_ORDER)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    r = mid[:, None] + half[:, None] * x[None, :]
    if lattice:
        log_phi = evaluator.log_phi_grid(mid, 0.5 * _HOLDER_PANEL * x)
    else:
        log_phi = evaluator.log_phi(r.ravel()).reshape(r.shape)
    # nodes are interior, so r > 0 and every term is finite
    g = (pp * (log_phi - lo[:, None]) + (evaluator.n - 1) * np.log(r)
         + np.log(half[:, None] * w[None, :]))
    top = np.max(g, axis=1)
    return top + np.log(np.sum(np.exp(g - top[:, None]), axis=1))


def _holder_norms(evaluator: PhiEvaluator, ts, p: float,
                  R: float) -> np.ndarray:
    """psi_holder_norm at every t of ts, with Phi evaluated once per radius.

    m_k, the log of lattice panel k's sum less p' times its lower edge 0.5k,
    is formed once per panel.  A doubling scan turns these into
    s[k] = log sum_{i<=k} e^{m_i - p'(k-i)/2}, the sum of the first k+1
    panels less p' 0.5k.  A t with K full panels reads s[K-1], adds
    p'(0.5(K-1) - t), and logaddexps its own partial panel, taken the same
    way.  Every log stays about the size of one panel's, so nothing rounds
    at the size of p'(R+t) (~4,400 at p = 1.1, t = 400), and no loop runs
    over t.
    """
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
    s = _panel_logs(evaluator, pp, edges[:-1], edges[1:], lattice=True)
    # s[k] only ever takes in s[k - d] with d <= k, so it does not depend
    # on how many panels follow: each t gets the sum it would get alone
    d = 1
    while d < s.size:
        s[d:] = np.logaddexp(s[d:], s[:-d] - _HOLDER_PANEL * pp * d)
        d *= 2
    # a leading -inf for zero full panels; the last of k starts at 0.5(k-1)
    total = (np.concatenate(([-math.inf], s))[full.astype(np.intp)]
             + pp * (_HOLDER_PANEL * (full - 1.0) - ts))
    lo = _HOLDER_PANEL * full
    cut = uppers > lo     # an empty partial panel has weights 0, log -inf
    total[cut] = np.logaddexp(
        total[cut], _panel_logs(evaluator, pp, lo[cut], uppers[cut],
                                lattice=False)
        + pp * (lo[cut] - ts[cut]))
    return sphere_area(evaluator.n) * np.exp(total)


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
    evaluated.  Phi is evaluated once, on the lattice panels up to R + 50,
    by one PhiEvaluator.log_phi_grid call.  Each call evaluates its own
    lattice; nothing is cached across calls.
    """
    ts = np.linspace(0.0, 50.0, 101)
    return float(np.max(holder_ratio(evaluator, ts, p, R)))
