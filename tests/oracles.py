"""Reference computations that only the tests use: brute-force forms of
slicing identities, product_limit term by term, the lifespan bound through
critical_values, the simplified U lower bound, finite-difference
residuals and the asymptotic ratio of Phi, the Hoelder norms summed node
by node for each t, the critical curve found by bisection and the discrete
energy identity of the leapfrog step.  The package itself never needs them,
so they live next to the assertions that check against them."""
import math

import numpy as np

from nakao.exponents import Verdict, alpha_n, critical_values
from nakao.slicing import (_LOG_FLOAT_MAX, ConstantMode, DataConstants,
                           InitMode, IterationBounds, IterationConfig,
                           LifespanBound, _geometric_coeffs, _side_data,
                           iteration_bounds, product_limit, slice_factor)
from nakao.params import sphere_area
from nakao.pde import _crossed, laplacian
from nakao.testfn import (_HOLDER_ORDER, _HOLDER_PANEL, PhiEvaluator,
                          _gauss_legendre)


def partial_product(j: int, pq: float) -> float:
    """L_j = prod_{k<=j} ell_k."""
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    out = 1.0
    for k in range(1, j + 1):
        out *= slice_factor(k, pq)
    return out


def weighted_sum(j: int, pq: float):
    """(brute-force, closed-form) values of
    sum_{k=1}^{(j-1)/2} (j+2-2k)(pq)^{k-1}
      = ((2pq/(pq-1)) (1.5 (pq)^{(j-1)/2} - 0.5 (pq)^{(j-3)/2} - 1) - j)/(pq-1)."""
    if j < 3 or j % 2 == 0:
        raise ValueError(f"the identity covers odd j >= 3, got {j}")
    if pq <= 1.0:
        raise ValueError(f"pq must exceed 1, got {pq}")
    brute = sum((j + 2 - 2 * k) * pq ** (k - 1) for k in range(1, (j - 1) // 2 + 1))
    closed = ((2.0 * pq / (pq - 1.0))
              * (1.5 * pq ** ((j - 1) / 2.0) - 0.5 * pq ** ((j - 3) / 2.0) - 1.0)
              - j) / (pq - 1.0)
    return brute, closed


def _log_slice_factors(pq: float):
    """log ell_k = log1p((pq)^{(1-k)/2}) for k = 1 .. K, K the first k whose
    tail bound (pq)^{-k/2} / (1 - (pq)^{-1/2}) is below 1e-12: the terms of
    product_limit, one at a time."""
    root = pq ** -0.5
    term = 1.0        # (pq)^{(1-k)/2} at k = 1
    k = 1
    while True:
        yield math.log1p(term)
        # the next term, which also leads the remaining sum over i > k
        term = pq ** (-k / 2.0)
        if term / (1.0 - root) < 1e-12:
            return
        k += 1


def product_limit_loop(pq: float) -> float:
    """product_limit summed term by term in order, +inf as soon as the
    partial sum passes log(float max).  One rounding per term: at
    log L ~ 700 this sum drifts by up to ~5e-11 from the exact one."""
    log_sum = 0.0
    for term in _log_slice_factors(pq):
        log_sum += term
        if log_sum > _LOG_FLOAT_MAX:
            return math.inf
    return math.exp(log_sum)


def product_limit_fsum(pq: float) -> float:
    """product_limit with the same terms summed exactly (math.fsum, one
    rounding in all), +inf past the float range."""
    log_sum = math.fsum(_log_slice_factors(pq))
    return math.exp(log_sum) if log_sum <= _LOG_FLOAT_MAX else math.inf


def lifespan_bound_via_report(params, constant_mode=ConstantMode.UNIT,
                              data=None, holder_constant=None) -> LifespanBound:
    """lifespan_upper_bound with the verdict and F1..F4 read from
    critical_values' ExponentReport and L from product_limit_loop."""
    rep = critical_values(params)
    if rep.verdict is not Verdict.BLOW_UP:
        raise ValueError(f"no blow-up bound available: verdict {rep.verdict.value}")
    data = DataConstants() if data is None else data
    limit = product_limit_loop(params.pq)
    floor = max(params.R, 2.0 * limit)
    log_candidates = {}
    for mode in (InitMode.EIGENFUNCTION, InitMode.DIRECT):
        config = IterationConfig(params=params, init_mode=mode,
                                 constant_mode=constant_mode, data=data,
                                 holder_constant=holder_constant)
        bounds = iteration_bounds(config)
        sides = _side_data(config, (rep.F1, rep.F2, rep.F3, rep.F4))
        for (f, x, name), growth, power in zip(
                sides, (bounds.growth_u, bounds.growth_v), (params.p, params.q)):
            if f > 0.0:
                log_candidates[name] = (x * math.log(2.0) - growth) / (power * f)
    binding = min(log_candidates, key=log_candidates.get)
    cands = {k: math.exp(v) if v < 709.0 else math.inf
             for k, v in log_candidates.items()}
    return LifespanBound(t_upper=max(floor, cands[binding]), binding=binding,
                         floor=floor, product_limit=limit, candidates=cands,
                         log_candidates=log_candidates)


def assert_bound_matches(got: LifespanBound, want: LifespanBound) -> None:
    """binding and the log candidates bit for bit; L, the floor and t_upper
    to 1e-12 (L comes from another summation)."""
    assert got.binding == want.binding
    assert got.log_candidates == want.log_candidates
    assert got.candidates == want.candidates
    for name in ("product_limit", "floor", "t_upper"):
        g, w = getattr(got, name), getattr(want, name)
        assert g == w or abs(g - w) <= 1e-12 * w, (name, g, w)


def log_functional_bound_u(t: float, j: int, config: IterationConfig,
                           bounds: IterationBounds | None = None,
                           limit: float | None = None) -> float:
    """log of the U lower bound at time t and odd index j, for t >= max(R, 2L):
    (pq)^{(j-1)/2} (G_u - X_u log 2 + pF log t) + n log(R+t) - c_beta log(t-L)."""
    if bounds is None:
        bounds = iteration_bounds(config)
    params = config.params
    if limit is None:
        limit = product_limit(params.pq)
    if t < max(params.R, 2.0 * limit):
        raise ValueError("the simplified bound needs t >= max(R, 2L)")
    rep = critical_values(params)
    (f_u, x_u, _), _ = _side_data(config, (rep.F1, rep.F2, rep.F3, rep.F4))
    c_beta, _ = _geometric_coeffs(params)
    g = params.pq ** ((j - 1) / 2.0)
    return (g * (bounds.growth_u - x_u * math.log(2.0)
                 + params.p * f_u * math.log(t))
            + params.n * math.log(params.R + t) - c_beta * math.log(t - limit))


def asymptotic_ratio(evaluator: PhiEvaluator, r):
    """r^{(n-1)/2} e^{-r} Phi(r); tends to a positive constant."""
    arr = np.asarray(r, dtype=float)
    return np.exp(evaluator.log_phi(arr) - arr
                  + 0.5 * (evaluator.n - 1) * np.log(arr))


def laplacian_residual(evaluator: PhiEvaluator, r_grid, h: float) -> float:
    """max |Phi'' + (n-1)/r Phi' - Phi| over the grid, derivatives by central
    differences of step h.  Decays like h^2 where the quadrature is converged."""
    r = np.asarray(r_grid, dtype=float)
    if np.any(r - h <= 0.0):
        raise ValueError("grid must keep r - h > 0")
    fm, f0, fp = evaluator.phi(r - h), evaluator.phi(r), evaluator.phi(r + h)
    second = (fp - 2.0 * f0 + fm) / (h * h)
    first = (fp - fm) / (2.0 * h)
    res = second + (evaluator.n - 1) / r * first - f0
    return float(np.max(np.abs(res)))


def wave_residual(evaluator: PhiEvaluator, r_grid, t: float, h: float,
                  dt: float) -> float:
    """max |Psi_tt - (Psi'' + (n-1)/r Psi')| for Psi = e^{-t} Phi, all three
    derivatives by central differences; bounded by quadrature + stencil error."""
    r = np.asarray(r_grid, dtype=float)
    phi_m, phi_0, phi_p = (evaluator.phi(r - h), evaluator.phi(r),
                           evaluator.phi(r + h))
    psi_tt = phi_0 * math.exp(-t) * (math.exp(dt) - 2.0 + math.exp(-dt)) / (dt * dt)
    lap = ((phi_p - 2.0 * phi_0 + phi_m) / (h * h)
           + (evaluator.n - 1) / r * (phi_p - phi_m) / (2.0 * h)) * math.exp(-t)
    return float(np.max(np.abs(psi_tt - lap)))


def holder_norms_per_t(evaluator: PhiEvaluator, ts, p: float,
                       R: float) -> np.ndarray:
    """psi_holder_norm at every t of ts, summed node by node for each t
    separately: wts * exp(p' (log Phi - t) + (n-1) log r) over the full
    lattice panels below R+t and its partial last panel.  O(panels x t)."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    pp = p / (p - 1.0)
    x, w = _gauss_legendre(_HOLDER_ORDER)
    out = np.empty(ts.size)
    for i, t in enumerate(ts):
        upper = R + t
        full = math.floor(upper / _HOLDER_PANEL)
        edges = _HOLDER_PANEL * np.arange(full + 1.0)
        lo, hi = edges[:-1], edges[1:]
        if upper > _HOLDER_PANEL * full:
            lo = np.append(lo, _HOLDER_PANEL * full)
            hi = np.append(hi, upper)
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        r = (mid[:, None] + half[:, None] * x[None, :]).ravel()
        wts = (half[:, None] * w[None, :]).ravel()
        out[i] = np.sum(wts * np.exp(pp * (evaluator.log_phi(r) - t)
                                     + (evaluator.n - 1) * np.log(r)))
    return sphere_area(evaluator.n) * out


def critical_curve_q_bisected(n: int, p: float, q_hi: float) -> float | None:
    """q with alpha_n(p, q) = (n-1)/2, bisected in (1 + 1e-9, q_hi] down to
    adjacent floats, or None if alpha_n does not cross there."""
    f = lambda q: alpha_n(p, q) - (n - 1.0) / 2.0
    lo, hi = 1.0 + 1e-9, q_hi
    if f(hi) > 0.0 or f(lo) < 0.0:
        return None
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if f(mid) > 0.0:   # alpha_n decreases in q
            lo = mid
        else:
            hi = mid


class EnergyIdentity:
    """An observer for pde._march that checks every leapfrog step against
    the discrete energy identity, which holds to rounding whatever h, cfl
    and amplitude.  With A = -L, symmetric in <f, g>_w = w . (f g), and
    E(a, b) = ||(a - b)/dt||_w^2 + <A a, b>_w:

        E(v^{k+1}, v^k) - E(v^k, v^{k-1}) = <|u^k|^q, v^{k+1} - v^{k-1}>_w
        E(u^{k+1}, u^k) - E(u^k, u^{k-1}) + ||u^{k+1} - u^{k-1}||_w^2 / (2 dt)
                                          = <|v^k|^p, u^{k+1} - u^{k-1}>_w

    Each step's residual is taken relative to the largest term of its
    identity.  E(u^k, u^{k-1}) is the one of the step's input, and
    E(u^{k+1}, u^k) is formed at the next level as _march leaves it, so a
    cut of the dust shows in the residual of the step before it, as the
    energy it removes.  A batch is checked column by column; a column
    retired at a crossing is dropped, found by _crossed as _march finds it,
    and its last step into the crossing level is not checked.
    """

    def __init__(self, params, threshold: float):
        self.p, self.q, self.threshold = params.p, params.q, threshold
        self.last = None     # per column: the state of the previous level
        self.residual_u: list[float] = []   # per step, largest over columns
        self.residual_v: list[float] = []
        self.levels: list[int] = []         # the step's input level k

    def __call__(self, fld, mags) -> None:
        size = fld.x.size
        u, u_prev, v, v_prev = (getattr(fld, name).reshape(size, -1)
                                for name in ("u", "u_prev", "v", "v_prev"))
        now = [self._state(fld, u[:, j].copy(), u_prev[:, j].copy(),
                           v[:, j].copy(), v_prev[:, j].copy())
               for j in range(u.shape[1])]
        last = self.last
        if last is not None:
            if len(last) > len(now):   # columns retired at this level
                end = mags[0].shape[0]
                abs_u, abs_v = (np.reshape(a, (end, -1)) for a in mags[:2])
                last = [s for s, au, av in zip(last, abs_u.T, abs_v.T)
                        if not _crossed(float(au.max(initial=0.0)),
                                        float(av.max(initial=0.0)),
                                        self.threshold)]
            res = [self._residuals(fld, a, b) for a, b in zip(last, now)]
            self.residual_u.append(max(r[0] for r in res))
            self.residual_v.append(max(r[1] for r in res))
            self.levels.append(fld.k - 1)
        self.last = now

    def _state(self, fld, u, u_prev, v, v_prev) -> dict:
        return {"u": u, "u_prev": u_prev, "v": v, "v_prev": v_prev,
                "E_u": self._energy(fld, u, u_prev),
                "E_v": self._energy(fld, v, v_prev),
                "src_u": np.abs(v) ** self.p, "src_v": np.abs(u) ** self.q}

    @staticmethod
    def _energy(fld, a, b):
        """(kinetic, potential) parts of E(a, b)."""
        w, dt = fld.w, fld.dt
        d = (a - b) / dt
        return float(w @ (d * d)), -float(w @ (laplacian(fld, a) * b))

    @staticmethod
    def _residuals(fld, last, now):
        """Relative residuals (u, v) of the step from last to now."""
        w = fld.w
        out = []
        for name, src in (("u", "src_u"), ("v", "src_v")):
            jump = now[name] - last[name + "_prev"]
            terms = [*now["E_" + name], *(-e for e in last["E_" + name]),
                     -float(w @ (last[src] * jump))]
            if name == "u":
                terms.append(float(w @ (jump * jump)) / (2.0 * fld.dt))
            scale = max(abs(t) for t in terms)
            out.append(abs(math.fsum(terms)) / scale if scale else 0.0)
        return out
