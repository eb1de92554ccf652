"""Slicing-iteration engine: slice factors, the six coupled sequences, their
closed forms, certified log-space lower bounds and the lifespan upper bound.

The functional lower bounds have the shape
    U(t) >= D_j (R+t)^{-alpha_j} (t - L_j)^{beta_j},
    V(t) >= Q_j (R+t)^{-a_j}   (t - L_j)^{b_j},
iterated through the two integral frames.  D_j and Q_j grow doubly
exponentially, so the multiplicative sequences are tracked exclusively as
log D_j, log Q_j; the exponent sequences stay in plain binary64.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .exponents import Verdict, critical_values
from .params import ProblemParams, ball_volume


class InitMode(str, Enum):
    """Which pair of first lower bounds seeds the iteration.

    EIGENFUNCTION: U-bound obtained through the Phi-weighted functional and a
    Hoelder step (exponents (n-1)p/2, 0, n, 1).  DIRECT: both bounds obtained
    from the plain mass estimates U >= c*eps, V >= c*eps*t (exponents n(p-1),
    n(q-1), p+1, 2).
    """

    EIGENFUNCTION = "eigenfunction"
    DIRECT = "direct"


class ConstantMode(str, Enum):
    UNIT = "unit"          # every data/frame constant set to 1
    EXPLICIT = "explicit"  # Hoelder constants computed, data constants measured


@dataclass(frozen=True)
class DataConstants:
    """Data-dependent constants that the argument takes as measured inputs.

    weighted_floor: lower bound constant of the Phi-weighted functional
    (V_1 >= weighted_floor * eps); v_slope: V >= v_slope * eps * t;
    u_mass: U >= u_mass * eps.  All 1 in UNIT mode.
    """

    weighted_floor: float = 1.0
    v_slope: float = 1.0
    u_mass: float = 1.0


@dataclass(frozen=True)
class IterationConfig:
    params: ProblemParams
    init_mode: InitMode = InitMode.EIGENFUNCTION
    constant_mode: ConstantMode = ConstantMode.UNIT
    data: DataConstants = field(default_factory=DataConstants)
    holder_constant: float | None = None  # calibrated Psi Hoelder constant (explicit mode)

    def frame_constant_log(self) -> float:
        """log C_0 of the two integral frames (Hoelder on the light-cone ball)."""
        if self.constant_mode is ConstantMode.UNIT:
            return 0.0
        p, q, n = self.params.p, self.params.q, self.params.n
        return -(max(p, q) - 1.0) * math.log(ball_volume(n))


@dataclass(frozen=True)
class SlicingState:
    """One iteration step: slice factor, partial product, the four exponents
    and the two multiplicative constants in log space."""

    j: int
    ell: float
    L: float
    alpha: float
    a: float
    beta: float
    b: float
    log_d: float
    log_q: float


def slice_factor(k: int, pq: float) -> float:
    """ell_k = 1 + (pq)^{(1-k)/2}; always > 1 and ell_1 = 2."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if pq <= 1.0:
        raise ValueError(f"pq must exceed 1, got {pq}")
    return 1.0 + pq ** ((1.0 - k) / 2.0)


def product_limit(pq: float) -> float:
    """L = lim L_j, accumulated in log space until the geometric tail of
    sum log ell_k (bounded via log(1+x) <= x) drops below 1e-12."""
    if pq <= 1.0:
        raise ValueError(f"pq must exceed 1, got {pq}")
    root = pq ** -0.5
    log_sum = 0.0
    k = 1
    while True:
        log_sum += math.log1p(pq ** ((1.0 - k) / 2.0))
        # remaining sum of (pq)^{(1-i)/2} for i > k
        tail = pq ** (-k / 2.0) / (1.0 - root)
        if tail < 1e-12:
            return math.exp(log_sum)
        k += 1


def initial_exponents(mode: InitMode, params: ProblemParams):
    """(alpha_1, a_1, beta_1, b_1) of the chosen initialization."""
    n, p, q = params.n, params.p, params.q
    if mode is InitMode.EIGENFUNCTION:
        return (n - 1.0) * p / 2.0, 0.0, float(n), 1.0
    return n * (p - 1.0), n * (q - 1.0), p + 1.0, 2.0


_LOG_HALF_GAP = math.log1p(-math.exp(-0.5))  # log(1 - e^{-1/2})


def initial_state(config: IterationConfig) -> SlicingState:
    """State at j = 1 with the mode's exponents and log D_1, log Q_1."""
    params = config.params
    if not params.admissible:
        raise ValueError("initial bounds require admissible (n, p, q)")
    n, p, q = params.n, params.p, params.q
    log_eps = math.log(params.epsilon)
    alpha1, a1, beta1, b1 = initial_exponents(config.init_mode, params)
    unit = config.constant_mode is ConstantMode.UNIT
    d = config.data
    if config.init_mode is InitMode.EIGENFUNCTION:
        if unit:
            log_c3 = 0.0
        else:
            if config.holder_constant is None:
                raise ValueError("explicit mode needs the calibrated Hoelder constant")
            log_c3 = p * math.log(d.weighted_floor) \
                + (1.0 - p) * math.log(config.holder_constant)
        log_d1 = log_c3 + _LOG_HALF_GAP - math.log(n) - n * math.log(2.0) \
            + p * log_eps
        log_q1 = (0.0 if unit else math.log(d.v_slope)) + log_eps
    else:
        log_cv = 0.0 if unit else math.log(d.v_slope)
        log_cu = 0.0 if unit else math.log(d.u_mass)
        log_ball = 0.0 if unit else math.log(ball_volume(n))
        log_d1 = p * log_cv - (p - 1.0) * log_ball + _LOG_HALF_GAP \
            - math.log(p + 1.0) - (p + 1.0) * math.log(2.0) + p * log_eps
        log_q1 = q * log_cu - (q - 1.0) * log_ball - math.log(2.0) + q * log_eps
    return SlicingState(j=1, ell=2.0, L=2.0, alpha=alpha1, a=a1,
                        beta=beta1, b=b1, log_d=log_d1, log_q=log_q1)


def step(state: SlicingState, config: IterationConfig) -> SlicingState:
    """One application of the coupled recursions.

    alpha_{j+1} = n(p-1) + p a_j          beta_{j+1} = p b_j + 1
    a_{j+1}     = n(q-1) + q alpha_j      b_{j+1}    = q beta_j + 2
    log D_{j+1} = p log Q_j + log C_0 + log(sqrt(pq) - 1/2) - j log(pq)
                  - log(p b_j + 1) - (p b_j + 1) log ell_{j+1}
    log Q_{j+1} = q log D_j + log C_0 - log(q beta_j + 1) - log(q beta_j + 2)
    """
    params = config.params
    n, p, q = params.n, params.p, params.q
    pq = params.pq
    log_c0 = config.frame_constant_log()
    j = state.j
    ell_next = slice_factor(j + 1, pq)
    # log ell_{j+1} = log1p((pq)^{-j/2}): the plain log underflows to 0 once
    # ell rounds to 1, dropping the order-one beta*log(ell) contribution
    log_ell_next = math.log1p(pq ** (-j / 2.0))
    beta_next = p * state.b + 1.0
    b_next = q * state.beta + 2.0
    log_d_next = (p * state.log_q + log_c0 + math.log(math.sqrt(pq) - 0.5)
                  - j * math.log(pq) - math.log(beta_next)
                  - beta_next * log_ell_next)
    log_q_next = (q * state.log_d + log_c0 - math.log(q * state.beta + 1.0)
                  - math.log(q * state.beta + 2.0))
    return SlicingState(j=j + 1, ell=ell_next, L=state.L * ell_next,
                        alpha=n * (p - 1.0) + p * state.a,
                        a=n * (q - 1.0) + q * state.alpha,
                        beta=beta_next, b=b_next,
                        log_d=log_d_next, log_q=log_q_next)


def iterate(config: IterationConfig, j_max: int) -> list[SlicingState]:
    """States j = 1 .. j_max by repeated stepping."""
    if j_max < 1:
        raise ValueError(f"j_max must be >= 1, got {j_max}")
    states = [initial_state(config)]
    while states[-1].j < j_max:
        states.append(step(states[-1], config))
    return states


# ---------------------------------------------------------------------------
# closed forms

def _geometric_coeffs(params: ProblemParams):
    """(c_beta, c_b) = ((2p+1)/(pq-1), (q+2)/(pq-1))."""
    p, q = params.p, params.q
    s = params.pq - 1.0
    return (2.0 * p + 1.0) / s, (q + 2.0) / s


def closed_form_exponents(j: int, config: IterationConfig):
    """(alpha_j, a_j, beta_j, b_j) for odd j, directly from the geometric sums.

    alpha_j = (n + alpha_1)(pq)^{(j-1)/2} - n and likewise for a_j;
    beta_j  = (c_beta + beta_1)(pq)^{(j-1)/2} - c_beta with c_beta = (2p+1)/(pq-1),
    b_j     = (c_b + b_1)(pq)^{(j-1)/2} - c_b    with c_b = (q+2)/(pq-1).
    Even j is rejected: only beta, b have even-index forms (see even_beta_b).
    """
    if j < 1 or j % 2 == 0:
        raise ValueError(f"closed forms cover odd j >= 1 only, got {j}")
    params = config.params
    n = params.n
    alpha1, a1, beta1, b1 = initial_exponents(config.init_mode, params)
    g = params.pq ** ((j - 1) / 2.0)
    c_beta, c_b = _geometric_coeffs(params)
    return ((n + alpha1) * g - n, (n + a1) * g - n,
            (c_beta + beta1) * g - c_beta, (c_b + b1) * g - c_b)


def even_beta_b(j: int, config: IterationConfig):
    """(beta_j, b_j) for even j, one recursion applied to the odd closed forms:
    beta_j = (c_b + b_1)/q (pq)^{j/2} - c_beta, b_j = (c_beta + beta_1)/p (pq)^{j/2} - c_b."""
    if j < 2 or j % 2 == 1:
        raise ValueError(f"even forms cover even j >= 2 only, got {j}")
    params = config.params
    _, _, beta1, b1 = initial_exponents(config.init_mode, params)
    g = params.pq ** (j / 2.0)
    c_beta, c_b = _geometric_coeffs(params)
    return ((c_b + b1) / params.q * g - c_beta,
            (c_beta + beta1) / params.p * g - c_b)


def closed_form_deviation(state: SlicingState, config: IterationConfig) -> float:
    """Worst relative deviation |x - closed form| / max(1, |x|) of the state's
    exponents from their closed forms: alpha, a, beta, b for odd j (see
    closed_form_exponents), beta, b for even j (see even_beta_b).  NaN if any
    deviation is NaN."""
    if state.j % 2 == 1:
        cf = closed_form_exponents(state.j, config)
        rec = (state.alpha, state.a, state.beta, state.b)
    else:
        cf = even_beta_b(state.j, config)
        rec = (state.beta, state.b)
    devs = [abs(c - x) / max(1.0, abs(x)) for c, x in zip(cf, rec)]
    return math.nan if any(math.isnan(d) for d in devs) else max(devs)


# ---------------------------------------------------------------------------
# certified lower bounds, thresholds, lifespan

@dataclass(frozen=True)
class IterationBounds:
    """Every j-independent constant of the certified lower bounds.

    b0 / b0_tilde dominate beta_j / b_j as coefficients of (pq)^{(j-1)/2}
    (odd j; (pq)^{j/2} even j); they are the closed-form leading coefficients,
    which are the exact suprema.  m_log = -b0 sqrt(pq) bounds
    log(ell_j^{-beta_j}) from below.  growth_u/growth_v are the slopes G of
    the bounds log D_j >= (pq)^{(j-1)/2} G (valid for odd j >= j0, resp. j1).
    All of them are closed-form arithmetic on the initial state; no state
    past j = 1 is formed.
    """

    b0: float
    b0_tilde: float
    m_log: float
    log_e0: float
    log_e0_tilde: float
    growth_u: float
    growth_v: float
    j0: int
    j1: int


def _round_up_odd(x: float) -> int:
    """Smallest odd integer >= max(x, 1)."""
    k = max(1, math.ceil(x))
    return k if k % 2 == 1 else k + 1


def iteration_bounds(config: IterationConfig) -> IterationBounds:
    params = config.params
    p, q, pq = params.p, params.q, params.pq
    _, _, beta1, b1 = initial_exponents(config.init_mode, params)
    c_beta, c_b = _geometric_coeffs(params)
    b0 = max(c_beta + beta1, (c_b + b1) / q)
    b0t = max(c_b + b1, (c_beta + beta1) / p)

    m_log = -b0 * math.sqrt(pq)
    log_c0 = config.frame_constant_log()
    log_gap = math.log(math.sqrt(pq) - 0.5)
    log_e0 = (p + 1.0) * log_c0 + m_log + log_gap - math.log(b0) \
        - 2.0 * p * math.log(b0t)
    log_e0t = (q + 1.0) * log_c0 + q * m_log + q * log_gap \
        - q * math.log(b0) - 2.0 * math.log(b0t)

    init = initial_state(config)
    lpq = math.log(pq)
    s = pq - 1.0
    growth_u = init.log_d + lpq / (2.0 * s * s) * (1.0 - 7.0 * pq - 4.0 * p * p * q) \
        + log_e0 / s
    growth_v = init.log_q + lpq / (s * s) * (1.0 - 2.0 * p * q * q - 3.0 * pq - q) \
        + log_e0t / s

    j0 = _round_up_odd(2.0 * (p + 1.0) / (3.0 + 2.0 * p)
                       + 2.0 * log_e0 / ((3.0 + 2.0 * p) * lpq) - 2.0 * pq / s)
    j1 = _round_up_odd(5.0 * q / (2.0 + 3.0 * q)
                       + 2.0 * log_e0t / ((2.0 + 3.0 * q) * lpq) - 2.0 * pq / s)
    return IterationBounds(b0=b0, b0_tilde=b0t, m_log=m_log,
                           log_e0=log_e0, log_e0_tilde=log_e0t,
                           growth_u=growth_u, growth_v=growth_v, j0=j0, j1=j1)


def thresholds(config: IterationConfig) -> tuple[int, int]:
    """(j0, j1): smallest odd indices past which the two lower bounds hold."""
    b = iteration_bounds(config)
    return b.j0, b.j1


def log_lower_bounds(j: int, config: IterationConfig,
                     bounds: IterationBounds | None = None) -> tuple[float, float]:
    """Certified right-hand sides ((pq)^{(j-1)/2} G_u, (pq)^{(j-1)/2} G_v).

    They bound log D_j resp. log Q_j from below for odd j >= j0 resp. j1.
    """
    if j < 1 or j % 2 == 0:
        raise ValueError(f"the bounds cover odd j only, got {j}")
    if bounds is None:
        bounds = iteration_bounds(config)
    g = config.params.pq ** ((j - 1) / 2.0)
    return g * bounds.growth_u, g * bounds.growth_v


def _side_data(config: IterationConfig):
    """Per-mode t-exponents and powers of 2 of the functional lower bounds.

    U-side: exponent p*F with F = F1 (eigenfunction) or F3 (direct) and
    2-power X_u = alpha_1 + beta_1 + c_beta - n; V-side: q*F with F = F2 or F4
    and X_v = a_1 + b_1 + c_b + n.
    """
    params = config.params
    n = params.n
    rep = critical_values(params)
    alpha1, a1, beta1, b1 = initial_exponents(config.init_mode, params)
    c_beta, c_b = _geometric_coeffs(params)
    if config.init_mode is InitMode.EIGENFUNCTION:
        f_u, f_v, name_u, name_v = rep.F1, rep.F2, "F1", "F2"
    else:
        f_u, f_v, name_u, name_v = rep.F3, rep.F4, "F3", "F4"
    x_u = alpha1 + beta1 + c_beta - n
    x_v = a1 + b1 + c_b + n
    return (f_u, x_u, name_u), (f_v, x_v, name_v)


@dataclass(frozen=True)
class LifespanBound:
    """t_upper = max(floor, min over applicable F_i of the power-law bound);
    see lifespan_upper_bound.  F1..F4 themselves are in critical_values."""

    t_upper: float
    binding: str               # which F_i realized the minimum
    floor: float               # max(R, 2L): times below it carry no information
    product_limit: float
    candidates: dict[str, float]      # +inf where the bound exceeds float range
    log_candidates: dict[str, float]  # exact log-scale values


def lifespan_upper_bound(params: ProblemParams,
                         constant_mode: ConstantMode = ConstantMode.UNIT,
                         data: DataConstants | None = None,
                         holder_constant: float | None = None) -> LifespanBound:
    """Power-law lifespan bound from every positive F_i.

    For each route and side with F > 0 the bound is
        t_i = exp((X_i log 2 - G_side) / (side_exponent * F_i)),
    which equals the prefactor form (E_1^{-1} 2^{X})^{1/(pF)} eps^{-1/F} with
    the eps-dependence already inside G.  The smallest candidate wins and the
    result never drops below max(R, 2L).
    Rejects parameters whose verdict is not BLOW_UP.
    """
    rep = critical_values(params)
    if rep.verdict is not Verdict.BLOW_UP:
        raise ValueError(f"no blow-up bound available: verdict {rep.verdict.value}")
    if data is None:
        data = DataConstants()
    limit = product_limit(params.pq)
    floor = max(params.R, 2.0 * limit)
    # near-critical F_i make the bound astronomically large, so the selection
    # happens in log scale and only the reported times saturate at +inf
    log_candidates: dict[str, float] = {}
    ln2 = math.log(2.0)
    for mode in (InitMode.EIGENFUNCTION, InitMode.DIRECT):
        config = IterationConfig(params=params, init_mode=mode,
                                 constant_mode=constant_mode, data=data,
                                 holder_constant=holder_constant)
        bounds = iteration_bounds(config)
        (f_u, x_u, name_u), (f_v, x_v, name_v) = _side_data(config)
        if f_u > 0.0:
            log_candidates[name_u] = (x_u * ln2 - bounds.growth_u) \
                / (params.p * f_u)
        if f_v > 0.0:
            log_candidates[name_v] = (x_v * ln2 - bounds.growth_v) \
                / (params.q * f_v)

    def safe_exp(v: float) -> float:
        return math.exp(v) if v < 709.0 else math.inf

    binding = min(log_candidates, key=log_candidates.get)
    return LifespanBound(t_upper=max(floor, safe_exp(log_candidates[binding])),
                         binding=binding, floor=floor, product_limit=limit,
                         candidates={k: safe_exp(v)
                                     for k, v in log_candidates.items()},
                         log_candidates=log_candidates)
