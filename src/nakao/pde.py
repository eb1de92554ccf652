"""Radially symmetric explicit finite-difference simulator for the coupled
system (damped component driven by |v|^p, free component by |u|^q), with
functional tracking, discrete balance residuals, support checks and blow-up
detection.

Every dimension is solved on the radial half line 0 <= r <= r_max, n = 1
included (even data on the line): an even-symmetry ghost at the origin gives
the regularized Laplacian n * u_rr(0), and the outer boundary is homogeneous
Dirichlet, which the light cone never reaches.

`run` steps and measures only the exact nonzero span of the solution (see
RadialField.span), in buffers allocated once per field; every value equals
that of the whole-grid computation bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .params import ProblemParams, sphere_area
from .testfn import PhiEvaluator


@dataclass(frozen=True)
class Numerics:
    """Grid/time configuration.  dt = cfl * h; r_max defaults to
    R + t_max + max(0.5, 4h): the light cone plus a few nodes of padding.
    The scheme's sub-truncation dust runs ahead of the cone and can still
    reach the Dirichlet wall in a long run (at n = 3, h = 0.01 it reaches
    the last interior node at t = 33, and is 2.3e-8 of max|u| there at
    t = 40)."""

    h: float = 0.02
    cfl: float = 0.45
    t_max: float = 40.0
    threshold: float = 1e8
    functional_threshold: float | None = None
    support_tol: float = 1.0   # multiplier on the h^2 (1+t) truncation floor
    r_max: float | None = None

    def resolved_r_max(self, R: float) -> float:
        if self.r_max is not None:
            return self.r_max
        return R + self.t_max + max(0.5, 4.0 * self.h)


@dataclass(frozen=True)
class InitialDataSpec:
    """Nonnegative radial profiles scaled by per-component amplitudes; support
    radius comes from ProblemParams.R.  Blow-up runs of the eigenfunction route
    need amp_u0, amp_v1 > 0; the direct route additionally exercises amp_u1."""

    shape: str = "bump"  # "bump" or "cosine"
    amp_u0: float = 1.0
    amp_u1: float = 1.0
    amp_v0: float = 1.0
    amp_v1: float = 1.0

    def __post_init__(self) -> None:
        if self.shape not in ("bump", "cosine"):
            raise ValueError(f"unknown profile shape {self.shape!r}")
        for name in ("amp_u0", "amp_u1", "amp_v0", "amp_v1"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")


def profile(shape: str, r: np.ndarray, R: float) -> np.ndarray:
    """Unit-amplitude nonnegative profile supported in |r| <= R."""
    rr = np.abs(np.asarray(r, dtype=float)) / R
    out = np.zeros_like(rr)
    if shape == "bump":
        inside = rr < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - rr[inside] ** 2))
    elif shape == "cosine":
        inside = rr <= 1.0
        out[inside] = np.cos(0.5 * math.pi * rr[inside]) ** 2
    else:
        raise ValueError(f"unknown profile shape {shape!r}")
    return out


class BlowupReason(str, Enum):
    MAX_NORM = "max_norm"
    FUNCTIONAL = "functional"
    NONE = "none"


@dataclass
class RadialField:
    """Two time levels of (u, v) on the grid, plus quadrature weights.

    span = (lo, hi), when set, says that nodes lo..hi-1 hold every nonzero of
    u, u_prev, v and v_prev.  step, functionals and support_radius then work
    on those nodes only, and step keeps the span exact.  None (the default)
    means the whole grid.
    """

    n: int
    h: float
    dt: float
    x: np.ndarray        # node radii 0, h, ..., m h
    w: np.ndarray        # quadrature weights: integral f dx = w . f
    u: np.ndarray
    u_prev: np.ndarray
    v: np.ndarray
    v_prev: np.ndarray
    k: int = 0           # completed steps; current time = k * dt
    span: tuple[int, int] | None = None
    work: _Work = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.work = _Work(self.n, self.x)

    @property
    def t(self) -> float:
        return self.k * self.dt

    @property
    def window(self) -> tuple[int, int]:
        """Nodes lo..hi-1 that the per-step work covers: the span, or the
        whole grid."""
        return self.span if self.span is not None else (0, self.x.size)


class _Work:
    """Scratch arrays of one field, so that stepping allocates nothing.

    src_u, src_v (the sources |v|^p, |u|^q) and v_phi are zero outside the
    span: step zeroes the nodes it trims, so whole-grid dots over them equal
    those of the whole-grid computation.  coef = (n-1)/x is the first-order
    radial coefficient on the interior nodes; None at n = 1, where the term
    vanishes.
    """

    def __init__(self, n: int, x: np.ndarray) -> None:
        self.lap, self.acc = np.zeros_like(x), np.zeros_like(x)
        self.src_u, self.src_v = np.zeros_like(x), np.zeros_like(x)
        self.v_phi = np.zeros_like(x)
        self.abs_u, self.abs_v = np.zeros_like(x), np.zeros_like(x)
        self.mask_u = np.zeros(x.shape, dtype=bool)
        self.mask_v = np.zeros(x.shape, dtype=bool)
        self.coef = None
        if n >= 2:
            self.coef = np.zeros_like(x)
            self.coef[1:-1] = (n - 1) / x[1:-1]


def make_field(n: int, h: float, dt: float, r_max: float) -> RadialField:
    """Zero-initialized field on the grid covering radius r_max."""
    x = np.arange(int(math.ceil(r_max / h)) + 1) * h
    w = _weights(n, x, h)
    z = np.zeros_like(x)
    return RadialField(n=n, h=h, dt=dt, x=x, w=w,
                       u=z.copy(), u_prev=z.copy(), v=z.copy(), v_prev=z.copy())


def _weights(n: int, x: np.ndarray, h: float) -> np.ndarray:
    # trapezoid with the radial surface factor (sphere_area(1) = 2 folds the
    # line onto the half line)
    w = sphere_area(n) * x ** (n - 1) * h
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def laplacian(field: RadialField, f: np.ndarray, out: np.ndarray | None = None,
              rows: tuple[int, int] | None = None) -> np.ndarray:
    """Second-order radial Laplacian; zero on the Dirichlet row at r_max.

    With rows = (a, b) only rows a..b-1 of out are written (the stencil reads
    f on a-1..b); by default a new whole-grid array is returned.
    """
    n, h = field.n, field.h
    size = f.size
    if out is None:
        out = np.zeros_like(f)
    a, b = (0, size) if rows is None else rows
    lo, hi = max(a, 1), min(b, size - 1)
    if lo < hi:
        o = out[lo:hi]
        np.multiply(2.0, f[lo:hi], out=o)
        np.subtract(f[lo + 1:hi + 1], o, out=o)
        np.add(o, f[lo - 1:hi - 1], out=o)
        np.divide(o, h * h, out=o)
        if field.work.coef is not None:
            d = np.subtract(f[lo + 1:hi + 1], f[lo - 1:hi - 1],
                            out=field.work.acc[lo:hi])
            np.multiply(field.work.coef[lo:hi], d, out=d)
            np.divide(d, 2.0 * h, out=d)
            np.add(o, d, out=o)
    if b == size:
        out[-1] = 0.0
    if a == 0:
        # removable singularity at r = 0: even ghost gives n * f''(0)
        out[0] = 2.0 * n * (f[1] - f[0]) / (h * h)
    return out


def _pow_abs(f: np.ndarray, e: float, out: np.ndarray | None = None) -> np.ndarray:
    if e == 2.0:
        return np.multiply(f, f, out=out)
    a = np.abs(f, out=out)
    if e == 3.0:
        np.multiply(a, f, out=a)
        return np.multiply(a, f, out=a)
    return np.power(a, e, out=a)


@dataclass(frozen=True)
class InitialMoments:
    """Quadratures of the velocity data, needed by the balance identities."""

    du0: float  # integral of eps*u1
    dv0: float  # integral of eps*v1


def make_initial_data(params: ProblemParams, spec: InitialDataSpec,
                      numerics: Numerics) -> tuple[RadialField, InitialMoments]:
    """Seed both time levels: data eps*(u0, u1, v0, v1) at t=0 and the back
    level u(-dt) = u(0) - dt*eps*u1 + (dt^2/2)(lap u(0) - eps*u1 + |v(0)|^p)
    (and the undamped analogue for v), a second-order-consistent start."""
    h = numerics.h
    dt = numerics.cfl * h
    if not 0.0 < numerics.cfl < 1.0:
        raise ValueError(f"CFL violation: need 0 < cfl < 1, got {numerics.cfl}")
    if h <= 0.0 or numerics.t_max <= 0.0 or numerics.threshold <= 0.0:
        raise ValueError("h, t_max and threshold must be positive")
    if not numerics.support_tol >= 0.0:
        raise ValueError("support_tol must be nonnegative")
    r_max = numerics.resolved_r_max(params.R)
    if r_max < params.R + numerics.t_max + h:
        raise ValueError("domain too small: the light cone reaches the boundary")
    fld = make_field(params.n, h, dt, r_max)
    eps = params.epsilon
    base = profile(spec.shape, fld.x, params.R)
    u0 = eps * spec.amp_u0 * base
    u1 = eps * spec.amp_u1 * base
    v0 = eps * spec.amp_v0 * base
    v1 = eps * spec.amp_v1 * base
    fld.u = u0.copy()
    fld.v = v0.copy()
    fld.u_prev = (u0 - dt * u1
                  + 0.5 * dt * dt * (laplacian(fld, u0) - u1 + _pow_abs(v0, params.p)))
    fld.v_prev = (v0 - dt * v1
                  + 0.5 * dt * dt * (laplacian(fld, v0) + _pow_abs(u0, params.q)))
    fld.u_prev[-1] = fld.v_prev[-1] = 0.0
    return fld, InitialMoments(du0=float(fld.w @ u1), dv0=float(fld.w @ v1))


def step(field: RadialField, params: ProblemParams,
         src_u: np.ndarray | None = None,
         src_v: np.ndarray | None = None) -> None:
    """Advance one leapfrog step in place.

    The damping is the centered difference (u_next - u_prev)/(2 dt), absorbed
    into the implicit 1 + dt/2 divisor; v gets the plain leapfrog update.
    src_u / src_v override the computed sources |v|^p / |u|^q (used to add
    forcing; zero arrays give the free, uncoupled wave).
    u_next and v_next are written into the u_prev and v_prev arrays, which
    then become field.u and field.v.

    With field.span set, only the span widened by one node per side is
    computed (the stencil is 3-point), src_u / src_v must vanish outside the
    span, and the span is then trimmed of edge nodes where all four levels
    are zero: ahead of the light cone the scheme's dust underflows to zero,
    so the span stays close to the cone.
    """
    size = field.x.size
    if field.span is None:
        a, b = 0, size
    else:
        a, b = max(field.span[0] - 1, 0), min(field.span[1] + 1, size)
    dt = field.dt
    if src_u is None:
        src_u = _pow_abs(field.v[a:b], params.p)
    else:
        src_u = src_u[a:b]
    if src_v is None:
        src_v = _pow_abs(field.u[a:b], params.q)
    else:
        src_v = src_v[a:b]
    wk = field.work
    acc = wk.acc[a:b]

    lap = laplacian(field, field.u, wk.lap, (a, b))[a:b]
    np.add(lap, src_u, out=lap)
    np.multiply(dt * dt, lap, out=lap)
    u, u_prev = field.u[a:b], field.u_prev[a:b]
    np.multiply(2.0, u, out=acc)
    np.subtract(acc, u_prev, out=acc)
    np.add(acc, lap, out=acc)
    np.multiply(0.5 * dt, u_prev, out=lap)
    np.add(acc, lap, out=acc)
    np.divide(acc, 1.0 + 0.5 * dt, out=u_prev)

    lap = laplacian(field, field.v, wk.lap, (a, b))[a:b]
    np.add(lap, src_v, out=lap)
    np.multiply(dt * dt, lap, out=lap)
    np.multiply(2.0, field.v[a:b], out=acc)
    np.subtract(acc, field.v_prev[a:b], out=acc)
    np.add(acc, lap, out=field.v_prev[a:b])

    field.u_prev[-1] = field.v_prev[-1] = 0.0
    field.u_prev, field.u = field.u, field.u_prev
    field.v_prev, field.v = field.v, field.v_prev
    field.k += 1
    if field.span is not None:
        field.span = _trim(field, a, b)


def _trim(field: RadialField, a: int, b: int) -> tuple[int, int]:
    """Shrink nodes a..b-1 to the exact nonzero span of the four levels and
    zero the trimmed nodes of the buffers that must vanish outside it."""
    u, u_prev, v, v_prev = field.u, field.u_prev, field.v, field.v_prev
    lo, hi = a, b
    # a float is falsy exactly when it is +-0.0 (nan is truthy)
    while lo < hi and not (u[hi - 1] or u_prev[hi - 1] or v[hi - 1]
                           or v_prev[hi - 1]):
        hi -= 1
    while lo < hi and not (u[lo] or u_prev[lo] or v[lo] or v_prev[lo]):
        lo += 1
    if lo > a or hi < b:
        wk = field.work
        for buf in (wk.src_u, wk.src_v, wk.v_phi):
            buf[a:lo] = 0.0
            buf[hi:b] = 0.0
    return lo, hi


def _nonzero_span(field: RadialField) -> tuple[int, int]:
    nonzero = np.flatnonzero((field.u != 0.0) | (field.u_prev != 0.0)
                             | (field.v != 0.0) | (field.v_prev != 0.0))
    if nonzero.size == 0:
        return 0, 0
    return int(nonzero[0]), int(nonzero[-1]) + 1


def functionals(field: RadialField, phi_values: np.ndarray | None = None):
    """(U, V, V1) = (integral u, integral v, integral v * e^{-t} Phi).

    v * Phi is formed on field.window only, so it stays finite where Phi
    overflows but v has not arrived."""
    U = float(field.w @ field.u)
    V = float(field.w @ field.v)
    if phi_values is None:
        phi_values = PhiEvaluator(field.n).phi(field.x)
    lo, hi = field.window
    np.multiply(field.v[lo:hi], phi_values[lo:hi],
                out=field.work.v_phi[lo:hi])
    V1 = math.exp(-field.t) * float(field.w @ field.work.v_phi)
    return U, V, V1


def _magnitudes(field: RadialField):
    """|u| and |v| on field.window (views of the field's buffers) and their
    maxima."""
    lo, hi = field.window
    abs_u = np.abs(field.u[lo:hi], out=field.work.abs_u[lo:hi])
    abs_v = np.abs(field.v[lo:hi], out=field.work.abs_v[lo:hi])
    if lo == hi:
        return abs_u, abs_v, 0.0, 0.0
    return (abs_u, abs_v, float(np.maximum.reduce(abs_u)),
            float(np.maximum.reduce(abs_v)))


def support_radius(field: RadialField, tol: float = 1.0, mags=None) -> float:
    """Largest radius carrying amplitude above the accumulated-truncation floor:
    the radius of the last such node, since the grid radii increase.

    An explicit scheme at Courant number < 1 moves strictly-nonzero values
    faster than the light cone, but only at amplitudes of the scheme's own
    global error, O(h^2 (1+t)) relative to the field maximum.  Nodal support
    is therefore measured above the floor tol * h^2 * (1+t) * max-amplitude.
    With that floor the excess over R + t stays within 2h for n = 1, 2, 3 up
    to t = 5 (test_support_containment_within_two_h), but 2h is not a bound
    in general: 3.1h was measured at n = 3, h = 0.01, t = 40 (the benchmark's
    radial-n3 workload).  A transport or stencil bug would still blast far
    through it.  tol must be nonnegative, since nodes outside field.window
    count as zero amplitude.  mags = _magnitudes(field), when the caller has
    it already.
    """
    abs_u, abs_v, m_u, m_v = _magnitudes(field) if mags is None else mags
    floor = tol * field.h * field.h * (1.0 + field.t)
    lo, hi = field.window
    mask_u, mask_v = field.work.mask_u[lo:hi], field.work.mask_v[lo:hi]
    if m_u > 0.0:
        mask = np.greater(abs_u, floor * m_u, out=mask_u)
        if m_v > 0.0:
            np.logical_or(mask, np.greater(abs_v, floor * m_v, out=mask_v),
                          out=mask)
    elif m_v > 0.0:
        mask = np.greater(abs_v, floor * m_v, out=mask_v)
    else:
        return 0.0
    last = mask.size - 1 - int(mask[::-1].argmax())
    if not mask[last]:
        return 0.0
    return float(field.x[lo + last])


def _cumtrapz(f: np.ndarray, dt: float) -> np.ndarray:
    out = np.zeros_like(f)
    if f.size > 1:
        out[1:] = np.cumsum(0.5 * (f[1:] + f[:-1])) * dt
    return out


def _ddt(f: np.ndarray, dt: float) -> np.ndarray:
    """Second-order time derivative: centered inside, one-sided at the ends."""
    out = np.empty_like(f)
    if f.size < 3:
        out[:] = np.gradient(f, dt) if f.size > 1 else 0.0
        return out
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * dt)
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * dt)
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * dt)
    return out


def balance_residuals(times: np.ndarray, U: np.ndarray, V: np.ndarray,
                      int_v_p: np.ndarray, int_u_q: np.ndarray,
                      du0: float, dv0: float):
    """Discrete residuals of the two integrated identities
        U'(t) + U(t) = U'(0) + U(0) + II(|v|^p),   V'(t) = V'(0) + II(|u|^q),
    normalized by the running magnitude of each right-hand side."""
    if times.size < 2:
        z = np.zeros_like(times)
        return z, z
    dt = times[1] - times[0]
    rhs_u = du0 + U[0] + _cumtrapz(int_v_p, dt)
    rhs_v = dv0 + _cumtrapz(int_u_q, dt)
    res_u = _ddt(U, dt) + U - rhs_u
    res_v = _ddt(V, dt) - rhs_v
    return res_u / _norm(rhs_u), res_v / _norm(rhs_v)


def _norm(rhs: np.ndarray) -> float:
    """max|rhs|, floored at 1e-300; 1 for an all-zero rhs; nan stays nan."""
    m = np.max(np.abs(rhs))
    return 1.0 if m == 0.0 else max(m, 1e-300)


@dataclass
class FunctionalTrace:
    """Per-step functional time series of one run plus the detection result."""

    times: np.ndarray
    U: np.ndarray
    V: np.ndarray
    V1: np.ndarray
    max_u: np.ndarray
    max_v: np.ndarray
    src_u: np.ndarray          # integral of |v|^p (drives U)
    src_v: np.ndarray          # integral of |u|^q (drives V)
    res_u: np.ndarray          # normalized balance residual series
    res_v: np.ndarray
    t_blowup: float | None
    reason: BlowupReason
    support_max_excess: float  # max over records of support radius - (R + t)
    du0: float
    dv0: float

    @property
    def res_u_max(self) -> float:
        return float(np.max(np.abs(self.res_u))) if self.res_u.size else 0.0

    @property
    def res_v_max(self) -> float:
        return float(np.max(np.abs(self.res_v))) if self.res_v.size else 0.0


def run(params: ProblemParams, spec: InitialDataSpec, numerics: Numerics,
        phi_evaluator: PhiEvaluator | None = None) -> FunctionalTrace:
    """March to t_max or blow-up, recording functionals every step.

    Blow-up is flagged the first time max|u| + max|v| crosses the threshold
    (or any value goes non-finite); the optional functional threshold flags
    on U + V instead.  The reported time is threshold-dependent by design.
    Stepping and the per-step diagnostics cover the exact nonzero span only
    (RadialField.span), taken from the initial data.
    """
    fld, moments = make_initial_data(params, spec, numerics)
    if phi_evaluator is None:
        phi_evaluator = PhiEvaluator(params.n)
    phi_vals = phi_evaluator.phi(fld.x)
    n_steps = int(round(numerics.t_max / fld.dt))
    fld.span = _nonzero_span(fld)
    wk = fld.work

    times, Us, Vs, V1s = [], [], [], []
    mus, mvs, sus, svs = [], [], [], []
    t_blowup = None
    reason = BlowupReason.NONE
    max_excess = -math.inf

    for k in range(n_steps + 1):
        lo, hi = fld.span
        _pow_abs(fld.v[lo:hi], params.p, out=wk.src_u[lo:hi])
        _pow_abs(fld.u[lo:hi], params.q, out=wk.src_v[lo:hi])
        U, V, V1 = functionals(fld, phi_vals)
        mags = _magnitudes(fld)
        m_u, m_v = mags[2], mags[3]
        times.append(fld.t)
        Us.append(U)
        Vs.append(V)
        V1s.append(V1)
        mus.append(m_u)
        mvs.append(m_v)
        sus.append(float(fld.w @ wk.src_u))
        svs.append(float(fld.w @ wk.src_v))
        max_excess = max(max_excess,
                         support_radius(fld, numerics.support_tol, mags)
                         - (params.R + fld.t))
        finite = math.isfinite(m_u) and math.isfinite(m_v)
        if not finite or m_u + m_v > numerics.threshold:
            t_blowup = fld.t
            reason = BlowupReason.MAX_NORM
            break
        if (numerics.functional_threshold is not None
                and U + V > numerics.functional_threshold):
            t_blowup = fld.t
            reason = BlowupReason.FUNCTIONAL
            break
        if k == n_steps:
            break
        step(fld, params, src_u=wk.src_u, src_v=wk.src_v)

    times = np.asarray(times)
    U_arr, V_arr = np.asarray(Us), np.asarray(Vs)
    su_arr, sv_arr = np.asarray(sus), np.asarray(svs)
    res_u, res_v = balance_residuals(times, U_arr, V_arr, su_arr, sv_arr,
                                     moments.du0, moments.dv0)
    return FunctionalTrace(times=times, U=U_arr, V=V_arr, V1=np.asarray(V1s),
                           max_u=np.asarray(mus), max_v=np.asarray(mvs),
                           src_u=su_arr, src_v=sv_arr,
                           res_u=res_u, res_v=res_v,
                           t_blowup=t_blowup, reason=reason,
                           support_max_excess=max_excess,
                           du0=moments.du0, dv0=moments.dv0)
