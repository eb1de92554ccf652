"""Radially symmetric explicit finite-difference simulator for the coupled
system (damped component driven by |v|^p, free component by |u|^q), with
functional tracking, discrete balance residuals, support checks and max-norm
blow-up detection.

Every dimension is solved on the radial half line 0 <= r <= r_max, n = 1
included (even data on the line): an even-symmetry ghost at the origin gives
the regularized Laplacian n * u_rr(0), and the outer boundary is homogeneous
Dirichlet, which the light cone never reaches.

One leapfrog loop, `_march`, steps and measures only the exact nonzero span
of the solution (see RadialField.span), in buffers allocated once per field;
every value equals that of the whole-grid computation bit for bit.  The level
arrays may carry a trailing epsilon axis, shape (nodes, k): `blowup_times`
marches a whole ladder of amplitudes that way, one column per epsilon, and
`run` marches one column with an observer that records the diagnostics, so
each column's blow-up time equals that of its own `run` bit for bit.
Blow-up is flagged by one test, `_crossed`: max|u| + max|v| past the
threshold, or a non-finite maximum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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
    t = 40).  threshold is the max-norm blow-up level (see run).
    make_initial_data refuses h, t_max or threshold that is not finite and
    positive, and an r_max that is not finite."""

    h: float = 0.02
    cfl: float = 0.45
    t_max: float = 40.0
    threshold: float = 1e8
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
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and nonnegative, "
                                 f"got {value}")


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
    NONE = "none"


@dataclass
class RadialField:
    """Two time levels of (u, v) on the grid, plus quadrature weights.

    The levels have shape (nodes,) or, for a batch of epsilons stepped
    together, (nodes, k) with one column per epsilon; the node axis leads, so
    row slices still index nodes.  The levels and every work buffer are
    C-contiguous: a ufunc over operands of mixed order cannot merge their
    axes and loops over the few columns one short inner loop at a time (a
    boolean mask on axis 1, a[:, keep], returns Fortran order; _march
    retires columns with a.compress(keep, axis=1), which returns C order).

    span = (lo, hi), when set, says that nodes lo..hi-1 hold every nonzero of
    u, u_prev, v and v_prev (in any column).  step, functionals and
    support_radius then work on those nodes only, and step keeps the span
    exact.  None (the default) means the whole grid.  functionals and
    support_radius take 1-D levels only.
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
        self.work = _Work(self.n, self.x, self.u.shape)

    @property
    def t(self) -> float:
        return self.k * self.dt

    @property
    def window(self) -> tuple[int, int]:
        """Nodes lo..hi-1 that the per-step work covers: the span, or the
        whole grid."""
        return self.span if self.span is not None else (0, self.x.size)


class _Work:
    """Scratch arrays of one field, in the shape of its levels, so that
    stepping allocates nothing.

    src_u, src_v (the sources |v|^p, |u|^q) and v_phi are zero outside the
    span: step zeroes the nodes it trims, so whole-grid dots over them equal
    those of the whole-grid computation.  lap and acc are step's scratch,
    free between steps: _march forms |u| and |v| in them.  coef = (n-1)/x is
    the first-order radial coefficient on the interior nodes, repeated in
    every column of a batch (a broadcast (nodes, 1) operand makes numpy loop
    over the few columns, ~5x slower); None at n = 1, where the term
    vanishes.  v_phi and mask_* serve functionals and support_radius, which
    take 1-D levels only, and are None for a batch.
    """

    def __init__(self, n: int, x: np.ndarray, shape: tuple[int, ...]) -> None:
        self.lap, self.acc = np.zeros(shape), np.zeros(shape)
        self.src_u, self.src_v = np.zeros(shape), np.zeros(shape)
        self.v_phi = self.mask_u = self.mask_v = None
        if len(shape) == 1:
            self.v_phi = np.zeros(shape)
            self.mask_u = np.zeros(shape, dtype=bool)
            self.mask_v = np.zeros(shape, dtype=bool)
        self.coef = None
        if n >= 2:
            coef = np.zeros_like(x)
            coef[1:-1] = (n - 1) / x[1:-1]
            self.coef = (coef if len(shape) == 1
                         else np.broadcast_to(coef[:, None], shape).copy())


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

    f has the shape of the field's levels; rows index nodes.  With rows =
    (a, b) only rows a..b-1 of out are written (the stencil reads f on
    a-1..b); by default a new whole-grid array is returned.
    """
    n, h = field.n, field.h
    size = f.shape[0]
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
    for name in ("h", "t_max", "threshold"):
        value = getattr(numerics, name)
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    r_max = numerics.resolved_r_max(params.R)
    if not math.isfinite(r_max):
        raise ValueError(f"r_max must be finite, got {r_max}")
    if r_max < params.R + numerics.t_max + h:
        raise ValueError("domain too small: the light cone reaches the boundary")
    fld = make_field(params.n, h, dt, r_max)
    eps = params.epsilon
    base = profile(spec.shape, fld.x, params.R)
    # an amplitude product or |v0|^p can overflow, and inf * 0 is nan: both
    # are refused below, by the blow-up test or the finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        u0 = eps * spec.amp_u0 * base
        u1 = eps * spec.amp_u1 * base
        v0 = eps * spec.amp_v0 * base
        v1 = eps * spec.amp_v1 * base
        if _crossed(_max(u0), _max(v0), numerics.threshold):  # u0, v0 >= 0
            raise ValueError("the initial data is past the blow-up threshold "
                             f"{numerics.threshold}: max|u0| + max|v0| "
                             "crosses it at t = 0")
        fld.u = u0.copy()
        fld.v = v0.copy()
        fld.u_prev = (u0 - dt * u1 + 0.5 * dt * dt
                      * (laplacian(fld, u0) - u1 + _pow_abs(v0, params.p)))
        fld.v_prev = (v0 - dt * v1 + 0.5 * dt * dt
                      * (laplacian(fld, v0) + _pow_abs(u0, params.q)))
        fld.u_prev[-1] = fld.v_prev[-1] = 0.0
        moments = InitialMoments(du0=float(fld.w @ u1),
                                 dv0=float(fld.w @ v1))
    if not (np.isfinite(fld.u_prev).all() and np.isfinite(fld.v_prev).all()
            and math.isfinite(moments.du0) and math.isfinite(moments.dv0)):
        raise ValueError("the initial data overflows: the back level "
                         "u(-dt), v(-dt) or a velocity integral is not finite")
    return fld, moments


def step(field: RadialField, params: ProblemParams, src_u: np.ndarray,
         src_v: np.ndarray) -> None:
    """Advance one leapfrog step in place.

    The damping is the centered difference (u_next - u_prev)/(2 dt), absorbed
    into the implicit 1 + dt/2 divisor; v gets the plain leapfrog update.
    A batched field (levels of shape (nodes, k)) advances every column, each
    exactly as it would advance alone.
    src_u / src_v are the sources of u and v, in the shape of the levels:
    |v|^p and |u|^q for the coupled system (_march forms them into
    field.work.src_u / src_v), plus any forcing; zero arrays give the free,
    uncoupled wave.  The update reads p and q only through them; params
    stays in the signature so that a tracer can read R from it.
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
    src_u, src_v = src_u[a:b], src_v[a:b]
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
    if u.ndim == 1:
        # a float is falsy exactly when it is +-0.0 (nan is truthy); a
        # scalar test, since .any() on a scalar costs far more
        while lo < hi and not (u[hi - 1] or u_prev[hi - 1] or v[hi - 1]
                               or v_prev[hi - 1]):
            hi -= 1
        while lo < hi and not (u[lo] or u_prev[lo] or v[lo] or v_prev[lo]):
            lo += 1
    else:
        # count_nonzero: the cheapest row test (nan counts)
        nz = np.count_nonzero
        while lo < hi and not (nz(u[hi - 1]) or nz(u_prev[hi - 1])
                               or nz(v[hi - 1]) or nz(v_prev[hi - 1])):
            hi -= 1
        while lo < hi and not (nz(u[lo]) or nz(u_prev[lo]) or nz(v[lo])
                               or nz(v_prev[lo])):
            lo += 1
    if lo > a or hi < b:
        wk = field.work
        for buf in (wk.src_u, wk.src_v, wk.v_phi):
            if buf is not None:
                buf[a:lo] = 0.0
                buf[hi:b] = 0.0
    return lo, hi


def _nonzero_span(field: RadialField) -> tuple[int, int]:
    nonzero = ((field.u != 0.0) | (field.u_prev != 0.0)
               | (field.v != 0.0) | (field.v_prev != 0.0))
    rows = np.flatnonzero(nonzero.reshape(nonzero.shape[0], -1).any(axis=1))
    if rows.size == 0:
        return 0, 0
    return int(rows[0]), int(rows[-1]) + 1


def functionals(field: RadialField, phi_values: np.ndarray):
    """(U, V, V1) = (integral u, integral v, integral v * e^{-t} Phi), with
    phi_values = Phi(field.x).

    v * Phi is formed on field.window only, so it stays finite where Phi
    overflows but v has not arrived."""
    U = float(field.w @ field.u)
    V = float(field.w @ field.v)
    lo, hi = field.window
    np.multiply(field.v[lo:hi], phi_values[lo:hi],
                out=field.work.v_phi[lo:hi])
    V1 = math.exp(-field.t) * float(field.w @ field.work.v_phi)
    return U, V, V1


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
    count as zero amplitude.  mags = (|u|, |v|, max|u|, max|v|) on
    field.window, when the caller has them already (_march does).
    """
    lo, hi = field.window
    if mags is None:
        abs_u, abs_v = np.abs(field.u[lo:hi]), np.abs(field.v[lo:hi])
        mags = (abs_u, abs_v, _max(abs_u), _max(abs_v))
    abs_u, abs_v, m_u, m_v = mags
    floor = tol * field.h * field.h * (1.0 + field.t)
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


def run(params: ProblemParams, spec: InitialDataSpec,
        numerics: Numerics) -> FunctionalTrace:
    """March to t_max or blow-up, recording functionals every step.

    Blow-up is flagged the first time max|u| + max|v| crosses the threshold
    (or any value goes non-finite), by the test blowup_times uses too.  The
    reported time is threshold-dependent by design.  The record of each time
    level, the crossing one included, is taken on the exact nonzero span
    (see _march).
    """
    fld, moments = make_initial_data(params, spec, numerics)
    phi_vals = PhiEvaluator(params.n).phi(fld.x)
    # per time level: t, U, V, V1, max|u|, max|v|, the two source integrals
    # and the support radius's excess over R + t
    record: list[float] = []

    def observe(fld: RadialField, mags) -> None:
        wk = fld.work
        record.extend((fld.t, *functionals(fld, phi_vals), mags[2], mags[3],
                       float(fld.w @ wk.src_u), float(fld.w @ wk.src_v),
                       support_radius(fld, mags=mags) - (params.R + fld.t)))

    (t_blowup,) = _march(fld, params, numerics, observe)
    times, U, V, V1, max_u, max_v, src_u, src_v, excess = (
        np.reshape(record, (-1, 9)).T.copy())
    res_u, res_v = balance_residuals(times, U, V, src_u, src_v,
                                     moments.du0, moments.dv0)
    return FunctionalTrace(times=times, U=U, V=V, V1=V1, max_u=max_u,
                           max_v=max_v, src_u=src_u, src_v=src_v,
                           res_u=res_u, res_v=res_v, t_blowup=t_blowup,
                           reason=(BlowupReason.NONE if t_blowup is None
                                   else BlowupReason.MAX_NORM),
                           support_max_excess=float(excess.max()),
                           du0=moments.du0, dv0=moments.dv0)


def _max(a: np.ndarray) -> float:
    """Largest entry of a nonnegative array; 0.0 when it is empty."""
    return float(np.maximum.reduce(a, axis=None, initial=0.0))


def _crossed(m_u: float, m_v: float, threshold: float) -> bool:
    """The max-norm blow-up test: a non-finite maximum or a sum past the
    threshold."""
    finite = math.isfinite(m_u) and math.isfinite(m_v)
    return not finite or m_u + m_v > threshold


def _march(fld: RadialField, params: ProblemParams, numerics: Numerics,
           observe=None) -> list[float | None]:
    """Leapfrog fld to t_max or until every column has crossed; the blow-up
    time of each column (None where it reaches t_max), one entry for 1-D
    levels.

    Stepping covers the exact nonzero span of the levels.  At each time level
    |u| and |v| are formed once on the span, into work.lap and work.acc, and
    the columns that crossed are retired.  The per-column maxima are formed
    only when the maxima over all columns cross: rounding is monotone, so no
    column can cross before that.  Then the sources are formed and, if given,
    observe(fld, (|u|, |v|, max|u|, max|v|)) is called at every time level
    up to the last: t_max or the crossing (on a batch, the magnitudes of a
    level still hold the columns retired at it).

    Retiring columns copies the levels once with compress, which keeps them
    C-contiguous like the rebuilt work buffers (see RadialField); a column
    mask on axis 1 would return them in Fortran order.
    """
    # original index of each live column
    cols = list(range(fld.u.shape[1] if fld.u.ndim == 2 else 1))
    t_blowup: list[float | None] = [None] * len(cols)
    n_steps = int(round(numerics.t_max / fld.dt))
    fld.span = _nonzero_span(fld)

    for k in range(n_steps + 1):
        lo, hi = fld.span
        wk = fld.work
        abs_u = np.abs(fld.u[lo:hi], out=wk.lap[lo:hi])
        abs_v = np.abs(fld.v[lo:hi], out=wk.acc[lo:hi])
        m_u, m_v = _max(abs_u), _max(abs_v)
        if _crossed(m_u, m_v, numerics.threshold):
            # rows are nodes and columns the live epsilons, 1-D levels too
            col_u, col_v = (np.maximum.reduce(a.reshape(hi - lo, len(cols)),
                                              axis=0, initial=0.0).tolist()
                            for a in (abs_u, abs_v))
            done = [_crossed(a, b, numerics.threshold)
                    for a, b in zip(col_u, col_v)]
            for j, d in zip(cols, done):
                if d:
                    t_blowup[j] = fld.t
            cols = [j for j, d in zip(cols, done) if not d]
            if cols and any(done):
                keep = np.logical_not(done)
                for name in ("u", "u_prev", "v", "v_prev"):
                    setattr(fld, name,
                            getattr(fld, name).compress(keep, axis=1))
                fld.work = wk = _Work(fld.n, fld.x, fld.u.shape)
        _pow_abs(fld.v[lo:hi], params.p, out=wk.src_u[lo:hi])
        _pow_abs(fld.u[lo:hi], params.q, out=wk.src_v[lo:hi])
        if observe is not None:
            observe(fld, (abs_u, abs_v, m_u, m_v))
        if not cols or k == n_steps:
            break
        step(fld, params, src_u=wk.src_u, src_v=wk.src_v)
    return t_blowup


def _stacked_initial_data(params: ProblemParams, epsilons: list[float],
                          spec: InitialDataSpec,
                          numerics: Numerics) -> RadialField:
    """One field whose column j holds make_initial_data's levels for
    epsilons[j]; each per-epsilon field is dropped once copied."""
    fld = None
    for j, e in enumerate(epsilons):
        one, _ = make_initial_data(replace(params, epsilon=e), spec, numerics)
        if fld is None:
            shape = (one.x.size, len(epsilons))
            fld = RadialField(n=one.n, h=one.h, dt=one.dt, x=one.x, w=one.w,
                              u=np.empty(shape), u_prev=np.empty(shape),
                              v=np.empty(shape), v_prev=np.empty(shape))
        for name in ("u", "u_prev", "v", "v_prev"):
            getattr(fld, name)[:, j] = getattr(one, name)
    return fld


def blowup_times(params: ProblemParams, epsilons, spec: InitialDataSpec,
                 numerics: Numerics) -> list[float | None]:
    """Blow-up time of run(replace(params, epsilon=e), spec, numerics) for
    each e in epsilons (None where it reaches t_max), bit for bit, from one
    march of all of them: the levels of every epsilon are stacked as the
    columns of one (nodes, k) field.  No functionals, support radii or
    residuals are formed.
    """
    eps = [float(e) for e in epsilons]
    if not eps:
        return []
    return _march(_stacked_initial_data(params, eps, spec, numerics),
                  params, numerics)
