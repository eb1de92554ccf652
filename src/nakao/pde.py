"""Radially symmetric explicit finite-difference simulator for the coupled
system (damped component driven by |v|^p, free component by |u|^q), with
functional tracking, discrete balance residuals, support checks and max-norm
blow-up detection.

Every dimension is solved on the radial half line 0 <= r <= r_max, n = 1
included (even data on the line), with one conservative three-point operator
(see _stencil): the finite-volume form of r^{1-n} (r^{n-1} u')' on exact
cell volumes, which are also the quadrature weights.  Its origin row is
2n (u_1 - u_0)/h^2, and the outer boundary is homogeneous Dirichlet, which
the light cone never reaches.  Leapfrog on it is stable for
cfl < cfl_max(n), about sqrt(2/n) for n >= 6; make_initial_data refuses
larger cfl.

One leapfrog loop, `_march`, steps and measures only the exact nonzero span
of the solution (see RadialField.span), in buffers allocated once per field;
every value equals that of the whole-grid computation bit for bit, the
quadratures summing the span.  The level
arrays may carry a trailing epsilon axis, shape (nodes, k): `blowup_times`
marches a whole ladder of amplitudes that way, one column per epsilon, and
`run` marches one column with an observer that records the diagnostics, so
each column's blow-up time equals that of its own `run` bit for bit.
Blow-up is flagged by one test, `_crossed`: max|u| + max|v| past the
threshold, or a non-finite maximum.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .params import ProblemParams, sphere_area
from .testfn import PhiEvaluator


@dataclass(frozen=True)
class Numerics:
    """Grid/time configuration.  dt = cfl * h; the grid ends at
    r_max = R + t_max + max(0.5, 4h): the light cone plus a few nodes of
    padding.  The scheme's sub-truncation dust runs ahead of the cone and
    reaches the last interior node in most runs (at n = 3, h = 0.01 at
    t = 33, where it is 2.3e-8 of max|u| at t = 40).  threshold is the
    max-norm blow-up level (see run).  make_initial_data refuses h, t_max or
    threshold that is not finite and positive, an r_max that overflows and a
    cfl outside (0, cfl_max(n))."""

    h: float = 0.02
    cfl: float = 0.45
    t_max: float = 40.0
    threshold: float = 1e8

    def resolved_r_max(self, R: float) -> float:
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
    """Unit-amplitude nonnegative profile of the radii r >= 0, supported in
    r <= R."""
    rr = np.asarray(r, dtype=float) / R
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
    w: np.ndarray        # |S^{n-1}| x cell volume: integral f dx = w . f
    u: np.ndarray
    u_prev: np.ndarray
    v: np.ndarray
    v_prev: np.ndarray
    k: int = 0           # completed steps; current time = k * dt
    span: tuple[int, int] | None = None
    work: _Work = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.work = _Work(self.n, self.h, self.dt, self.x, self.u.shape)

    @property
    def t(self) -> float:
        return self.k * self.dt

    @property
    def window(self) -> tuple[int, int]:
        """Nodes lo..hi-1 that the per-step work covers: the span, or the
        whole grid."""
        return self.span if self.span is not None else (0, self.x.size)


class _Work:
    """The three-point coefficients of one field and scratch arrays in the
    shape of its levels, so that stepping allocates nothing.

    stencil = (lower, diag, upper) is the radial Laplacian (see _stencil)
    that laplacian applies.  step applies it folded into the leapfrog
    update: coef_v = dt^2 stencil + (0, 2, 0), then the source factor dt^2;
    coef_u is the same divided by the damping divisor 1 + dt/2, then the
    factor of u_prev.  At n = 1 the coefficients are floats, the interior
    values, and the origin row reads the even ghost f(-h) = f(h); a batch
    then allocates no coefficient arrays.  For n >= 2 they are per-node
    arrays, and step's are repeated in every column of a batch (a broadcast
    (nodes, 1) operand makes numpy loop over the few columns, ~5x slower).

    src_u, src_v (the sources |v|^p, |u|^q) are zero outside the span, where
    step reads them one node beyond it: step zeroes the nodes it trims.  lap
    and acc are step's scratch, free between steps: _march forms |u| and |v|
    in them.  mask_u and mask_v serve support_radius, which takes 1-D levels
    only, and are None for a batch.
    """

    def __init__(self, n: int, h: float, dt: float, x: np.ndarray,
                 shape: tuple[int, ...]) -> None:
        self.lap, self.acc = np.zeros(shape), np.zeros(shape)
        self.src_u, self.src_v = np.zeros(shape), np.zeros(shape)
        self.mask_u = self.mask_v = None
        if len(shape) == 1:
            self.mask_u = np.zeros(shape, dtype=bool)
            self.mask_v = np.zeros(shape, dtype=bool)
        lower, diag, upper = _stencil(n, x, h)
        if n == 1:
            lower, diag, upper = float(lower[1]), float(diag[1]), float(upper[1])
        self.stencil = lower, diag, upper
        dt2, damp = dt * dt, 1.0 / (1.0 + 0.5 * dt)
        coef_v = [dt2 * lower, 2.0 + dt2 * diag, dt2 * upper]
        coef_u = [damp * c for c in coef_v]
        if n >= 2 and len(shape) == 2:
            coef_v, coef_u = ([np.broadcast_to(c[:, None], shape).copy()
                               for c in coefs] for coefs in (coef_v, coef_u))
        self.coef_v = (*coef_v, dt2)
        self.coef_u = (*coef_u, damp * dt2, damp * (0.5 * dt - 1.0))


def make_field(n: int, h: float, dt: float, r_max: float) -> RadialField:
    """Zero-initialized field on the grid covering radius r_max."""
    x = np.arange(int(math.ceil(r_max / h)) + 1) * h
    w = sphere_area(n) * _cell_volumes(n, x, h)
    z = np.zeros_like(x)
    return RadialField(n=n, h=h, dt=dt, x=x, w=w,
                       u=z.copy(), u_prev=z.copy(), v=z.copy(), v_prev=z.copy())


def _cell_volumes(n: int, x: np.ndarray, h: float) -> np.ndarray:
    """Volume of each node's cell in units of |S^{n-1}|: the shell
    ((r + h/2)^n - (r - h/2)^n)/n, and (h/2)^n/n for the origin's [0, h/2].
    The shell is summed as its odd-power binomial expansion, which has no
    cancellation at large r and is exactly h at n = 1 (w = 2h, h at the
    origin)."""
    a = 0.5 * h
    vol = sum(2.0 * math.comb(n, j) / n * a ** j * x ** (n - j)
              for j in range(1, n + 1, 2))
    vol[0] = a ** n / n
    return vol


def _stencil(n: int, x: np.ndarray, h: float):
    """(lower, diag, upper), per node, of the conservative radial Laplacian
        (Lf)_i = (s_i (f_{i+1} - f_i) - s_{i-1} (f_i - f_{i-1})) / (h vol_i),
    the finite-volume form of r^{1-n} (r^{n-1} f')': s_i = (r_i + h/2)^{n-1}
    is the face between nodes i and i+1 and vol_i the cell volume, both in
    units of |S^{n-1}|.  With these weights the sum of w * Lf telescopes to
    the boundary flux.  The origin row has no inner face and is
    2n (f_1 - f_0)/h^2; the Dirichlet row at r_max is zero."""
    vol = _cell_volumes(n, x, h)
    face = (x + 0.5 * h) ** (n - 1)
    upper = face / (h * vol)
    lower = np.zeros_like(upper)
    lower[1:] = face[:-1] / (h * vol[1:])
    diag = -(lower + upper)
    for c in (lower, diag, upper):
        c[-1] = 0.0
    return lower, diag, upper


# nodes of the grid on which cfl_max finds the spectral radius (h = 1); the
# largest eigenvector is an origin mode that has decayed to rounding by then
_CFL_NODES = 64


@functools.lru_cache(maxsize=None)
def cfl_max(n: int) -> float:
    """Largest stable Courant number of the leapfrog step in dimension n.

    Leapfrog on f_tt = Lf is energy-stable while dt^2 rho < 4, with rho the
    spectral radius of -L; L is symmetric in the cell-volume inner product.
    The interior rows give rho -> 4/h^2 (the line's bound, cfl < 1); for
    n >= 2 the origin rows add a larger eigenvalue, whose eigenvector is
    localized at the origin, so that cfl_max falls like sqrt(2/n) (0.909 at
    n = 2, 0.5 at n = 8, 0.447 at n = 10).  rho scales as 1/h^2, so it is
    found once per n at h = 1, by bisection on the Sturm count of the
    symmetrized tridiagonal -L (no LAPACK call, whose buffers would cost
    a sweep ~1 MB of peak memory)."""
    lower, diag, upper = _stencil(n, np.arange(_CFL_NODES + 1.0), 1.0)
    a = (-diag[:-1]).tolist()
    off2 = (upper[:-2] * lower[1:-1]).tolist()   # squared couplings

    def count_below(lam: float) -> int:
        count, d = 0, 1.0
        for ai, b2 in zip(a, [0.0] + off2):
            d = (ai - lam - b2 / d) or 1e-300
            count += d < 0.0
        return count

    if count_below(4.0) == len(a):   # the interior band: the line's bound
        return 1.0
    lo, hi = 4.0, 2.0 * max(a)   # rho <= hi: Gershgorin's bound on -L's rows
    while hi - lo > 1e-15 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if count_below(mid) == len(a) else (mid, hi)
    return 2.0 / math.sqrt(hi)


def _three_point(coefs, f: np.ndarray, o: np.ndarray, t: np.ndarray,
                 a: int, b: int) -> np.ndarray:
    """o = lower f_{i-1} + diag f_i + upper f_{i+1} on rows a..b-1, b below
    the Dirichlet row, for o = out[a:b] with scratch t = tmp[a:b]; returns
    o.  The origin row has no lower term, except the even ghost
    f_{-1} = f_1 of float (n = 1) coefficients."""
    lower, diag, upper = coefs[:3]
    per_node = isinstance(diag, np.ndarray)
    np.multiply(diag[a:b] if per_node else diag, f[a:b], out=o)
    np.add(o, np.multiply(upper[a:b] if per_node else upper, f[a + 1:b + 1],
                          out=t), out=o)
    if a == 0:
        if not per_node:
            o[0] += lower * f[1]
        a, o, t = 1, o[1:], t[1:]
    np.add(o, np.multiply(lower[a:b] if per_node else lower, f[a - 1:b - 1],
                          out=t), out=o)
    return o


def laplacian(field: RadialField, f: np.ndarray) -> np.ndarray:
    """The radial Laplacian of one level f (1-D) with the field's stencil, as
    a new array; zero on the Dirichlet row at r_max."""
    out = np.zeros_like(f)
    b = f.shape[0] - 1
    _three_point(field.work.stencil, f, out[:b], np.empty(b), 0, b)
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
    bound = cfl_max(params.n)
    if not 0.0 < numerics.cfl < bound:
        raise ValueError(f"CFL violation: need 0 < cfl < cfl_max({params.n})"
                         f" = {bound:.6g}, got {numerics.cfl}")
    for name in ("h", "t_max", "threshold"):
        value = getattr(numerics, name)
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    r_max = numerics.resolved_r_max(params.R)
    if not math.isfinite(r_max):
        raise ValueError(f"r_max must be finite, got {r_max}")
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

    v_next = 2 v - v_prev + dt^2 (L v + src_v), and u_next is the same with
    the damping as the centered difference (u_next - u_prev)/(2 dt), which
    divides the update by 1 + dt/2.  Both are five-term sums over the
    coefficients that field.work precomputes (see _Work).
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
    # rows a..b1-1: the Dirichlet row stays zero
    b1 = min(b, size - 1)
    wk = field.work
    o, t = wk.acc[a:b1], wk.lap[a:b1]

    coef = wk.coef_u
    _three_point(coef, field.u, o, t, a, b1)
    np.add(o, np.multiply(coef[3], src_u[a:b1], out=t), out=o)
    u_prev = field.u_prev[a:b1]
    np.add(o, np.multiply(coef[4], u_prev, out=u_prev), out=u_prev)

    coef = wk.coef_v
    _three_point(coef, field.v, o, t, a, b1)
    np.add(o, np.multiply(coef[3], src_v[a:b1], out=t), out=o)
    v_prev = field.v_prev[a:b1]
    np.subtract(o, v_prev, out=v_prev)

    field.u_prev[-1] = field.v_prev[-1] = 0.0
    field.u_prev, field.u = field.u, field.u_prev
    field.v_prev, field.v = field.v, field.v_prev
    field.k += 1
    if field.span is not None:
        field.span = _trim(field, a, b)


def _trim(field: RadialField, a: int, b: int) -> tuple[int, int]:
    """Shrink nodes a..b-1 to the exact nonzero span of the four levels and
    zero the trimmed nodes of the sources, which must vanish outside it."""
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
        for buf in (field.work.src_u, field.work.src_v):
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


def functionals(field: RadialField, w_phi: np.ndarray, log_phi: np.ndarray):
    """(U, V, V1) = (integral u, integral v, integral v * e^{-t} Phi), summed
    over field.window.

    w_phi = field.w * Phi(field.x) on the first nodes of the grid: all of
    them, or those below the radius where V1 forms e^{-t} Phi in log space
    instead, as exp(log_phi - t) with log_phi = log Phi(field.x) (read on
    window nodes past w_phi only).  Phi overflows past r ~ 709, and
    w * v * Phi sooner, while the log form stays finite (see run)."""
    lo, hi = field.window
    w, v = field.w, field.v
    U = float(w[lo:hi] @ field.u[lo:hi])
    V = float(w[lo:hi] @ v[lo:hi])
    j = min(max(lo, w_phi.size), hi)
    V1 = math.exp(-field.t) * float(w_phi[lo:j] @ v[lo:j])
    if j < hi:
        tail = np.exp(log_phi[j:hi] - field.t)
        V1 += float(w[j:hi] @ np.multiply(v[j:hi], tail, out=tail))
    return U, V, V1


def support_radius(field: RadialField, mags=None) -> float:
    """Largest radius carrying amplitude above the accumulated-truncation floor:
    the radius of the last such node, since the grid radii increase.

    An explicit scheme at Courant number < 1 moves strictly-nonzero values
    faster than the light cone, but only at amplitudes of the scheme's own
    global error, O(h^2 (1+t)) relative to the field maximum.  Nodal support
    is therefore measured above the floor h^2 * (1+t) * max-amplitude.
    With that floor the excess over R + t stays within 2h for n = 1, 2, 3 up
    to t = 5 (test_support_containment_within_two_h), but 2h is not a bound
    in general: 3.1h was measured at n = 3, h = 0.01, t = 40 (the benchmark's
    radial-n3 workload).  A transport or stencil bug would still blast far
    through it.  mags = (|u|, |v|, max|u|, max|v|) on field.window, when the
    caller has them already (_march does).
    """
    lo, hi = field.window
    if mags is None:
        abs_u, abs_v = np.abs(field.u[lo:hi]), np.abs(field.v[lo:hi])
        mags = (abs_u, abs_v, _max(abs_u), _max(abs_v))
    abs_u, abs_v, m_u, m_v = mags
    floor = field.h * field.h * (1.0 + field.t)
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


# log 2^512: V1 sums v * Phi directly below it and v * e^{log Phi - t} past it
_LOG_PHI_MAX = 512.0 * math.log(2.0)


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
    log_phi = PhiEvaluator(params.n).log_phi(fld.x)
    # Phi below 2^512, so that w * v * Phi cannot overflow either; e^{-t} Phi
    # is formed in log space past it
    j = int(np.searchsorted(log_phi, _LOG_PHI_MAX))
    w = fld.w
    w_phi = w[:j] * np.exp(log_phi[:j])
    # per time level: t, U, V, V1, max|u|, max|v| and the two source
    # integrals; and the largest excess of the support radius over R + t
    record: list[float] = []
    excess = -math.inf

    def observe(fld: RadialField, mags) -> None:
        nonlocal excess
        lo, hi = fld.span
        t, wk = fld.t, fld.work
        record.extend((t, *functionals(fld, w_phi, log_phi), mags[2], mags[3],
                       float(w[lo:hi] @ wk.src_u[lo:hi]),
                       float(w[lo:hi] @ wk.src_v[lo:hi])))
        reach = params.R + t
        excess = max(excess, support_radius(fld, mags=mags) - reach)

    (t_blowup,) = _march(fld, params, numerics, observe)
    times, U, V, V1, max_u, max_v, src_u, src_v = (
        np.reshape(record, (-1, 8)).T.copy())
    res_u, res_v = balance_residuals(times, U, V, src_u, src_v,
                                     moments.du0, moments.dv0)
    return FunctionalTrace(times=times, U=U, V=V, V1=V1, max_u=max_u,
                           max_v=max_v, src_u=src_u, src_v=src_v,
                           res_u=res_u, res_v=res_v, t_blowup=t_blowup,
                           reason=(BlowupReason.NONE if t_blowup is None
                                   else BlowupReason.MAX_NORM),
                           support_max_excess=excess,
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
                fld.work = wk = _Work(fld.n, fld.h, fld.dt, fld.x,
                                      fld.u.shape)
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
