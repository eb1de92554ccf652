import math

import numpy as np
import pytest

from nakao.params import ProblemParams
from nakao.pde import (BlowupReason, InitialDataSpec, Numerics, RadialField,
                       _nonzero_span, _pow_abs, balance_residuals,
                       functionals, laplacian, make_field, make_initial_data,
                       profile, run, step, support_radius)
from nakao.testfn import PhiEvaluator

P122 = ProblemParams(1, 2.0, 2.0, R=1.0, epsilon=0.2)
SPEC = InitialDataSpec()

# integral of exp(1 - 1/(1 - x^2)) over [-1, 1], 25-digit quadrature
BUMP_INTEGRAL = 1.206900322437876


def test_zero_data_is_fixed_point():
    spec = InitialDataSpec(amp_u0=0.0, amp_u1=0.0, amp_v0=0.0, amp_v1=0.0)
    num = Numerics(h=0.05, cfl=0.45, t_max=1.0)
    trace = run(P122, spec, num)
    assert np.all(trace.U == 0.0) and np.all(trace.V == 0.0)
    assert np.all(trace.max_u == 0.0)
    assert trace.res_u_max == 0.0 and trace.res_v_max == 0.0
    assert trace.t_blowup is None and trace.reason is BlowupReason.NONE


def test_initial_data_support_and_linearity():
    num = Numerics(h=0.02, cfl=0.45, t_max=1.0)
    fld, _ = make_initial_data(P122, SPEC, num)
    assert support_radius(fld, 0.0) <= P122.R + num.h  # tol 0 = any nonzero
    fld2, _ = make_initial_data(
        ProblemParams(1, 2.0, 2.0, R=1.0, epsilon=0.4), SPEC, num)
    # the t=0 level scales exactly linearly with eps
    assert np.allclose(fld2.u, 2.0 * fld.u, rtol=0, atol=0)
    assert np.allclose(fld2.v, 2.0 * fld.v, rtol=0, atol=0)


def test_initial_data_validation():
    with pytest.raises(ValueError):
        InitialDataSpec(amp_u0=-1.0)
    with pytest.raises(ValueError):
        InitialDataSpec(shape="square")
    with pytest.raises(ValueError):
        make_initial_data(P122, SPEC, Numerics(cfl=1.0, t_max=1.0))
    with pytest.raises(ValueError):
        make_initial_data(P122, SPEC, Numerics(cfl=-0.5, t_max=1.0))
    with pytest.raises(ValueError):
        make_initial_data(P122, SPEC, Numerics(h=0.0, t_max=1.0))
    with pytest.raises(ValueError):
        make_initial_data(P122, SPEC, Numerics(t_max=10.0, r_max=2.0))


@pytest.mark.parametrize("shape,exact", [("bump", BUMP_INTEGRAL),
                                         ("cosine", 1.0)])
def test_initial_functional_matches_profile_integral(shape, exact):
    num = Numerics(h=0.02, cfl=0.45, t_max=0.5)
    spec = InitialDataSpec(shape=shape)
    trace = run(P122, spec, num)
    assert trace.U[0] == pytest.approx(P122.epsilon * exact, rel=5e-4)
    num2 = Numerics(h=0.01, cfl=0.45, t_max=0.5)
    trace2 = run(P122, spec, num2)
    err1 = abs(trace.U[0] - P122.epsilon * exact)
    err2 = abs(trace2.U[0] - P122.epsilon * exact)
    assert err2 <= err1 + 1e-12


def _mms_error(h, t_end=1.0, cfl=0.45):
    """Manufactured solution on [-2, 2]: u = e^{-t} cos(kx), v = e^{-t/2} cos(kx)."""
    X, params = 2.0, ProblemParams(1, 2.0, 2.0)
    kap = math.pi / (2.0 * X)
    dt = cfl * h
    fld = make_field(1, h, dt, X)
    x = fld.x

    def u_exact(t):
        return math.exp(-t) * np.cos(kap * x)

    def v_exact(t):
        return math.exp(-0.5 * t) * np.cos(kap * x)

    fld.u, fld.v = u_exact(0.0), v_exact(0.0)
    fld.u_prev, fld.v_prev = u_exact(-dt), v_exact(-dt)
    for _ in range(int(round(t_end / dt))):
        t = fld.t
        uu, vv = u_exact(t), v_exact(t)
        f_u = kap * kap * uu - _pow_abs(vv, params.p)
        f_v = (0.25 + kap * kap) * vv - _pow_abs(uu, params.q)
        step(fld, params,
             src_u=_pow_abs(fld.v, params.p) + f_u,
             src_v=_pow_abs(fld.u, params.q) + f_v)
    return float(np.max(np.abs(fld.u - u_exact(fld.t)))
                 + np.max(np.abs(fld.v - v_exact(fld.t))))


def test_manufactured_solution_second_order():
    errs = [_mms_error(h) for h in (0.04, 0.02, 0.01)]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9


def test_linear_damped_energy_nonincreasing():
    h = 0.02
    params = ProblemParams(1, 2.0, 2.0)
    fld = make_field(1, h, 0.45 * h, 4.0)
    prof = np.exp(-(fld.x / 0.8) ** 2) * (fld.x < 3.0)
    fld.u = prof.copy()
    fld.u_prev = prof.copy()
    zero = np.zeros_like(fld.x)

    # the full-line energy folded onto the half line: the kinetic term takes
    # the weights w (the origin node once, the others twice), and every edge
    # appears twice on the line, so the half-line edge sum is not halved
    def energy():
        du = (fld.u - fld.u_prev) / fld.dt
        grad = np.sum((fld.u[1:] - fld.u[:-1])
                      * (fld.u_prev[1:] - fld.u_prev[:-1])) / h
        return 0.5 * float(fld.w @ (du * du)) + float(grad)

    prev = math.inf
    for _ in range(1500):
        step(fld, params, zero, zero)
        e = energy()
        assert e <= prev + 1e-12
        prev = e


def test_balance_residuals_second_order():
    params = ProblemParams(1, 2.0, 2.0, epsilon=0.05)
    res = {}
    for h in (0.02, 0.01):
        trace = run(params, SPEC, Numerics(h=h, cfl=0.45, t_max=2.0))
        res[h] = (trace.res_u_max, trace.res_v_max)
    for i in range(2):
        ratio = res[0.02][i] / res[0.01][i]
        assert 3.4 <= ratio <= 4.6   # ~4x per halving
    assert res[0.01][0] < 1e-5 and res[0.01][1] < 1e-5


def test_balance_residual_normalization():
    times = np.arange(5) * 0.1
    z = np.zeros(5)
    U = np.array([0.0, 1e-3, 4e-3, 9e-3, 1.6e-2])
    # an all-zero right-hand side normalizes by 1, not by the 1e-300 floor
    res_u, res_v = balance_residuals(times, U, z, z, z, 0.0, 0.0)
    assert np.max(np.abs(res_u)) < 1.0 and not res_v.any()
    # a nan right-hand side gives nan residuals, never a finite one
    nan_src = np.array([0.0, np.nan, 0.0, 0.0, 0.0])
    res_u, res_v = balance_residuals(times, U, z, nan_src, nan_src, 0.0, 0.0)
    assert np.all(np.isnan(res_u)) and np.all(np.isnan(res_v))


def test_functional_positivity_and_monotone_v_slope():
    trace = run(P122, SPEC, Numerics(h=0.02, cfl=0.45, t_max=4.0))
    assert np.all(trace.U >= 0.0) and np.all(trace.V >= 0.0)
    assert np.all(trace.U >= trace.U[0] * (1 - 1e-9))
    # V' nondecreasing: second differences stay above the roundoff floor
    d2 = np.diff(trace.V, 2)
    assert np.min(d2) >= -1e-11 * (1.0 + float(np.max(trace.V)))
    # and V' stays above its initial slope
    dt = trace.times[1] - trace.times[0]
    dV = np.diff(trace.V) / dt
    assert np.all(dV >= trace.dv0 * (1 - 1e-9) - 1e-12)


def test_first_lower_bound_shapes():
    # eigenfunction-route shapes: U >= c (R+t)^{-(n-1)p/2} t^n, V >= c' t
    trace = run(P122, SPEC, Numerics(h=0.02, cfl=0.45, t_max=6.0))
    sel = trace.times >= 1.0
    assert np.min(trace.U[sel] / trace.times[sel]) > 0.0   # n=1 exponent
    assert np.min(trace.V[sel] / trace.times[sel]) > 0.0
    assert np.min(trace.V1[sel]) > 0.0


def test_support_containment_within_two_h():
    for n in (1, 2, 3):
        params = ProblemParams(n, 2.0, 2.0, R=1.0, epsilon=0.3)
        num = Numerics(h=0.02, cfl=0.45, t_max=5.0)
        trace = run(params, SPEC, num)
        assert trace.support_max_excess <= 2.0 * num.h


def test_blowup_regression_and_reasons():
    # frozen from the first run of this configuration
    num = Numerics(h=0.02, cfl=0.45, t_max=60.0, threshold=1e8)
    trace = run(ProblemParams(1, 2.0, 2.0, R=1.0, epsilon=0.5), SPEC, num)
    assert trace.t_blowup == pytest.approx(6.687, abs=1e-9)
    assert trace.reason is BlowupReason.MAX_NORM
    assert trace.support_max_excess <= 2 * num.h
    num_f = Numerics(h=0.02, cfl=0.45, t_max=60.0, threshold=1e8,
                     functional_threshold=5.0)
    trace_f = run(ProblemParams(1, 2.0, 2.0, R=1.0, epsilon=0.5), SPEC, num_f)
    assert trace_f.reason is BlowupReason.FUNCTIONAL
    assert trace_f.t_blowup < trace.t_blowup


def test_blowup_monotone_in_eps_and_grid_stable():
    num = Numerics(h=0.04, cfl=0.45, t_max=40.0)
    ts = []
    for eps in (0.5, 0.4, 0.3, 0.2):
        trace = run(ProblemParams(1, 2.0, 2.0, epsilon=eps), SPEC, num)
        assert trace.t_blowup is not None
        ts.append(trace.t_blowup)
    assert all(a <= b + num.h for a, b in zip(ts, ts[1:]))
    # refinement moves the detected time by < 10%
    t_half = run(ProblemParams(1, 2.0, 2.0, epsilon=0.5), SPEC,
                 Numerics(h=0.02, cfl=0.45, t_max=40.0)).t_blowup
    assert abs(t_half - ts[0]) / t_half < 0.10


def test_radial_laplacian_consistency():
    # radial Laplacian of r^2 is 2n everywhere (including the origin row)
    for n in (2, 3, 5):
        fld = make_field(n, 0.01, 0.005, 1.0)
        vals = laplacian(fld, fld.x ** 2)
        inner = vals[:-1]
        assert np.allclose(inner, 2.0 * n, atol=1e-9)


# --- span stepping against the whole-grid reference ------------------------
# The reference below is the whole-grid arithmetic that run used before it
# stepped only the nonzero span: every array allocated afresh, every pass over
# the whole grid, and the even-ghost origin row for every n.  Span stepping
# must reproduce it bit for bit.

def _ref_laplacian(fld, f):
    n, h, x = fld.n, fld.h, fld.x
    out = np.zeros_like(f)
    out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / (h * h)
    if n >= 2:
        out[1:-1] += (n - 1) / x[1:-1] * (f[2:] - f[:-2]) / (2.0 * h)
    out[0] = 2.0 * n * (f[1] - f[0]) / (h * h)
    return out


def _ref_pow_abs(f, e):
    if e == 2.0:
        return f * f
    if e == 3.0:
        return np.abs(f) * f * f
    return np.abs(f) ** e


def _ref_step(fld, params, src_u, src_v, walls=(-1,)):
    """One whole-grid step; the rows in walls are held at zero."""
    dt = fld.dt
    u_next = (2.0 * fld.u - fld.u_prev
              + dt * dt * (_ref_laplacian(fld, fld.u) + src_u)
              + 0.5 * dt * fld.u_prev) / (1.0 + 0.5 * dt)
    v_next = (2.0 * fld.v - fld.v_prev
              + dt * dt * (_ref_laplacian(fld, fld.v) + src_v))
    u_next[list(walls)] = v_next[list(walls)] = 0.0
    fld.u_prev, fld.u = fld.u, u_next
    fld.v_prev, fld.v = fld.v, v_next
    fld.k += 1


def _ref_support_radius(fld, tol):
    floor = tol * fld.h * fld.h * (1.0 + fld.t)
    m_u = float(np.max(np.abs(fld.u)))
    m_v = float(np.max(np.abs(fld.v)))
    mask = np.zeros(fld.x.shape, dtype=bool)
    if m_u > 0.0:
        mask |= np.abs(fld.u) > floor * m_u
    if m_v > 0.0:
        mask |= np.abs(fld.v) > floor * m_v
    if not mask.any():
        return 0.0
    return float(np.max(np.abs(fld.x[mask])))


def _full_line_initial_data(params, spec, numerics):
    """The retired n = 1 layout: the signed grid -m h..m h, trapezoid weights
    h with halved ends, and both end rows of the back level held at zero."""
    h = numerics.h
    dt = numerics.cfl * h
    m = math.ceil(numerics.resolved_r_max(params.R) / h)
    fld = RadialField(n=1, h=h, dt=dt, x=(np.arange(2 * m + 1) - m) * h,
                      w=np.full(2 * m + 1, h), u=None, u_prev=None, v=None,
                      v_prev=None)
    fld.w[[0, -1]] *= 0.5
    base = profile(spec.shape, fld.x, params.R)
    u0, u1, v0, v1 = (params.epsilon * amp * base for amp in
                      (spec.amp_u0, spec.amp_u1, spec.amp_v0, spec.amp_v1))
    fld.u, fld.v = u0.copy(), v0.copy()
    fld.u_prev = (u0 - dt * u1 + 0.5 * dt * dt * (
        _ref_laplacian(fld, u0) - u1 + _ref_pow_abs(v0, params.p)))
    fld.v_prev = (v0 - dt * v1 + 0.5 * dt * dt * (
        _ref_laplacian(fld, v0) + _ref_pow_abs(u0, params.q)))
    fld.u_prev[[0, -1]] = fld.v_prev[[0, -1]] = 0.0
    return fld


def _ref_run(params, spec, numerics, full_line=False):
    """Whole-grid run loop; returns the trace fields and the final field.
    full_line runs n = 1 on the retired full-interval layout."""
    if full_line:
        fld, walls = _full_line_initial_data(params, spec, numerics), (0, -1)
    else:
        fld, walls = make_initial_data(params, spec, numerics)[0], (-1,)
    phi_vals = PhiEvaluator(params.n).phi(np.abs(fld.x))
    n_steps = int(round(numerics.t_max / fld.dt))
    rec = {k: [] for k in ("times", "U", "V", "V1", "max_u", "max_v",
                           "src_u", "src_v")}
    t_blowup, reason, max_excess = None, BlowupReason.NONE, -math.inf
    for k in range(n_steps + 1):
        pow_v = _ref_pow_abs(fld.v, params.p)
        pow_u = _ref_pow_abs(fld.u, params.q)
        U, V = float(fld.w @ fld.u), float(fld.w @ fld.v)
        m_u = float(np.max(np.abs(fld.u)))
        m_v = float(np.max(np.abs(fld.v)))
        for key, val in (("times", fld.t), ("U", U), ("V", V),
                         ("V1", math.exp(-fld.t)
                          * float(fld.w @ (fld.v * phi_vals))),
                         ("max_u", m_u), ("max_v", m_v),
                         ("src_u", float(fld.w @ pow_v)),
                         ("src_v", float(fld.w @ pow_u))):
            rec[key].append(val)
        max_excess = max(max_excess,
                         _ref_support_radius(fld, numerics.support_tol)
                         - (params.R + fld.t))
        if (not (math.isfinite(m_u) and math.isfinite(m_v))
                or m_u + m_v > numerics.threshold):
            t_blowup, reason = fld.t, BlowupReason.MAX_NORM
            break
        if (numerics.functional_threshold is not None
                and U + V > numerics.functional_threshold):
            t_blowup, reason = fld.t, BlowupReason.FUNCTIONAL
            break
        if k == n_steps:
            break
        _ref_step(fld, params, pow_v, pow_u, walls)
    rec = {key: np.asarray(vals) for key, vals in rec.items()}
    rec.update(t_blowup=t_blowup, reason=reason, support_max_excess=max_excess)
    return rec, fld


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


ZERO = InitialDataSpec(amp_u0=0.0, amp_u1=0.0, amp_v0=0.0, amp_v1=0.0)
COSINE = InitialDataSpec(shape="cosine")

# (params, data, numerics, expected reason); p and q cover the 2, 3 and
# generic branches of _pow_abs
EQUIVALENCE_CASES = {
    "n1-maxnorm": (ProblemParams(1, 2.0, 2.0, epsilon=0.5), SPEC,
                   Numerics(h=0.05, t_max=10.0), BlowupReason.MAX_NORM),
    "n1-cosine-p3-q1.5": (ProblemParams(1, 3.0, 1.5, epsilon=0.3), COSINE,
                          Numerics(h=0.05, t_max=6.0), BlowupReason.NONE),
    "n2-p1.5-q3": (ProblemParams(2, 1.5, 3.0, epsilon=0.3), SPEC,
                   Numerics(h=0.05, t_max=6.0), BlowupReason.NONE),
    "n3-functional": (ProblemParams(3, 2.0, 1.5, epsilon=0.5), COSINE,
                      Numerics(h=0.05, t_max=10.0, functional_threshold=1.0),
                      BlowupReason.FUNCTIONAL),
    "n5-p3-q2": (ProblemParams(5, 3.0, 2.0, epsilon=0.5), SPEC,
                 Numerics(h=0.05, t_max=4.0), BlowupReason.NONE),
    "n1-zero-data": (P122, ZERO, Numerics(h=0.05, t_max=2.0),
                     BlowupReason.NONE),
    "n2-zero-data": (ProblemParams(2, 2.0, 2.0), ZERO,
                     Numerics(h=0.05, t_max=2.0), BlowupReason.NONE),
    # u starts at zero and v carries the data, so the four levels have
    # different supports at the span's edges
    "n1-v-data-only": (ProblemParams(1, 2.0, 2.0, epsilon=0.5),
                       InitialDataSpec(amp_u0=0.0, amp_u1=0.0),
                       Numerics(h=0.05, t_max=4.0), BlowupReason.NONE),
    "n1-explicit-r-max": (P122, SPEC, Numerics(h=0.05, t_max=3.0, r_max=9.0),
                          BlowupReason.NONE),
    # the domain ends one node past the light cone, so the scheme's dust
    # (and hence the span) reaches the Dirichlet wall
    "n2-wall": (ProblemParams(2, 2.0, 2.0, epsilon=0.1), SPEC,
                Numerics(h=0.05, t_max=6.0, r_max=7.05), BlowupReason.NONE),
    "n1-wall": (P122, SPEC, Numerics(h=0.05, t_max=3.0, r_max=4.05),
                BlowupReason.NONE),
}


@pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
def test_span_run_bit_identical_to_whole_grid(case):
    params, spec, num, expected = EQUIVALENCE_CASES[case]
    ref, fld = _ref_run(params, spec, num)
    trace = run(params, spec, num)
    assert trace.reason is ref["reason"] is expected
    assert trace.t_blowup == ref["t_blowup"]
    assert _bits(trace.support_max_excess) == _bits(ref["support_max_excess"])
    for key in ("times", "U", "V", "V1", "max_u", "max_v", "src_u", "src_v"):
        assert _bits(getattr(trace, key)) == _bits(ref[key]), key
    if case.endswith("wall"):
        assert fld.u[-2] != 0.0 and fld.v[-2] != 0.0
    if case.endswith("zero-data"):
        assert not np.any(np.signbit(trace.U)) and not np.any(trace.U)


# n = 1 on the half line against the retired full-interval layout: even data
# folds exactly, so only roundoff separates them; it grows with the solution
# on the way to a max-norm blow-up, hence the looser rtol there
FULL_LINE_CASES = {
    "n1-maxnorm": EQUIVALENCE_CASES["n1-maxnorm"] + (1e-9,),
    "n1-cosine-p3-q1.5": EQUIVALENCE_CASES["n1-cosine-p3-q1.5"] + (1e-12,),
    "n1-functional": (ProblemParams(1, 2.0, 2.0, epsilon=0.5), SPEC,
                      Numerics(h=0.02, t_max=60.0, functional_threshold=5.0),
                      BlowupReason.FUNCTIONAL, 1e-12),
    # the eps = 0.1 rung of the reference ladder (t_blowup = 21.753)
    "n1-ladder-eps0.1": (ProblemParams(1, 2.0, 2.0, epsilon=0.1), SPEC,
                         Numerics(h=0.02, t_max=60.0), BlowupReason.MAX_NORM,
                         1e-9),
}


@pytest.mark.parametrize("case", sorted(FULL_LINE_CASES))
def test_half_line_n1_matches_full_interval(case):
    params, spec, num, expected, rtol = FULL_LINE_CASES[case]
    ref, _ = _ref_run(params, spec, num, full_line=True)
    trace = run(params, spec, num)
    assert trace.reason is ref["reason"] is expected
    assert trace.t_blowup == ref["t_blowup"]
    assert _bits(trace.support_max_excess) == _bits(ref["support_max_excess"])
    assert _bits(trace.times) == _bits(ref["times"])
    for key in ("U", "V", "V1", "max_u", "max_v", "src_u", "src_v"):
        np.testing.assert_allclose(getattr(trace, key), ref[key], rtol=rtol,
                                   atol=0, err_msg=key)
    if case == "n1-ladder-eps0.1":
        assert trace.t_blowup == pytest.approx(21.753, abs=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_laplacian_rows_match_whole_grid_reference(n):
    rng = np.random.default_rng(n)
    fld = make_field(n, 0.05, 0.02, 2.0)
    f = rng.standard_normal(fld.x.size)
    ref = _ref_laplacian(fld, f)
    assert _bits(laplacian(fld, f)) == _bits(ref)
    size = f.size
    out = np.full(size, np.nan)
    for rows in ((0, 7), (5, 17), (size - 9, size), (0, size)):
        laplacian(fld, f, out, rows)
        assert _bits(out[rows[0]:rows[1]]) == _bits(ref[rows[0]:rows[1]])


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("coupling", [True, False])
def test_whole_grid_step_matches_reference(n, coupling):
    params = ProblemParams(n, 1.5, 3.0)
    rng = np.random.default_rng(7)
    fld, ref = (make_field(n, 0.05, 0.02, 2.0) for _ in range(2))
    for name in ("u", "u_prev", "v", "v_prev"):
        level = rng.standard_normal(fld.x.size)
        setattr(fld, name, level)
        setattr(ref, name, level.copy())
    zero = np.zeros_like(ref.u)
    for _ in range(5):
        if coupling:
            step(fld, params)
            _ref_step(ref, params, _ref_pow_abs(ref.v, params.p),
                      _ref_pow_abs(ref.u, params.q))
        else:
            step(fld, params, zero, zero)
            _ref_step(ref, params, zero, zero)
    for name in ("u", "u_prev", "v", "v_prev"):
        assert _bits(getattr(fld, name)) == _bits(getattr(ref, name))


@pytest.mark.parametrize("n", [1, 3])
def test_span_stays_exact_and_sources_vanish_outside(n):
    params = ProblemParams(n, 2.0, 2.0, epsilon=0.3)
    fld, _ = make_initial_data(params, SPEC, Numerics(h=0.05, t_max=8.0))
    fld.span = _nonzero_span(fld)
    wk = fld.work
    for _ in range(300):
        lo, hi = fld.span
        _pow_abs(fld.v[lo:hi], params.p, out=wk.src_u[lo:hi])
        _pow_abs(fld.u[lo:hi], params.q, out=wk.src_v[lo:hi])
        step(fld, params, src_u=wk.src_u, src_v=wk.src_v)
        lo, hi = fld.span
        assert fld.span == _nonzero_span(fld)
        for buf in (wk.src_u, wk.src_v, wk.v_phi):
            assert not buf[:lo].any() and not buf[hi:].any()
    assert 0 < hi - lo < fld.x.size   # the span grew but stayed inside


def test_trim_zeroes_buffers_of_dropped_nodes():
    # nodes that leave the span keep no stale v * Phi (or source) values, so
    # the whole-grid dots over those buffers stay exact
    params = ProblemParams(1, 2.0, 2.0)
    fld = make_field(1, 0.1, 0.045, 3.0)
    c = fld.x.size // 2
    levels = ("u", "u_prev", "v", "v_prev")
    for name in levels:
        getattr(fld, name)[c - 5:c + 6] = 1.0
    fld.span = _nonzero_span(fld)
    phi = np.ones_like(fld.x)
    functionals(fld, phi)
    for name in levels:
        getattr(fld, name)[c - 5:c - 2] = 0.0
        getattr(fld, name)[c + 3:c + 6] = 0.0
    step(fld, params)
    lo, hi = fld.span
    assert (lo, hi) == _nonzero_span(fld) == (c - 3, c + 4)
    for buf in (fld.work.src_u, fld.work.src_v, fld.work.v_phi):
        assert not buf[:lo].any() and not buf[hi:].any()
    V1 = functionals(fld, phi)[2]
    assert V1 == math.exp(-fld.t) * float(fld.w @ (fld.v * phi))


def test_support_radius_one_sided_data():
    # data only beyond r = 0.5, so the mask and the span start past node 0
    fld = make_field(1, 0.1, 0.045, 3.0)
    fld.u = np.where(fld.x > 0.5, np.exp(-fld.x ** 2), 0.0)
    fld.v = 0.5 * fld.u
    expected = _ref_support_radius(fld, 1.0)
    assert support_radius(fld) == expected
    fld.span = _nonzero_span(fld)
    assert support_radius(fld) == expected > 2.0


def test_v1_finite_past_phi_overflow_radius():
    # Phi overflows to inf beyond r ~ 709, where v is still zero; v * Phi is
    # formed on the nonzero span only, so V1 stays finite while the span is
    # short of that radius (the whole-grid product gave 0 * inf = nan)
    params = ProblemParams(2, 2.0, 2.0, epsilon=0.1)
    with np.errstate(over="ignore"):
        far = run(params, SPEC, Numerics(h=0.1, t_max=3.0, r_max=800.0))
    near = run(params, SPEC, Numerics(h=0.1, t_max=3.0, r_max=700.0))
    assert np.all(np.isfinite(far.V1))
    np.testing.assert_allclose(far.V1, near.V1, rtol=1e-12)


def test_negative_support_tol_rejected():
    with pytest.raises(ValueError):
        make_initial_data(P122, SPEC, Numerics(t_max=1.0, support_tol=-1.0))
