import math
from dataclasses import replace

import numpy as np
import pytest

from nakao import pde
from nakao.params import ProblemParams, sphere_area
from nakao.pde import (_CUT_BELOW, _CUT_EVERY, BlowupReason, InitialDataSpec,
                       Numerics, RadialField, _cut, _march, _nonzero_end,
                       _pow_abs, _stacked_initial_data, balance_residuals,
                       blowup_times, cfl_max, functionals, laplacian,
                       make_field, make_initial_data, profile, run, step,
                       support_radius)
from nakao.testfn import PhiEvaluator

from oracles import EnergyIdentity

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
    assert fld.x[_nonzero_end(fld) - 1] <= P122.R + num.h
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
    # R and t_max are finite, but the grid's end R + t_max + 0.5 overflows
    with pytest.raises(ValueError, match="r_max must be finite"):
        make_initial_data(replace(P122, R=1e308), SPEC, Numerics(t_max=1e308))


@pytest.mark.parametrize("name", ["amp_u0", "amp_u1", "amp_v0", "amp_v1"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_amplitude_refused(name, value):
    # nan < 0 is false, so a sign check alone lets nan through
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        InitialDataSpec(**{name: value})


@pytest.mark.parametrize("name", ["h", "t_max", "threshold"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_numerics_refused(name, value):
    # nan fails every comparison and an infinite t_max or h gives no finite
    # grid; both drivers must refuse before stepping
    num = replace(Numerics(h=0.05, t_max=2.0), **{name: value})
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        make_initial_data(P122, SPEC, num)
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        run(P122, SPEC, num)
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        blowup_times(P122, [0.5], SPEC, num)


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


def _radial_mms_error(n, h, t_end=1.0, cfl=0.45):
    """Manufactured radial solution on 0 <= r <= 2: u = e^{-t} cos(kr),
    v = e^{-t/2} cos(kr), forced with the radial Laplacian of cos(kr),
    -k^2 cos(kr) - (n-1) k sin(kr)/r (-n k^2 at r = 0)."""
    X, params = 2.0, ProblemParams(n, 2.0, 2.0)
    kap = math.pi / (2.0 * X)
    dt = cfl * h
    fld = make_field(n, h, dt, X)
    r = fld.x
    lap_cos = np.full_like(r, -n * kap * kap)
    lap_cos[1:] = (-kap * kap * np.cos(kap * r[1:])
                   - (n - 1) * kap * np.sin(kap * r[1:]) / r[1:])

    def u_exact(t):
        return math.exp(-t) * np.cos(kap * r)

    def v_exact(t):
        return math.exp(-0.5 * t) * np.cos(kap * r)

    fld.u, fld.v = u_exact(0.0), v_exact(0.0)
    fld.u_prev, fld.v_prev = u_exact(-dt), v_exact(-dt)
    for _ in range(int(round(t_end / dt))):
        t = fld.t
        uu, vv = u_exact(t), v_exact(t)
        f_u = -math.exp(-t) * lap_cos - _pow_abs(vv, params.p)
        f_v = math.exp(-0.5 * t) * (0.25 * np.cos(kap * r) - lap_cos) \
            - _pow_abs(uu, params.q)
        step(fld, params,
             src_u=_pow_abs(fld.v, params.p) + f_u,
             src_v=_pow_abs(fld.u, params.q) + f_v)
    return float(np.max(np.abs(fld.u - u_exact(fld.t)))
                 + np.max(np.abs(fld.v - v_exact(fld.t))))


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_radial_manufactured_solution_second_order(n):
    errs = [_radial_mms_error(n, h) for h in (0.04, 0.02, 0.01)]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9, orders


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


def _cell_volume_stencil(n, m):
    """Dense -h^2 L at h = 1 on nodes 0..m-1 (the Dirichlet node m dropped),
    symmetrized in the cell-volume inner product, straight from the shell
    volumes ((r+1/2)^n - (r-1/2)^n)/n and faces (r+1/2)^{n-1}."""
    r = np.arange(m, dtype=float)
    vol = ((r + 0.5) ** n - (r - 0.5) ** n) / n
    vol[0] = 0.5 ** n / n
    face = (r[:-1] + 0.5) ** (n - 1)
    k = np.zeros((m, m))
    k[np.arange(m - 1), np.arange(1, m)] = -face
    k[np.arange(1, m), np.arange(m - 1)] = -face
    k[np.arange(m), np.arange(m)] = np.append(face, (r[-1] + 0.5) ** (n - 1))
    k[np.arange(1, m), np.arange(1, m)] += face
    scale = 1.0 / np.sqrt(vol)
    return scale[:, None] * k * scale[None, :]


# leapfrog energy bound 2/sqrt(rho) with exact cell volumes, n = 1..12
CFL_TABLE = (1.000, 0.909, 0.793, 0.700, 0.630, 0.577, 0.534, 0.500, 0.471,
             0.447, 0.426, 0.408)


@pytest.mark.parametrize("n", range(1, 13))
def test_cfl_max_is_the_leapfrog_energy_bound(n):
    rho = np.linalg.eigvalsh(_cell_volume_stencil(n, 400))[-1]
    assert cfl_max(n) == pytest.approx(2.0 / math.sqrt(max(rho, 4.0)),
                                       rel=1e-9)
    assert cfl_max(n) == pytest.approx(CFL_TABLE[n - 1], abs=5e-4)


def _free_march(n, cfl, steps):
    """Free (unforced) march from random data at h = 0.05: the leapfrog
    energy of v, E = |(v - v_prev)/dt|_w^2 - w . (v L v_prev), at every
    step, and the growth of the weighted norms |u|_w + |v|_w."""
    h = 0.05
    fld = make_field(n, h, cfl * h, 6.0)
    rng = np.random.default_rng(n)
    for name in ("u", "u_prev", "v", "v_prev"):
        level = rng.standard_normal(fld.x.size)
        level[-1] = 0.0
        setattr(fld, name, level)

    def norm():
        return math.sqrt(fld.w @ fld.u ** 2) + math.sqrt(fld.w @ fld.v ** 2)

    start, energy, peak = norm(), [], 0.0
    zero = np.zeros_like(fld.x)
    for _ in range(steps):
        step(fld, ProblemParams(n, 2.0, 2.0), zero, zero)
        dv = (fld.v - fld.v_prev) / fld.dt
        energy.append(float(fld.w @ (dv * dv)
                            - fld.w @ (fld.v * laplacian(fld, fld.v_prev))))
        peak = max(peak, norm())
    return np.array(energy), peak / start


@pytest.mark.parametrize("n", range(1, 13))
def test_leapfrog_energy_bounded_below_cfl_max_refused_above(n):
    # just below the bound the leapfrog energy is positive and conserved and
    # the damped u decays; just above it the top (origin) mode grows
    # geometrically, so the bound is sharp, and make_initial_data refuses it
    bound = cfl_max(n)
    energy, growth = _free_march(n, 0.98 * bound, 2000)
    assert energy[0] > 0.0
    assert np.max(np.abs(energy - energy[0])) <= 1e-9 * energy[0]
    assert growth < 50.0
    assert _free_march(n, 1.02 * bound, 400)[1] > 1e6
    params = ProblemParams(n, 2.0, 2.0, epsilon=0.1)
    with pytest.raises(ValueError, match="CFL violation"):
        make_initial_data(params, SPEC, Numerics(h=0.05, cfl=1.001 * bound,
                                                 t_max=1.0))
    make_initial_data(params, SPEC, Numerics(h=0.05, cfl=0.999 * bound,
                                             t_max=1.0))


def test_stencil_matches_cell_volumes():
    # w is |S^{n-1}| times the exact cell volume (2h and h at n = 1), and the
    # stencil is the finite-volume operator; the sum of w * Lf telescopes
    h = 0.05
    for n in (1, 2, 3, 5, 8):
        fld = make_field(n, h, 0.45 * h, 3.0)
        r = fld.x
        vol = ((r + h / 2) ** n - (r - h / 2) ** n) / n
        vol[0] = (h / 2) ** n / n
        np.testing.assert_allclose(fld.w, sphere_area(n) * vol, rtol=1e-12)
        f = np.cos(r)
        f[-1] = 0.0
        lap = laplacian(fld, f)
        face = (r[:-1] + h / 2) ** (n - 1)
        flux = face * (f[1:] - f[:-1]) / h
        ref = (flux - np.concatenate(([0.0], flux[:-1]))) / vol[:-1]
        np.testing.assert_allclose(lap[:-1], ref, rtol=1e-9, atol=1e-9)
        assert lap[0] == pytest.approx(2.0 * n * (f[1] - f[0]) / h ** 2)
        # conservation: the only flux leaving is the one into the wall row
        assert float(fld.w[:-1] @ lap[:-1]) == pytest.approx(
            sphere_area(n) * flux[-1], rel=1e-9, abs=1e-9)
    assert make_field(1, h, 0.45 * h, 1.0).w[:2].tolist() == [h, 2.0 * h]


def test_n8_no_false_blowup():
    # the centred (n-1)/r operator flagged max_norm at t = 6.48 here (and at
    # 3.3 with h = 0.02): a scheme instability, not a blow-up
    params = ProblemParams(8, 1.1, 1.1, epsilon=1e-3)
    trace = run(params, SPEC, Numerics(h=0.05, t_max=10.0))
    assert trace.t_blowup is None and trace.reason is BlowupReason.NONE
    assert trace.max_u.max() + trace.max_v.max() < 1.0


# --- prefix stepping against the whole-grid reference ----------------------
# The reference below is whole-grid arithmetic with the field's own
# three-point coefficients: every array allocated afresh, every pass over the
# whole grid, the origin row with its even ghost at n = 1 (float
# coefficients) and no inner face for n >= 2, the Dirichlet rows zero.
# Prefix stepping must reproduce it bit for bit.  The coefficients themselves are
# checked against the cell-volume formula in test_stencil_matches_cell_volumes.

def _ref_three_point(coefs, f, full_line=False):
    """full_line: the retired n = 1 full interval, with no ghost, and its
    rows left of the middle summed as their mirror images are (the outer
    neighbour first), so that even data stay even bit for bit."""
    lower, diag, upper = (np.broadcast_to(c, f.shape) for c in coefs[:3])
    out = np.zeros_like(f)
    out[:-1] = diag[:-1] * f[:-1] + upper[:-1] * f[1:]
    out[1:-1] += lower[1:-1] * f[:-2]
    if full_line:
        mid = f.size // 2
        out[:mid] = _ref_three_point(coefs, f[::-1])[:mid:-1]
    elif not isinstance(coefs[0], np.ndarray):
        out[0] += coefs[0] * f[1]
    return out


def _ref_laplacian(fld, f, full_line=False):
    return _ref_three_point(fld.work.stencil, f, full_line)


def _ref_pow_abs(f, e):
    if e == 2.0:
        return f * f
    if e == 3.0:
        return np.abs(f) * f * f
    return np.abs(f) ** e


def _ref_step(fld, params, src_u, src_v, walls=(-1,)):
    """One whole-grid step; the rows in walls are held at zero (the origin
    row is a wall, without a ghost, on the retired full-interval layout)."""
    cu, cv = fld.work.coef_u, fld.work.coef_v
    full_line = 0 in walls
    u_next = ((_ref_three_point(cu, fld.u, full_line) + cu[3] * src_u)
              + cu[4] * fld.u_prev)
    v_next = ((_ref_three_point(cv, fld.v, full_line) + cv[3] * src_v)
              - fld.v_prev)
    u_next[list(walls)] = v_next[list(walls)] = 0.0
    fld.u_prev, fld.u = fld.u, u_next
    fld.v_prev, fld.v = fld.v, v_next
    fld.k += 1


def _ref_cut(fld, two_sided=False):
    """The dust cut on the whole grid: zero every node past the last one
    where some level is at or above _CUT_BELOW times the largest |value| of
    the four levels, unless that maximum is not finite.  two_sided also
    cuts the left end of the retired full-interval layout, every node before
    the first such one."""
    levels = (fld.u, fld.u_prev, fld.v, fld.v_prev)
    mag = np.max(np.abs(np.stack(levels)), axis=0)
    top = float(np.max(mag))
    if not math.isfinite(top):
        return
    kept = np.flatnonzero(mag >= _CUT_BELOW * top)
    for level in levels:
        level[kept[-1] + 1:] = 0.0
        if two_sided:
            level[:kept[0]] = 0.0


def _ref_support_radius(fld):
    floor = fld.h * fld.h * (1.0 + fld.t)
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
    z = np.zeros(2 * m + 1)   # the levels' shape sizes the field's buffers
    fld = RadialField(n=1, h=h, dt=dt, x=(np.arange(2 * m + 1) - m) * h,
                      w=np.full(2 * m + 1, h), u=z, u_prev=z, v=z, v_prev=z)
    fld.w[[0, -1]] *= 0.5
    base = profile(spec.shape, np.abs(fld.x), params.R)
    u0, u1, v0, v1 = (params.epsilon * amp * base for amp in
                      (spec.amp_u0, spec.amp_u1, spec.amp_v0, spec.amp_v1))
    fld.u, fld.v = u0.copy(), v0.copy()
    fld.u_prev = (u0 - dt * u1 + 0.5 * dt * dt * (
        _ref_laplacian(fld, u0, True) - u1 + _ref_pow_abs(v0, params.p)))
    fld.v_prev = (v0 - dt * v1 + 0.5 * dt * dt * (
        _ref_laplacian(fld, v0, True) + _ref_pow_abs(u0, params.q)))
    fld.u_prev[[0, -1]] = fld.v_prev[[0, -1]] = 0.0
    return fld


def _ref_run(params, spec, numerics, full_line=False):
    """Whole-grid run loop with the dust cut after every _CUT_EVERY-th step;
    returns the trace fields and the final field.  full_line runs n = 1 on
    the retired full-interval layout."""
    if full_line:
        fld, walls = _full_line_initial_data(params, spec, numerics), (0, -1)
    else:
        fld, walls = make_initial_data(params, spec, numerics)[0], (-1,)
    w_phi = fld.w * PhiEvaluator(params.n).phi(np.abs(fld.x))
    n_steps = int(round(numerics.t_max / fld.dt))
    rec = {k: [] for k in ("times", "U", "V", "V1", "max_u", "max_v",
                           "src_u", "src_v")}
    t_blowup, reason, max_excess = None, BlowupReason.NONE, -math.inf
    for k in range(n_steps + 1):
        pow_v = _ref_pow_abs(fld.v, params.p)
        pow_u = _ref_pow_abs(fld.u, params.q)
        # the quadratures sum the exact nonzero prefix [0, hi) of the four
        # levels; the retired full-interval layout, its two-sided span
        nonzero = np.flatnonzero((fld.u != 0.0) | (fld.u_prev != 0.0)
                                 | (fld.v != 0.0) | (fld.v_prev != 0.0))
        lo, hi = (nonzero[0], nonzero[-1] + 1) if nonzero.size else (0, 0)
        if not full_line:
            lo = 0
        w = fld.w[lo:hi]
        U, V = float(w @ fld.u[lo:hi]), float(w @ fld.v[lo:hi])
        m_u = float(np.max(np.abs(fld.u)))
        m_v = float(np.max(np.abs(fld.v)))
        for key, val in (("times", fld.t), ("U", U), ("V", V),
                         ("V1", math.exp(-fld.t)
                          * float(w_phi[lo:hi] @ fld.v[lo:hi])),
                         ("max_u", m_u), ("max_v", m_v),
                         ("src_u", float(w @ pow_v[lo:hi])),
                         ("src_v", float(w @ pow_u[lo:hi]))):
            rec[key].append(val)
        max_excess = max(max_excess,
                         _ref_support_radius(fld)
                         - (params.R + fld.t))
        if (not (math.isfinite(m_u) and math.isfinite(m_v))
                or m_u + m_v > numerics.threshold):
            t_blowup, reason = fld.t, BlowupReason.MAX_NORM
            break
        if k == n_steps:
            break
        _ref_step(fld, params, pow_v, pow_u, walls)
        if fld.k % _CUT_EVERY == 0:
            _ref_cut(fld, two_sided=full_line)
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
    "n3-cosine-p2-q1.5": (ProblemParams(3, 2.0, 1.5, epsilon=0.5), COSINE,
                          Numerics(h=0.05, t_max=10.0), BlowupReason.NONE),
    "n5-p3-q2": (ProblemParams(5, 3.0, 2.0, epsilon=0.5), SPEC,
                 Numerics(h=0.05, t_max=4.0), BlowupReason.NONE),
    "n1-zero-data": (P122, ZERO, Numerics(h=0.05, t_max=2.0),
                     BlowupReason.NONE),
    "n2-zero-data": (ProblemParams(2, 2.0, 2.0), ZERO,
                     Numerics(h=0.05, t_max=2.0), BlowupReason.NONE),
    # u starts at zero and v carries the data, so the four levels have
    # different supports at the prefix's end
    "n1-v-data-only": (ProblemParams(1, 2.0, 2.0, epsilon=0.5),
                       InitialDataSpec(amp_u0=0.0, amp_u1=0.0),
                       Numerics(h=0.05, t_max=4.0), BlowupReason.NONE),
    # the scheme's dust (and hence the prefix) runs ahead of the light cone
    # and reaches the Dirichlet wall, ten nodes past the cone at t_max
    "n2-wall": (ProblemParams(2, 2.0, 2.0, epsilon=0.1), SPEC,
                Numerics(h=0.05, t_max=6.0), BlowupReason.NONE),
    "n1-wall": (P122, SPEC, Numerics(h=0.05, t_max=3.0), BlowupReason.NONE),
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
# folds exactly, and the reference sums its left half in mirror order, so the
# levels (and the maxima) agree bit for bit and only the quadratures' summing
# order separates them.  Unmirrored, the rounding asymmetry of the two halves
# grew with the solution to 1e-10..3e-9 at a max-norm crossing, a draw that
# moved with any change at rounding level (the dust cut among them)
FULL_LINE_CASES = {
    "n1-maxnorm": EQUIVALENCE_CASES["n1-maxnorm"] + (1e-9,),
    "n1-cosine-p3-q1.5": EQUIVALENCE_CASES["n1-cosine-p3-q1.5"] + (1e-12,),
    "n1-maxnorm-h0.02": (ProblemParams(1, 2.0, 2.0, epsilon=0.5), SPEC,
                         Numerics(h=0.02, t_max=60.0), BlowupReason.MAX_NORM,
                         1e-9),
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
    assert _bits(trace.max_u) == _bits(ref["max_u"])
    assert _bits(trace.max_v) == _bits(ref["max_v"])
    for key in ("U", "V", "V1", "src_u", "src_v"):
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
            step(fld, params, _pow_abs(fld.v, params.p),
                 _pow_abs(fld.u, params.q))
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
    # the constructor's prefix, the whole grid: the first step trims it
    assert fld.end == fld.x.size != _nonzero_end(fld)
    wk = fld.work
    for _ in range(300):
        end = fld.end
        _pow_abs(fld.v[:end], params.p, out=wk.src_u[:end])
        _pow_abs(fld.u[:end], params.q, out=wk.src_v[:end])
        step(fld, params, src_u=wk.src_u, src_v=wk.src_v)
        end = fld.end
        assert end == _nonzero_end(fld)
        for buf in (wk.src_u, wk.src_v):
            assert not buf[end:].any()
    assert 0 < end < fld.x.size   # the prefix grew but stayed inside


def test_trim_zeroes_buffers_of_dropped_nodes():
    # nodes that leave the prefix keep no stale source values, which step
    # reads one node beyond the prefix; the quadratures sum the prefix only
    params = ProblemParams(1, 2.0, 2.0)
    fld = make_field(1, 0.1, 0.045, 3.0)
    c = fld.x.size // 2
    levels = ("u", "u_prev", "v", "v_prev")
    for name in levels:
        getattr(fld, name)[c - 5:c + 6] = 1.0
    fld.end = _nonzero_end(fld)
    fld.work.src_u[:fld.end] = fld.work.src_v[:fld.end] = 1.0   # stale
    for name in levels:
        getattr(fld, name)[c - 5:c - 2] = 0.0
        getattr(fld, name)[c + 3:c + 6] = 0.0
    zero = np.zeros_like(fld.x)
    step(fld, params, zero, zero)
    end = fld.end
    assert end == _nonzero_end(fld) == c + 4
    for buf in (fld.work.src_u, fld.work.src_v):
        assert not buf[end:].any()
    U, V, V1 = functionals(fld, fld.w, np.zeros_like(fld.x))   # Phi = 1
    assert V1 == math.exp(-fld.t) * float(fld.w[:end] @ fld.v[:end])
    assert (U, V) == (float(fld.w[:end] @ fld.u[:end]),
                      float(fld.w[:end] @ fld.v[:end]))


def test_support_radius_one_sided_data():
    # data only in 0.5 < r < 2.5, so the mask starts past node 0 and the
    # nonzero prefix ends short of the grid
    fld = make_field(1, 0.1, 0.045, 3.0)
    fld.u = np.where((fld.x > 0.5) & (fld.x < 2.5), np.exp(-fld.x ** 2), 0.0)
    fld.v = 0.5 * fld.u
    expected = _ref_support_radius(fld)

    def mags():   # |u|, |v| and their maxima on the prefix, as _march has them
        end = fld.end
        abs_u, abs_v = np.abs(fld.u[:end]), np.abs(fld.v[:end])
        return abs_u, abs_v, float(abs_u.max()), float(abs_v.max())

    assert fld.end == fld.x.size
    assert support_radius(fld, mags()) == expected
    fld.end = _nonzero_end(fld)
    assert fld.end < fld.x.size
    assert support_radius(fld, mags()) == expected > 2.0


# (params, ladder, numerics): t_max is cut short of the last (smallest)
# epsilon's blow-up only, so that column stays inconclusive to the end
BATCH_CASES = {
    # the repeated 0.4 gives two columns that retire at the same step
    "n1": (ProblemParams(1, 2.0, 2.0), [0.5, 0.4, 0.4, 0.3, 0.1],
           Numerics(h=0.05, t_max=15.0)),
    "n2": (ProblemParams(2, 1.5, 1.5), [1.0, 0.6, 0.4, 0.3],
           Numerics(h=0.05, t_max=18.0)),
    "n3": (ProblemParams(3, 1.2, 1.8), [2.0, 1.5, 1.0, 0.6],
           Numerics(h=0.05, t_max=30.0)),
}


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_blowup_times_bit_identical_to_run(case):
    params, ladder, num = BATCH_CASES[case]
    batched = blowup_times(params, ladder, SPEC, num)
    single = [run(replace(params, epsilon=e), SPEC, num).t_blowup
              for e in ladder]
    assert batched == single
    assert batched[-1] is None
    assert all(t is not None for t in batched[:-1])
    if case == "n1":
        assert batched[1] == batched[2]


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_batched_march_keeps_one_c_contiguous_layout(case):
    # a ufunc over C- and Fortran-ordered operands cannot merge their axes;
    # retiring columns with a[:, mask] gave Fortran-ordered levels
    params, ladder, num = BATCH_CASES[case]
    fld = _stacked_initial_data(params, ladder, SPEC, num)
    widths = []

    def observe(fld, mags):
        wk = fld.work
        arrays = [fld.u, fld.u_prev, fld.v, fld.v_prev,
                  wk.lap, wk.acc, wk.src_u, wk.src_v]
        # per-column coefficients for n >= 2, floats at n = 1
        arrays += [c for c in wk.coef_u + wk.coef_v
                   if isinstance(c, np.ndarray)]
        assert len(arrays) == (8 if params.n == 1 else 14)
        assert all(a.shape == fld.u.shape for a in arrays)
        assert all(a.flags.c_contiguous for a in arrays)
        widths.append(fld.u.shape[1])

    times = _march(fld, params, num, observe)
    assert times == [run(replace(params, epsilon=e), SPEC, num).t_blowup
                     for e in ladder]
    # columns retired mid-march while more than one stayed live
    assert widths[0] == len(ladder)
    assert any(1 < w < len(ladder) for w in widths)


@pytest.mark.parametrize("eps", [6e7, 1e200])
def test_initial_data_past_threshold_refused(eps):
    # the bump peaks at 1, so eps * (1 + 1) > 1e8 crosses at t = 0: a
    # crossing the dynamics never made (1e200 also overflows |v0|^p)
    params = replace(P122, epsilon=eps)
    num = Numerics(h=0.1, t_max=1.0)
    with pytest.raises(ValueError, match="past the blow-up threshold"):
        make_initial_data(params, SPEC, num)
    with pytest.raises(ValueError, match="past the blow-up threshold"):
        run(params, SPEC, num)
    with pytest.raises(ValueError, match="past the blow-up threshold"):
        blowup_times(P122, [0.5, eps, 0.3], SPEC, num)
    # just below the threshold is stepped as usual
    below = replace(P122, epsilon=4.9e7)
    assert run(below, SPEC, num).times[0] == 0.0


def test_initial_data_non_finite_back_level_refused():
    # u0, v0 are below the threshold, but eps * amp_u1 overflows to inf
    spec = InitialDataSpec(amp_u0=1e-300, amp_v0=0.0, amp_u1=1e300)
    params = replace(P122, epsilon=1e10)
    num = Numerics(h=0.1, t_max=1.0)
    with pytest.raises(ValueError, match="overflows"):
        make_initial_data(params, spec, num)
    # every level is finite, but the integral of eps * u1 overflows
    with pytest.raises(ValueError, match="overflows"):
        make_initial_data(params, replace(spec, amp_u1=1.7e298), num)
    # |v0|^p overflows while max|u0| + max|v0| stays below a huge threshold
    with pytest.raises(ValueError, match="overflows"):
        make_initial_data(replace(P122, epsilon=1e200), SPEC,
                          Numerics(h=0.1, t_max=1.0, threshold=1e300))


def test_blowup_times_zero_data():
    num = Numerics(h=0.05, t_max=2.0)
    assert blowup_times(P122, [0.5, 0.3], ZERO, num) == [None, None]
    assert run(P122, ZERO, num).t_blowup is None
    assert blowup_times(P122, [], SPEC, num) == []


@pytest.mark.parametrize("n", [1, 3])
def test_batched_step_column_matches_single_step(n):
    # whole grid, random levels: every node of the column takes the path a
    # one-column field takes
    params = ProblemParams(n, 1.5, 3.0)
    rng = np.random.default_rng(11)
    single = make_field(n, 0.05, 0.02, 2.0)
    levels = {name: rng.standard_normal((single.x.size, 3))
              for name in ("u", "u_prev", "v", "v_prev")}
    batch = RadialField(n=n, h=single.h, dt=single.dt, x=single.x,
                        w=single.w, **levels)
    for name, level in levels.items():
        setattr(single, name, level[:, 1].copy())
    for _ in range(5):
        for fld in (batch, single):
            step(fld, params, _pow_abs(fld.v, params.p),
                 _pow_abs(fld.u, params.q))
    for name in levels:
        column = getattr(batch, name)[:, 1]
        assert _bits(column) == _bits(getattr(single, name))


# --- the dust cut -----------------------------------------------------------

# (params, ladder, numerics, blow-up times before the cut existed): long
# batched ladders in n >= 2, where the dust ran furthest ahead of the cone
CUT_LADDERS = {
    "n2": (ProblemParams(2, 1.5, 1.5), [1.0, 0.6, 0.4, 0.3, 0.2],
           Numerics(h=0.02, t_max=60.0),
           [11.250000000000002, 14.031000000000002, 16.785000000000004,
            19.107000000000003, 23.013]),
    "n3": (ProblemParams(3, 1.72, 1.64), [4.0, 3.0, 2.0, 1.5, 1.0],
           Numerics(h=0.1, t_max=400.0),
           [13.545000000000002, 19.17, 32.940000000000005, 50.26500000000001,
            96.525]),
    "n4": (ProblemParams(4, 1.49, 1.52), [4.0, 3.0, 2.0, 1.5, 1.0],
           Numerics(h=0.1, t_max=300.0),
           [45.540000000000006, 59.175000000000004, 86.98500000000001,
            115.65000000000002, 175.72500000000002]),
}


@pytest.mark.parametrize("case", sorted(CUT_LADDERS))
def test_cut_keeps_ladder_blowup_times(case):
    params, ladder, num, expected = CUT_LADDERS[case]
    assert blowup_times(params, ladder, SPEC, num) == expected


def test_cut_shortens_ladder_rung_prefix():
    # the eps = 0.1 rung of the benchmark ladder stepped 2,274,474
    # node-levels uncut, of which the cone R + t holds 1,437,136
    params = ProblemParams(1, 2.0, 2.0, epsilon=0.1)
    num = Numerics(h=0.02, t_max=60.0)
    fld, _ = make_initial_data(params, SPEC, num)
    ends = []
    times = _march(fld, params, num, lambda fld, mags: ends.append(fld.end))
    assert times == [21.753000000000004]
    assert sum(ends) < 0.8 * 2_274_474


def _dust_batch():
    """A four-column batch on 0 <= r <= 3, every level e^{-50 r} (below
    1e-40 of its maximum past r = 1.85): column 0 as it is, column 1 with
    an infinite u_prev, column 2 a nan v_prev, column 3 zero."""
    fld = make_field(1, 0.05, 0.0225, 3.0)
    base = np.exp(-50.0 * fld.x)
    levels = {}
    for name in ("u", "u_prev", "v", "v_prev"):
        level = np.repeat(base[:, None], 4, axis=1)
        level[:, 3] = 0.0
        levels[name] = level
    levels["u_prev"][5, 1] = math.inf
    levels["v_prev"][5, 2] = math.nan
    return RadialField(n=1, h=fld.h, dt=fld.dt, x=fld.x, w=fld.w, **levels)


def test_cut_zeroes_only_finite_nonzero_columns():
    fld = _dust_batch()
    before = {name: getattr(fld, name).copy()
              for name in ("u", "u_prev", "v", "v_prev")}
    fld.work.src_u[:] = fld.work.src_v[:] = 1.0
    _cut(fld)
    # column 0 ends at the last node at or above 1e-40 of its maximum, 1
    cut = int(np.flatnonzero(np.exp(-50.0 * fld.x) >= _CUT_BELOW)[-1]) + 1
    assert 0 < cut < fld.x.size
    for name, level in before.items():
        after = getattr(fld, name)
        assert _bits(after[:cut, 0]) == _bits(level[:cut, 0])
        assert not after[cut:, 0].any()
        # a non-finite maximum is not cut, and zero data keeps every node
        assert _bits(after[:, 1:]) == _bits(level[:, 1:])
    for buf in (fld.work.src_u, fld.work.src_v):
        assert not buf[cut:, 0].any() and buf[:, 1:].all()
    assert fld.end == fld.x.size


def test_cut_leaves_non_finite_column_to_crossing():
    # the first step lands on a cut level, where columns 1 and 2 carry a
    # non-finite value: _crossed reports them there, uncut
    fld = _dust_batch()
    fld.k = _CUT_EVERY - 1
    num = Numerics(h=fld.h, t_max=(2 * _CUT_EVERY + 1) * fld.dt)
    t_cut = _CUT_EVERY * fld.dt
    assert _march(fld, ProblemParams(1, 2.0, 2.0), num) == [None, t_cut,
                                                           t_cut, None]


def test_cut_keeps_zero_data():
    num = Numerics(h=0.05, t_max=4.0)   # 177 steps: two cut levels
    fld, _ = make_initial_data(P122, ZERO, num)
    ends = []
    assert _march(fld, P122, num,
                  lambda fld, mags: ends.append(fld.end)) == [None]
    assert len(ends) > 2 * _CUT_EVERY and not any(ends)
    whole = make_field(2, 0.05, 0.0225, 2.0)
    _cut(whole)
    assert whole.end == whole.x.size


# one crossing trace per dimension: the energy identity holds to rounding at
# every step, the cut levels included
ENERGY_CASES = {
    "n1": (ProblemParams(1, 2.0, 2.0, epsilon=0.1), Numerics(h=0.02, t_max=60.0)),
    "n2": (ProblemParams(2, 1.5, 1.5, epsilon=0.3), Numerics(h=0.05, t_max=30.0)),
    "n3": (ProblemParams(3, 1.2, 1.8, epsilon=0.3), Numerics(h=0.04, t_max=60.0)),
    "n5": (ProblemParams(5, 1.2, 1.2, epsilon=0.6), Numerics(h=0.05, t_max=60.0)),
}


@pytest.mark.parametrize("case", sorted(ENERGY_CASES))
def test_energy_identity_holds_through_cuts(case):
    params, num = ENERGY_CASES[case]
    fld, _ = make_initial_data(params, SPEC, num)
    oracle = EnergyIdentity(params, num.threshold)
    (t_blowup,) = _march(fld, params, num, oracle)
    assert t_blowup is not None
    assert len(oracle.levels) == fld.k == round(t_blowup / fld.dt)
    assert sum(k % _CUT_EVERY == _CUT_EVERY - 1 for k in oracle.levels) >= 10
    assert max(oracle.residual_u) <= 1e-11
    assert max(oracle.residual_v) <= 1e-11


def test_energy_identity_holds_on_batched_columns():
    params, ladder, num = BATCH_CASES["n2"]
    fld = _stacked_initial_data(params, ladder, SPEC, num)
    oracle = EnergyIdentity(params, num.threshold)
    times = _march(fld, params, num, oracle)
    assert times == blowup_times(params, ladder, SPEC, num)
    assert len(oracle.levels) == fld.k > 2 * _CUT_EVERY
    assert max(oracle.residual_u) <= 1e-11
    assert max(oracle.residual_v) <= 1e-11


def test_energy_identity_sees_a_cut_of_real_content(monkeypatch):
    # cutting at 1e-4 of the maximum removes energy the identity shows, at
    # the cut levels only
    monkeypatch.setattr(pde, "_CUT_BELOW", 1e-4)
    params, num = ENERGY_CASES["n2"]
    fld, _ = make_initial_data(params, SPEC, num)
    oracle = EnergyIdentity(params, num.threshold)
    _march(fld, params, num, oracle)
    at_cut = [k % _CUT_EVERY == _CUT_EVERY - 1 for k in oracle.levels]
    res = np.maximum(oracle.residual_u, oracle.residual_v)
    assert res[at_cut].max() > 1e-8
    assert res[np.logical_not(at_cut)].max() <= 1e-11
