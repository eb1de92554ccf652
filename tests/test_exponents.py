import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from nakao.cli import dispatch
from nakao.exponents import (_SCAN_BLOCK, Verdict, alpha0, alpha1, alpha_n,
                             alpha_nw, comp_shifted, comp_wave,
                             critical_values, diagonal_blowup_bound, f2, f3,
                             fujita_exponent, p0_exponent, region_axes,
                             region_scan, scan_arrays, scan_block,
                             strauss_exponent)
from nakao.params import ProblemParams, admissible_cap
from oracles import critical_curve_q_bisected


def test_admissible_examples():
    assert ProblemParams(1, 7.0, 7.0).admissible
    assert ProblemParams(3, 3.0, 3.0).admissible          # boundary included
    assert not ProblemParams(4, 2.5, 1.5).admissible      # 2.5 > 4/2


def test_params_validation():
    with pytest.raises(ValueError):
        ProblemParams(0, 2.0, 2.0)
    with pytest.raises(ValueError):
        ProblemParams(1, 1.0, 2.0)
    with pytest.raises(ValueError):
        ProblemParams(1, 2.0, 2.0, R=0.0)
    with pytest.raises(ValueError):
        ProblemParams(1, 2.0, 2.0, epsilon=0.0)


@pytest.mark.parametrize("name", ["p", "q", "R", "epsilon"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_non_finite_refused(name, value):
    # inf passes every ordering check and nan fails them all; both must be
    # refused by name
    kwargs = {"n": 1, "p": 2.0, "q": 2.0, name: value}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        ProblemParams(**kwargs)


def test_critical_values_n2_pq2():
    rep = critical_values(ProblemParams(2, 2.0, 2.0))
    assert rep.alpha_n == pytest.approx(5.0 / 6.0, rel=1e-14)
    assert rep.F1 == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert rep.F2 == pytest.approx(1.0 / 6.0, rel=1e-14)
    assert rep.F3 == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert rep.F4 == pytest.approx(-1.0 / 3.0, rel=1e-14)
    assert rep.F == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert rep.verdict is Verdict.BLOW_UP
    # the older test-function condition also holds here
    assert rep.alpha_nw == pytest.approx(7.0 / 6.0, rel=1e-14)
    assert rep.alpha_nw >= rep.n / 2.0


def test_critical_values_n3_pq3_no_blowup():
    rep = critical_values(ProblemParams(3, 3.0, 3.0))
    assert rep.alpha_n == pytest.approx(0.3125, abs=1e-14)
    assert comp_wave(3.0, 3.0) == pytest.approx((2 + 1 / 3) / 8, rel=1e-14)
    assert comp_shifted(3.0, 3.0) == pytest.approx(-0.0625, abs=1e-14)
    assert rep.verdict is Verdict.NO_BLOW_UP_KNOWN
    assert rep.F1 < 0 and rep.F4 < 0


def test_critical_values_n1_case_split():
    rep = critical_values(ProblemParams(1, 2.0, 2.0))
    assert rep.F == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert rep.F == max(rep.F3, rep.F4)


def test_inadmissible_still_reports_values():
    rep = critical_values(ProblemParams(4, 2.5, 1.5))
    assert rep.verdict is Verdict.INADMISSIBLE
    assert math.isfinite(rep.alpha_n) and math.isfinite(rep.F)


def test_strauss_exponent():
    assert strauss_exponent(1) == math.inf
    assert strauss_exponent(2) == pytest.approx((3 + math.sqrt(17)) / 2,
                                                abs=1e-12)
    assert strauss_exponent(3) == pytest.approx(1 + math.sqrt(2), abs=1e-12)
    for n in range(2, 13):
        p = strauss_exponent(n)
        assert abs((n - 1) * p * p - (n + 1) * p - 2) < 1e-12


def test_fujita_exponent():
    assert fujita_exponent(1) == 3.0
    assert fujita_exponent(2) == 2.0
    assert fujita_exponent(4) == 1.5


def test_p0_exponent_against_independent_root():
    assert p0_exponent(2) == pytest.approx(1 + math.sqrt(2), abs=1e-12)
    # frozen from a 40-digit evaluation of the cubic root (equals 2 cos(pi/9))
    assert p0_exponent(3) == pytest.approx(1.8793852415718167, abs=1e-12)
    for n in range(2, 13):
        p = p0_exponent(n)
        assert abs((n - 1) * p ** 3 - (n + 3) * p - 2) < 1e-12
        oracle = brentq(lambda x: (n - 1) * x ** 3 - (n + 3) * x - 2,
                        1.0, 8.0, xtol=1e-14)
        assert p == pytest.approx(oracle, abs=1e-11)
        assert p < strauss_exponent(n)
    with pytest.raises(ValueError):
        p0_exponent(1)


def test_diagonal_blowup_bound():
    assert diagonal_blowup_bound(1) == math.inf
    assert diagonal_blowup_bound(2) == pytest.approx(1 + math.sqrt(2),
                                                     abs=1e-12)
    # at n=2 the cubic root beats both other components
    assert 1 + math.sqrt(2) > 2.0
    assert 1 + math.sqrt(2) > (1 + math.sqrt(13)) / 2
    for n in range(3, 13):
        assert diagonal_blowup_bound(n) <= admissible_cap(n) + 1e-15


def test_region_scan_shapes_and_verdicts():
    p_axis, q_axis = region_axes(4, (1.01, 2.0), (1.01, 2.0), 3)
    assert p_axis.size == q_axis.size == 3
    assert region_scan(4, p_axis, q_axis).size == 9
    # the shifted component is never strictly maximal for n >= 4 boxes
    _, _, (_, _, _, binding) = scan_block(4, p_axis, q_axis, 0, 9)
    assert not np.any(binding == 3)
    codes = region_scan(1, *region_axes(1, (1.1, 5.0), (1.1, 5.0), 5))
    assert np.all(codes == list(Verdict).index(Verdict.BLOW_UP))
    corners = region_axes(2, (1.5, 2.5), (1.5, 2.5), 2)
    assert corners[0].tolist() == corners[1].tolist() == [1.5, 2.5]
    assert region_scan(2, *corners).size == 4
    # no dimension, one point per axis, lo <= 1 and lo >= hi on either axis
    for n, p_range, q_range, res in [
            (0, (1.5, 2.5), (1.5, 2.5), 3), (2, (1.5, 2.5), (1.5, 2.5), 1),
            (2, (1.0, 2.5), (1.5, 2.5), 3), (2, (1.5, 2.5), (0.5, 2.5), 3),
            (2, (2.5, 2.5), (1.5, 2.5), 3), (2, (1.5, 2.5), (2.6, 2.5), 3)]:
        with pytest.raises(ValueError):
            region_axes(n, p_range, q_range, res)


def test_region_rows_format(tmp_path):
    out = tmp_path / "reg"
    assert dispatch(["region", "--n", "2", "--grid", "2",
                     "--p-min", "1.5", "--p-max", "2.0",
                     "--q-min", "1.5", "--q-max", "2.0",
                     "--out", str(out)]) == 0
    rows = [line.split(",") for line in
            Path(f"{out}.csv").read_text().splitlines()[2:]]
    assert len(rows) == 4
    labels = {v.value for v in Verdict}
    for p, q, a, F, verdict, binding in rows:
        assert verdict in labels and binding in ("1", "2", "3")


@st.composite
def pq_pairs(draw):
    p = draw(st.floats(min_value=1.01, max_value=8.0, allow_nan=False))
    q = draw(st.floats(min_value=1.01, max_value=8.0, allow_nan=False))
    return p, q


@settings(max_examples=200, deadline=None)
@given(pq_pairs())
def test_alpha_n_is_max_of_components(pair):
    p, q = pair
    assert alpha_n(p, q) == max(alpha0(p, q), comp_shifted(p, q))
    assert alpha_n(p, q) >= comp_wave(p, q)
    assert alpha_n(p, q) >= alpha1(p, q)


@settings(max_examples=200, deadline=None)
@given(pq_pairs(), st.integers(min_value=1, max_value=10))
def test_f3_is_q_times_f2(pair, n):
    p, q = pair
    assert f3(n, p, q) == pytest.approx(q * f2(n, p, q), rel=1e-11, abs=1e-11)


def test_critical_curve_q():
    from nakao.exponents import critical_curve_q
    # n=2, p=2: the damped-like component (q/2+1)/(pq-1) hits 1/2 at q=3
    q = critical_curve_q(2, 2.0, 8.0)
    assert q == pytest.approx(3.0, abs=1e-10)
    assert alpha_n(2.0, q) == pytest.approx(0.5, abs=1e-10)
    assert critical_curve_q(1, 2.0, 8.0) is None          # always blow-up
    assert critical_curve_q(8, 1.1, 8 / 6) is None        # box fully blow-up


def _exact_crossing(n, p):
    """The largest of the components' crossings of (n-1)/2, in rationals."""
    h, p = Fraction(n - 1, 2), Fraction(p)
    half = Fraction(1, 2)
    qs = [(1 + (half + p) / (h + half)) / p]
    if h * p > half:
        qs.append((1 + h) / (h * p - half))
    if h > 0:
        qs.append((2 + 1 / p + h) / (h * p))
    return max(qs)


@pytest.mark.parametrize("n", range(1, 7))
def test_critical_curve_q_matches_bisection(n):
    from nakao.exponents import critical_curve_q
    crossings = 0
    for p in np.linspace(1.001, 8.0, 400).tolist():
        exact = _exact_crossing(n, p)
        for q_hi in (1.5, 3.0, 6.0, 50.0, 1e4):
            want = critical_curve_q_bisected(n, p, q_hi)
            got = critical_curve_q(n, p, q_hi)
            assert (got is None) == (want is None), (p, q_hi)
            if want is not None:
                # the bisection stops where alpha_n's rounding does, up to
                # 7.6e-14 off the rational crossing (n = 2, p = 1.001)
                assert got == pytest.approx(want, rel=1e-13, abs=0.0)
                assert abs(Fraction(got) - exact) <= 1e-15 * exact
                crossings += 1
    assert (crossings == 0) == (n == 1)


def test_scan_matches_scalar_classification():
    from nakao.exponents import scan_arrays
    rng_p = np.linspace(1.05, 2.8, 7)
    P, Q = np.meshgrid(rng_p, rng_p, indexing="ij")
    P, Q = P.ravel(), Q.ravel()
    for n in (1, 3, 4, 8):
        aN, F, codes, binding = scan_arrays(n, P, Q)
        for i in range(P.size):
            rep = critical_values(ProblemParams(n, float(P[i]), float(Q[i])))
            assert aN[i] == rep.alpha_n
            assert F[i] == rep.F
            code_map = {Verdict.BLOW_UP: 0, Verdict.BLOW_UP_WAKASUGI_ONLY: 1,
                        Verdict.NO_BLOW_UP_KNOWN: 2, Verdict.INADMISSIBLE: 3}
            assert codes[i] == code_map[rep.verdict]


@settings(max_examples=150, deadline=None)
@given(pq_pairs(), st.integers(min_value=1, max_value=10))
def test_verdict_matches_condition(pair, n):
    p, q = pair
    params = ProblemParams(n, p, q)
    rep = critical_values(params)
    if not params.admissible:
        assert rep.verdict is Verdict.INADMISSIBLE
    elif rep.alpha_n > (n - 1) / 2:
        assert rep.verdict is Verdict.BLOW_UP
    elif alpha_nw(p, q) >= n / 2:
        assert rep.verdict is Verdict.BLOW_UP_WAKASUGI_ONLY
    else:
        assert rep.verdict is Verdict.NO_BLOW_UP_KNOWN


# under one 8,192-cell block; one block and a ragged one; exactly two
# blocks; eight blocks; ten blocks and a ragged one
@pytest.mark.parametrize("res", [90, 100, 128, 256, 300])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_region_scan_blocks_match_one_scan(n, res):
    box = (1.005, 6.0)
    p_axis, q_axis = region_axes(n, box, box, res)
    axis = np.linspace(*box, res)
    assert p_axis.tobytes() == q_axis.tobytes() == axis.tobytes()
    P, Q = (a.ravel() for a in np.meshgrid(axis, axis, indexing="ij"))
    # cell i lies at (p_axis[i // res], q_axis[i % res])
    assert np.repeat(p_axis, res).tobytes() == P.tobytes()
    assert np.tile(q_axis, res).tobytes() == Q.tobytes()
    codes, want = region_scan(n, p_axis, q_axis), scan_arrays(n, P, Q)[2]
    assert codes.dtype == want.dtype == np.int8
    assert codes.tobytes() == want.tobytes()


def _traced_peak(call):
    """(result, peak bytes that tracemalloc saw while call() ran)."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_region_scan_peak_memory():
    # the peak is the codes plus one block's temporaries: ~19.4 float64
    # arrays of _SCAN_BLOCK cells, bounded at 24
    p_axis, q_axis = region_axes(2, (1.005, 6.0), (1.005, 6.0), 600)
    codes, peak = _traced_peak(lambda: region_scan(2, p_axis, q_axis))
    assert peak <= codes.nbytes + 24 * 8 * _SCAN_BLOCK


def test_region_command_peak_memory(tmp_path):
    # the CSV classifies and formats one row block at a time, so the peak is
    # one block's temporaries and text, whatever the grid (it was 22 bytes
    # per cell: 10.5 MiB at --grid 600)
    peaks = []
    for res in (300, 600):
        rc, peak = _traced_peak(lambda: dispatch(
            ["region", "--n", "2", "--grid", str(res),
             "--out", str(tmp_path / f"reg{res}")]))
        assert rc == 0
        peaks.append(peak)
    assert peaks[1] <= 1.25 * peaks[0] and peaks[1] < 4 * 2**20


def test_region_svg_peak_memory(tmp_path):
    # the SVG is written one p column at a time, each classified as it is
    # written, so its peak is one column's codes and text, below the CSV's
    # block: nothing of a byte per cell is held (it was the whole drawing as
    # text, 116.6 MiB at --grid 600, then the grid's 1-byte codes beside the
    # CSV, 341 KiB above the CSV's own peak)
    peaks = {}
    for flags in ([], ["--svg"]):
        for res in (300, 600):
            rc, peaks[res, bool(flags)] = _traced_peak(lambda: dispatch(
                ["region", "--n", "2", "--grid", str(res), *flags,
                 "--out", str(tmp_path / f"reg{res}")]))
            assert rc == 0
    assert peaks[600, True] <= 1.25 * peaks[300, True]
    assert peaks[600, True] <= peaks[600, False] + 600 * 600 // 4
