"""Critical-curve values, lifespan exponents and blow-up classification.

Everything here is plain binary64 arithmetic on (n, p, q).  The component
functions accept scalars or numpy arrays so that region scans stay vectorized.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .params import ProblemParams, admissible_cap


# ---------------------------------------------------------------------------
# curve components

def comp_damped(p, q):
    """(q/2+1)/(pq-1): the damped-system-like component shared by all conditions."""
    return (q / 2.0 + 1.0) / (p * q - 1.0)


def comp_wave(p, q):
    """(2+1/p)/(pq-1): the wave-system-like component (dominant in high dimension)."""
    return (2.0 + 1.0 / p) / (p * q - 1.0)


def comp_shifted(p, q):
    """(1/2+p)/(pq-1) - 1/2: the shifted component contributed by the direct route."""
    return (0.5 + p) / (p * q - 1.0) - 0.5


def alpha0(p, q):
    """max of the damped and wave components."""
    return np.maximum(comp_damped(p, q), comp_wave(p, q))


def alpha1(p, q):
    """max of the damped and shifted components."""
    return np.maximum(comp_damped(p, q), comp_shifted(p, q))


def alpha_n(p, q):
    """max of all three components; blow-up holds where this exceeds (n-1)/2."""
    return np.maximum(alpha0(p, q), comp_shifted(p, q))


def alpha_w(p, q):
    """Critical quantity of the undamped/undamped coupled system (curve at (n-1)/2)."""
    s = p * q - 1.0
    return np.maximum((p + 2.0 + 1.0 / q) / s, (q + 2.0 + 1.0 / p) / s)


def alpha_dw(p, q):
    """Critical quantity of the damped/damped coupled system (curve at n/2)."""
    s = p * q - 1.0
    return np.maximum((p + 1.0) / s, (q + 1.0) / s)


def alpha_nw(p, q):
    """Wakasugi's test-function-method quantity for the mixed system (curve at n/2)."""
    s = p * q - 1.0
    return np.maximum(comp_damped(p, q) + 0.5,
                      np.maximum((q + 1.0) / s, (p + 1.0) / s))


# ---------------------------------------------------------------------------
# lifespan exponents

def f1(n, p, q):
    return comp_wave(p, q) - (n - 1.0) / 2.0


def f2(n, p, q):
    return (1.0 + 2.0 / q) / (p * q - 1.0) - (n - 1.0) / q


def f3(n, p, q):
    return (2.0 + q) / (p * q - 1.0) - n + 1.0


def f4(n, p, q):
    return (1.0 + 2.0 * p) / (p * q - 1.0) - n


def f_case(n, F1, F2, F3, F4):
    """Dimension-split lifespan exponent: the advertised maximum per dimension.

    n=1 uses {F3,F4}; n=2 all four; n=3 {F1,F4}; n>=4 just F1.  Note the n=4
    reduction is not exact on the thin strip 1 + 1/p - 2p + (5/2)(pq-1) < 0,
    which lies inside q < 41/40 and has F4 > F1 > 0 there; the reported
    value follows the advertised split regardless, and F1..F4 are always
    available to consumers.
    """
    if n == 1:
        return np.maximum(F3, F4)
    if n == 2:
        return np.maximum(np.maximum(F1, F2), np.maximum(F3, F4))
    if n == 3:
        return np.maximum(F1, F4)
    return F1


# ---------------------------------------------------------------------------
# classification

class Verdict(str, Enum):
    """Declaration order gives the codes of scan_arrays: 0 .. 3."""

    BLOW_UP = "blow_up"                       # iteration-method condition holds
    BLOW_UP_WAKASUGI_ONLY = "wakasugi_only"   # only the test-function condition holds
    NO_BLOW_UP_KNOWN = "none_known"
    INADMISSIBLE = "inadmissible"


@dataclass(frozen=True)
class ExponentReport:
    """All critical-curve values and lifespan exponents at one (n, p, q)."""

    n: int
    p: float
    q: float
    alpha_w: float
    alpha_dw: float
    alpha_nw: float
    alpha0: float
    alpha1: float
    alpha_n: float
    F1: float
    F2: float
    F3: float
    F4: float
    F: float
    verdict: Verdict


def critical_values(params: ProblemParams) -> ExponentReport:
    """Evaluate every curve value, F1..F4, the split maximum F and the verdict.

    Values are reported even when the point is inadmissible; only the verdict
    reflects admissibility.  alpha_n, F and the verdict are scan_arrays'
    values for the point.
    """
    n, p, q = params.n, params.p, params.q
    aN, F, code, _ = scan_arrays(n, p, q)
    return ExponentReport(
        n=n, p=p, q=q,
        alpha_w=float(alpha_w(p, q)),
        alpha_dw=float(alpha_dw(p, q)),
        alpha_nw=float(alpha_nw(p, q)),
        alpha0=float(alpha0(p, q)),
        alpha1=float(alpha1(p, q)),
        alpha_n=float(aN),
        F1=float(f1(n, p, q)), F2=float(f2(n, p, q)),
        F3=float(f3(n, p, q)), F4=float(f4(n, p, q)),
        F=float(F),
        verdict=_VERDICTS[int(code)],
    )


# ---------------------------------------------------------------------------
# named exponents of the p = q diagonal

def _bisect_root(f, lo: float, hi: float, df) -> float:
    """Bracketed bisection to width 1e-14, then one Newton polish."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise RuntimeError(f"no sign change on [{lo}, {hi}]")
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            lo = hi = mid
            break
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    root = 0.5 * (lo + hi)
    d = df(root)
    return root - f(root) / d if d != 0.0 else root


def strauss_exponent(n: int) -> float:
    """Positive root of (n-1)p^2 - (n+1)p - 2 = 0; +inf for n=1 (degenerate)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return math.inf
    f = lambda p: (n - 1.0) * p * p - (n + 1.0) * p - 2.0
    df = lambda p: 2.0 * (n - 1.0) * p - (n + 1.0)
    return _bisect_root(f, 1.0, 8.0, df)


def fujita_exponent(n: int) -> float:
    """1 + 2/n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return 1.0 + 2.0 / n


def p0_exponent(n: int) -> float:
    """Positive root of (n-1)p^3 - (n+3)p - 2 = 0, bracketed inside (1, strauss(n))."""
    if n < 2:
        raise ValueError(f"the cubic degenerates for n < 2, got {n}")
    f = lambda p: (n - 1.0) * p ** 3 - (n + 3.0) * p - 2.0
    df = lambda p: 3.0 * (n - 1.0) * p * p - (n + 3.0)
    return _bisect_root(f, 1.0, strauss_exponent(n), df)


def diagonal_blowup_bound(n: int) -> float:
    """Largest p with guaranteed blow-up on the p = q diagonal.

    +inf for n=1; otherwise the max of the cubic root, the Fujita exponent and
    (1+sqrt(4n^2-3))/(2(n-1)), capped at the admissibility bound for n >= 3.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return math.inf
    bound = max(p0_exponent(n), fujita_exponent(n),
                (1.0 + math.sqrt(4.0 * n * n - 3.0)) / (2.0 * (n - 1.0)))
    return min(bound, admissible_cap(n))


# ---------------------------------------------------------------------------
# region scans

_VERDICTS = tuple(Verdict)   # verdict by code
_SCAN_BLOCK = 8_192          # cells per scan_block call; bounds temporaries


def scan_arrays(n: int, P: np.ndarray, Q: np.ndarray):
    """Vectorized classification; returns (alpha_n, F, verdict codes, binding),
    the codes and binding as int8.

    Code 3 (inadmissible) comes first; then the strict iteration condition
    (0), then the non-strict Wakasugi one (1); 2 otherwise.
    """
    c1, c2, c3 = comp_damped(P, Q), comp_wave(P, Q), comp_shifted(P, Q)
    aN = np.maximum(np.maximum(c1, c2), c3)
    F1, F2, F3, F4 = f1(n, P, Q), f2(n, P, Q), f3(n, P, Q), f4(n, P, Q)
    F = f_case(n, F1, F2, F3, F4)
    # ties resolve to the lowest component index, so 3 means strictly maximal
    binding = np.where(c1 >= c2, np.where(c1 >= c3, 1, 3), np.where(c2 >= c3, 2, 3))
    ok = np.maximum(P, Q) <= admissible_cap(n)
    blow = aN > (n - 1.0) / 2.0
    wak = alpha_nw(P, Q) >= n / 2.0
    codes = np.where(ok, np.where(blow, 0, 2 - wak), 3)
    return aN, F, codes.astype(np.int8), binding.astype(np.int8)


def critical_curve_q(n: int, p: float, q_hi: float) -> float | None:
    """q with alpha_n(p, q) = (n-1)/2, or None if no crossing in
    (1 + 1e-9, q_hi]; used to draw the blow-up boundary over a region scan.

    The three components decrease in q, so alpha_n crosses h = (n-1)/2 once,
    at the largest of the components' own linear crossings (inf where one
    stays above h).  n = 1 never crosses (the whole quadrant blows up).
    """
    h = (n - 1.0) / 2.0
    damped = (1.0 + h) / (h * p - 0.5) if h * p > 0.5 else math.inf
    wave = (2.0 + 1.0 / p + h) / (h * p) if h > 0.0 else math.inf
    shifted = (1.0 + (0.5 + p) / (h + 0.5)) / p
    q = max(damped, wave, shifted)
    return q if 1.0 + 1e-9 <= q <= q_hi else None


def region_axes(n: int, p_range: tuple[float, float],
                q_range: tuple[float, float],
                resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """(p_axis, q_axis): resolution points over each closed range, both ends
    included.  Refuses (ValueError) a box without a dimension, with fewer
    than 2 points per axis, with an axis outside 1 < lo < hi, or whose
    largest pq overflows."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    for lo, hi in (p_range, q_range):
        if not (1.0 < lo < hi):
            raise ValueError(f"range must satisfy 1 < lo < hi, got ({lo}, {hi})")
    if not math.isfinite(p_range[1] * q_range[1]):
        raise ValueError(f"pq must be finite, got {p_range[1]} * {q_range[1]}")
    return tuple(np.linspace(*r, resolution) for r in (p_range, q_range))


def scan_block(n: int, p_axis: np.ndarray, q_axis: np.ndarray, lo: int,
               hi: int):
    """(rows, cols, scan_arrays results) for cells lo..hi of the grid: cell
    i lies at (p_axis[rows], q_axis[cols]), rows, cols = divmod(i, res)."""
    rows, cols = np.divmod(np.arange(lo, hi), len(q_axis))
    return rows, cols, scan_arrays(n, p_axis[rows], q_axis[cols])


def region_scan(n: int, p_axis: np.ndarray, q_axis: np.ndarray) -> np.ndarray:
    """int8 verdict codes (in the order of Verdict) of every cell of the
    grid over the two axes: cell i lies at (p_axis[i // res],
    q_axis[i % res]), res = len(q_axis), so p varies slowest."""
    # the codes are allocated first, so that a grid too large for memory is
    # refused (MemoryError) before anything is classified
    cells = len(p_axis) * len(q_axis)
    codes = np.empty(cells, dtype=np.int8)
    for lo in range(0, cells, _SCAN_BLOCK):
        hi = min(lo + _SCAN_BLOCK, cells)
        _, _, (_, _, codes[lo:hi], _) = scan_block(n, p_axis, q_axis, lo, hi)
    return codes
