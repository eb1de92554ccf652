"""Shared problem parameters and basic geometric constants."""
from __future__ import annotations

import math
from dataclasses import dataclass


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere in R^n (|S^{n-1}|; equals 2 for n=1)."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def admissible_cap(n: int) -> float:
    """Largest admissible exponent: n/(n-2) for n >= 3, unbounded below that."""
    if n >= 3:
        return n / (n - 2.0)
    return math.inf


@dataclass(frozen=True)
class ProblemParams:
    """One point of the experiment space.

    n: space dimension; p, q: nonlinearity exponents (|v|^p drives the damped
    component, |u|^q the free one); R: radius of the initial-data support;
    epsilon: data size.  All four are finite, and so is pq.
    """

    n: int
    p: float
    q: float
    R: float = 1.0
    epsilon: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        for name in ("p", "q", "R", "epsilon", "pq"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got "
                                 f"{getattr(self, name)}")
        if not self.p > 1.0:
            raise ValueError(f"p must exceed 1, got {self.p}")
        if not self.q > 1.0:
            raise ValueError(f"q must exceed 1, got {self.q}")
        if not self.R > 0.0:
            raise ValueError(f"R must be positive, got {self.R}")
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")

    @property
    def pq(self) -> float:
        return self.p * self.q

    @property
    def admissible(self) -> bool:
        """p, q > 1 with both capped at n/(n-2) once n >= 3 (closed boundary)."""
        return max(self.p, self.q) <= admissible_cap(self.n)
