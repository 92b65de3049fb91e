"""Harrell-Davis quantiles of weighted samples.

The Harrell-Davis estimate of the p-quantile is a weighted mean of all
order statistics, with the weights a Beta(p (n + 1), (1 - p) (n + 1))
distribution puts on each rank.  Unlike a single order statistic it does
not jump from one item to the next when a seed swaps items of different
cost, which keeps the percentiles of a run steady.
"""

from __future__ import annotations

import math


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 100_000):
        even = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        for coeff in (even, odd):
            d = 1.0 + coeff * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + coeff / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-12:
            return h
    raise ArithmeticError("incomplete beta fraction did not converge")


def beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def harrell_davis(samples: list[tuple[float, int]], pct: float) -> float:
    """Harrell-Davis ``pct`` percentile of (value, weight) samples.

    A sample of weight w stands for w equal values.
    """
    samples = sorted(samples)
    n = sum(w for _, w in samples)
    p = pct / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    estimate, seen, below = 0.0, 0, 0.0
    for value, weight in samples:
        seen += weight
        upto = beta_cdf(a, b, seen / n)
        estimate += value * (upto - below)
        below = upto
    return estimate
