"""Harrell-Davis quantile estimates.

The per-pair times of a pass are a few hundred values in clusters, such as
one cluster per pair size, with gaps between them. The plain sample
quantile reads one or two order statistics. When it falls on a gap, a few
percent of timing noise swaps neighbours, and the estimate jumps by the
width of the gap. The Harrell-Davis estimator (Biometrika 69, 1982) is a
Beta-weighted mean of all order statistics. It estimates the same
quantile and moves smoothly with each of them.
"""

from __future__ import annotations

import math

_STEPS = 16   # Simpson panels per order statistic; the weights are smooth


def _weights(n: int, p: float) -> list[float]:
    """Weight of the i-th order statistic: the Beta(p(n+1), (1-p)(n+1))
    mass on [i/n, (i+1)/n]."""
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def pdf(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    out = []
    for i in range(n):
        lo, h = i / n, 1 / (n * _STEPS)
        inner = sum((4 if k % 2 else 2) * pdf(lo + k * h) for k in range(1, _STEPS))
        out.append((pdf(lo) + inner + pdf(lo + _STEPS * h)) * h / 3)
    total = sum(out)
    return [w / total for w in out]


def harrell_davis(samples, p: float) -> float:
    """The Harrell-Davis estimate of the p-quantile of the samples."""
    xs = sorted(samples)
    if not xs or not 0.0 < p < 1.0:
        raise ValueError("need samples and 0 < p < 1")
    return math.fsum(w * x for w, x in zip(_weights(len(xs), p), xs))
