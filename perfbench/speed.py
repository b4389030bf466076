"""Machine-speed calibration for the benchmark's wall times.

The machines this benchmark runs on share their cores, and the speed of a
core drifts by 20-40 % over seconds to minutes as neighbours come and go.
That drift is far larger than the regressions the benchmark must catch.
Every timed stretch is therefore bracketed by a short, fixed slice of
pure-Python exact arithmetic (stdlib only, independent of polartree), and
the stretch is rescaled by how slow that slice ran against
``NOMINAL_S``: a time reported in seconds is the time the stretch would
have taken on a machine that runs the slice in ``NOMINAL_S``.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# Duration of one reference slice on a 2-vCPU x86-64 VM under CPython
# 3.11.7 in a quiet phase; it only fixes the unit of the rescaled times.
NOMINAL_S = 0.0015
REPEATS = 5


def _reference_slice() -> Fraction:
    acc = Fraction(0)
    table: dict[int, tuple[Fraction, int]] = {}
    for i in range(1, 400):
        acc += Fraction(i % 7 + 1, i % 5 + 1) * Fraction(3, i % 11 + 1)
        table[i % 13] = (acc, i)
    return acc


def probe() -> float:
    """Current duration of the reference slice (fastest of a few)."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = perf_counter()
        _reference_slice()
        best = min(best, perf_counter() - t0)
    return best


def slowdown(before: float, after: float) -> float:
    """How much slower than nominal the machine ran between two probes."""
    return (before + after) / (2 * NOMINAL_S)
