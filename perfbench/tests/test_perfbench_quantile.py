"""The Harrell-Davis estimator against known quantiles."""

from __future__ import annotations

import random
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from quantile import harrell_davis  # noqa: E402


def test_constant_and_symmetric_samples():
    assert harrell_davis([0.25] * 9, 0.9) == pytest.approx(0.25)
    assert harrell_davis([1, 2, 3, 4, 5], 0.5) == pytest.approx(3)


def test_agrees_with_sample_quantiles_on_a_smooth_sample():
    rng = random.Random(7)
    xs = [rng.expovariate(1.0) for _ in range(4000)]
    deciles = statistics.quantiles(xs, n=10)
    assert harrell_davis(xs, 0.5) == pytest.approx(deciles[4], rel=0.03)
    assert harrell_davis(xs, 0.9) == pytest.approx(deciles[8], rel=0.03)


def test_rejects_empty_input_and_bad_levels():
    with pytest.raises(ValueError):
        harrell_davis([], 0.5)
    with pytest.raises(ValueError):
        harrell_davis([1.0], 1.0)
