"""Self-checks of the benchmark's input generators and golden digests."""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402
from polartree import FIXTURES  # noqa: E402

GOLDEN = json.loads((BENCH / "golden.json").read_text())


def all_sets(workload):
    return [workloads.pool_set(workload, i, FIXTURES)
            for i in range(workloads.POOL_SIZE[workload])]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_pairs(workload):
    assert all_sets(workload) == all_sets(workload)
    pool = workloads.pool_pairs(workload, FIXTURES)
    assert pool == [pair for pairs in all_sets(workload) for pair in pairs]
    for seed in (0, 1, 12345):
        order = workloads.pass_order(pool, seed, 3)
        assert order == workloads.pass_order(pool, seed, 3)
        assert sorted(order) == sorted(pool)
        assert (workloads.traced_set(workload, seed, FIXTURES)
                == workloads.traced_set(workload, seed, FIXTURES))


def test_pair_counts_are_as_stated():
    (corpus,) = all_sets("corpus")
    assert len(corpus) == 14
    assert {pid for pid, _f, _g in corpus} == {
        name for name, fx in FIXTURES.items() if not fx.laurent}
    for pairs in all_sets("growing"):
        assert len(pairs) == len(workloads.GROWING_SIZES) == 5
    for pairs in all_sets("ramified"):
        assert len(pairs) == workloads.RAMIFIED_PAIRS == 16
    # one pass over a pool holds enough samples for the 90th percentile
    assert len(workloads.pool_pairs("growing", FIXTURES)) == 130
    assert len(workloads.pool_pairs("ramified", FIXTURES)) == 128


def test_growing_roots_are_pairwise_distinct():
    for index in range(workloads.POOL_SIZE["growing"]):
        for n in workloads.GROWING_SIZES:
            roots = workloads.growing_roots(index, n)
            assert len(roots) == 2 * n
            assert len(set(roots)) == 2 * n
            for root in roots:
                exps = [e for e, _c in root]
                assert exps == sorted(set(exps)) and 1 <= exps[0] and exps[-1] <= 4
                assert all(c != 0 for _e, c in root)


def test_ramified_factors_are_distinct_with_c_a_signed_kth_power():
    for index in range(workloads.POOL_SIZE["ramified"]):
        for p in range(workloads.RAMIFIED_PAIRS):
            f_factors, g_factors = workloads.ramified_factors(index, p)
            assert 1 <= len(f_factors) <= 2 and 1 <= len(g_factors) <= 2
            factors = f_factors + g_factors
            texts = [workloads.ramified_factor_text(c) for c in factors]
            assert len(set(texts)) == len(texts)
            for k, m, b, sign, tail, gap in factors:
                assert k in (2, 3) and math.gcd(k, m) == 1
                assert b in workloads.RAMIFIED_B and sign in (1, -1)
                c = sign * b**k
                text = workloads.ramified_factor_text((k, m, b, sign, tail, gap))
                assert text.startswith(f"(x^{k} {'-' if c > 0 else '+'} {abs(c)}*y^{m}")
                assert (tail == 0) == (gap == 0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_golden_digests_cover_every_pool_pair(workload):
    golden = GOLDEN[workload]
    seen = set()
    for pairs in all_sets(workload):
        for pid, f, g in pairs:
            assert golden[pid][0] == workloads.pair_digest(f, g)
            seen.add(pid)
    assert seen == set(golden)
