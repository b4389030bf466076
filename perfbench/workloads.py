"""Input generators for the polartree benchmark.

Every workload is a finite pool of *sets*; a set is a short list of pairs
``(pair_id, f_text, g_text)`` generated from its own index, so the golden
output digests in ``golden.json`` cover every pair a run can meet.  A timed
run goes through the whole pool, in an order drawn from the run's
``--seed``; a traced run takes the one set the seed picks.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

WORKLOADS = ("corpus", "growing", "ramified")

# Pool sizes and set shapes.  See NOTES.md for why these sizes were chosen.
POOL_SIZE = {"corpus": 1, "growing": 26, "ramified": 8}
GROWING_SIZES = range(2, 7)        # n + n roots per pair
RAMIFIED_PAIRS = 16                # pairs per ramified set


def pair_digest(f: str, g: str) -> str:
    """Identity of one generated input pair."""
    return hashlib.sha256(f"{f}\n{g}".encode()).hexdigest()


# ---------------------------------------------------------------------------
# corpus: the holomorphic worked examples shipped with the package
# ---------------------------------------------------------------------------


def corpus_set(fixtures) -> list[tuple[str, str, str]]:
    """Every holomorphic fixture, in name order."""
    return [(name, fx.f, fx.g)
            for name, fx in sorted(fixtures.items()) if not fx.laurent]


# ---------------------------------------------------------------------------
# growing: n + n pairwise-distinct rational roots, n = 2..6
# ---------------------------------------------------------------------------


def _rational_root(rng: random.Random) -> tuple[tuple[int, Fraction], ...]:
    """A polynomial root y -> sum c_e y^e with one or two terms, e in 1..4."""
    exps = sorted(rng.sample(range(1, 5), rng.randint(1, 2)))
    return tuple((e, Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 1, 2])))
                 for e in exps)


def _linear_factor(root) -> str:
    return "(x" + "".join(f" - ({c})*y^{e}" for e, c in root) + ")"


def growing_roots(index: int, n: int):
    """The 2n distinct roots of the size-n pair of pool set ``index``:
    the first n belong to f, the rest to g."""
    rng = random.Random(f"growing:{index}:{n}")
    roots: set = set()
    while len(roots) < 2 * n:
        roots.add(_rational_root(rng))
    ordered = sorted(roots)
    rng.shuffle(ordered)
    return ordered


def growing_set(index: int) -> list[tuple[str, str, str]]:
    out = []
    for n in GROWING_SIZES:
        roots = growing_roots(index, n)
        f = "*".join(_linear_factor(r) for r in roots[:n])
        g = "*".join(_linear_factor(r) for r in roots[n:])
        out.append((f"g{index}.n{n}", f, g))
    return out


# ---------------------------------------------------------------------------
# ramified: products of distinct factors x^k - c*y^m [+ tail], c = +-b^k
# ---------------------------------------------------------------------------

RAMIFIED_M = {2: (3, 5), 3: (2, 4)}   # gcd(k, m) = 1
RAMIFIED_B = (1, 2)


def ramified_factor(rng: random.Random) -> tuple[int, int, int, int, int, int]:
    """(k, m, b, sign, tail_coeff, tail_gap); a factor without tail has
    tail_coeff = tail_gap = 0, so equal tuples mean equal polynomials."""
    k = rng.choice((2, 3))
    m = rng.choice(RAMIFIED_M[k])
    b = rng.choice(RAMIFIED_B)
    sign = rng.choice((1, -1))
    tail = rng.choice((0, 0, 1, -1, 2))
    gap = rng.choice((1, 2)) if tail else 0
    return k, m, b, sign, tail, gap


def ramified_factor_text(factor) -> str:
    k, m, b, sign, tail, gap = factor
    c = sign * b**k
    text = f"x^{k} {'-' if c > 0 else '+'} {abs(c)}*y^{m}"
    if tail:
        text += f" {'+' if tail > 0 else '-'} {abs(tail)}*y^{m + gap}"
    return f"({text})"


def ramified_factors(index: int, pair: int):
    """Distinct factors of one ramified pair: (f_factors, g_factors)."""
    rng = random.Random(f"ramified:{index}:{pair}")
    counts = (rng.randint(1, 2), rng.randint(1, 2))
    chosen: list = []
    while len(chosen) < sum(counts):
        fac = ramified_factor(rng)
        if fac not in chosen:
            chosen.append(fac)
    return chosen[:counts[0]], chosen[counts[0]:]


def ramified_set(index: int) -> list[tuple[str, str, str]]:
    out = []
    for p in range(RAMIFIED_PAIRS):
        ff, gf = ramified_factors(index, p)
        f = "*".join(ramified_factor_text(c) for c in ff)
        g = "*".join(ramified_factor_text(c) for c in gf)
        out.append((f"r{index}.p{p:02d}", f, g))
    return out


# ---------------------------------------------------------------------------
# pools and visiting order
# ---------------------------------------------------------------------------


def pool_set(workload: str, index: int, fixtures) -> list[tuple[str, str, str]]:
    if workload == "corpus":
        return corpus_set(fixtures)
    if workload == "growing":
        return growing_set(index)
    if workload == "ramified":
        return ramified_set(index)
    raise ValueError(f"unknown workload {workload!r}")


def pool_pairs(workload: str, fixtures) -> list[tuple[str, str, str]]:
    """Every pair of the workload's pool."""
    return [pair for index in range(POOL_SIZE[workload])
            for pair in pool_set(workload, index, fixtures)]


def traced_set(workload: str, seed: int, fixtures) -> list[tuple[str, str, str]]:
    """The pool set a traced run with this seed measures."""
    return pool_set(workload, seed % POOL_SIZE[workload], fixtures)


def pass_order(pairs: list, seed: int, pass_index: int) -> list:
    """The pairs in the order of one pass of a run with this seed."""
    pairs = list(pairs)
    random.Random(f"pass:{seed}:{pass_index}").shuffle(pairs)
    return pairs

