"""In-field roots by the polynomial's shape against the strip-and-restart search.

``exactalg.roots_in_field`` solves a linear polynomial directly, a
lacunary psi(z^e) whose psi splits over Q in closed form, and any other
squarefree factor by one pass over its rotations f(zeta^j z); it returns
the roots in one written-down order.  The reference below is the search as
it was before: after each root it finds, it divides the root out and
starts again from the candidate points and from j = 0.  Both must give the
same list, so order and multiplicities count, and the same factor left
once the located roots are divided out: on drawn polynomials over
Q(zeta_N) for several N, and on every call the pipeline makes on a
growing and a ramified benchmark set.
"""

import importlib.util
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from kernel_references import from_coords

from polartree import CycloField, CycloRational, UniPoly, baranalysis, npsolve, pipeline
from polartree.exactalg import _rational_gcd_roots, roots_in_field, squarefree_decompose

ROOT = Path(__file__).resolve().parents[1]
CONDUCTORS = (1, 2, 3, 4, 5, 6, 8, 12)
SETTINGS = settings(derandomize=True, max_examples=300, deadline=None)


# -- the reference: strip each root found and search again ----------------------


def _reference_roots_in_field(p, extra_candidates=()):
    field = p.field
    candidates = list(extra_candidates)
    roots = []
    rest = UniPoly.constant(field, 1, p.var)
    for factor, mult in squarefree_decompose(p):
        f = factor
        while f.degree() >= 1:
            if f.degree() == 1:
                roots.append((-(f[0] / f[1]), mult))
                f = UniPoly.constant(field, 1, f.var)
                break
            found = _reference_find_one_root(f, candidates)
            if found is None:
                break
            roots.append((found, mult))
            f = f.exact_div(UniPoly(field, (-found, field.one), f.var))
        rest = rest * f**mult
    return roots, rest


def _reference_find_one_root(f, candidates):
    field = f.field
    for cand in candidates:
        if not isinstance(cand, CycloRational):
            cand = field.rational(cand)
        elif cand.field is not field:
            r = cand.as_rational()
            if r is None:
                continue
            cand = field.rational(r)
        if f.evaluate(cand).is_zero():
            return cand
    n = field.conductor
    for j in range(n):
        rotated = f if j == 0 else f.compose_scale(field.zeta(j))
        for r in _rational_gcd_roots(rotated.coordinate_polys()):
            root = field.zeta(j) * field.rational(r) if j else field.rational(r)
            if f.evaluate(root).is_zero():
                return root
    return None


def _agree(p, candidates=()):
    got = roots_in_field(p, candidates)
    want = _reference_roots_in_field(p, candidates)
    assert got == want, (str(p), [str(c) for c in candidates],
                         [(str(r), m) for r, m in got[0]], got[1],
                         [(str(r), m) for r, m in want[0]], want[1])


# -- drawn polynomials ------------------------------------------------------------

rationals = st.builds(F, st.integers(-4, 4).filter(bool), st.sampled_from([1, 1, 2, 3]))


@st.composite
def field_points(draw, K):
    """t * zeta^j with t rational, or a small element of K."""
    if draw(st.booleans()):
        return K.zeta(draw(st.integers(0, K.conductor - 1))) * draw(rationals)
    return from_coords(K, [draw(st.integers(-2, 2)) for _ in range(K.degree)])


@st.composite
def factors(draw, K, kind=None):
    z = lambda e: UniPoly(K, [0] * e + [1])  # noqa: E731
    kind = kind or draw(st.sampled_from(
        ["linear", "binomial", "split", "nonsplit", "random"]))
    if kind == "linear":
        return z(1) - UniPoly(K, [draw(field_points(K))])
    e = draw(st.integers(2, 4))

    def radicand():  # +-(an e-th power), or any rational
        u = draw(rationals)
        return u**e * draw(st.sampled_from([1, -1])) if draw(st.booleans()) else u

    if kind == "binomial":  # z^e - u
        return z(e) - UniPoly(K, [radicand()])
    if kind == "split":  # (z^e - w1)(z^e - w2)
        return (z(e) - UniPoly(K, [radicand()])) * (z(e) - UniPoly(K, [radicand()]))
    if kind == "nonsplit":  # z^2e + b z^e + 1: its roots are roots of unity
        b = draw(st.integers(-1, 1))
        return z(2 * e) + z(e) * b + UniPoly(K, [1])
    degree = draw(st.integers(2, 3))
    return UniPoly(K, [draw(field_points(K)) for _ in range(degree)] + [K.one])


@st.composite
def polynomials(draw):
    K = CycloField(draw(st.sampled_from(CONDUCTORS)))
    p = UniPoly(K, [draw(field_points(K))])  # a non-monic leading coefficient
    if p.is_zero():
        p = UniPoly(K, [2])
    fs = [draw(factors(K)) for _ in range(draw(st.sampled_from([1, 1, 2, 3])))]
    for k, f in enumerate(fs):
        power = draw(st.integers(1, 2)) if k == 0 and f.degree() <= 4 else 1
        p = p * f**power
    candidates = draw(st.lists(field_points(K), max_size=2))
    if candidates and draw(st.booleans()):  # a candidate that is a root
        roots, _ = _reference_roots_in_field(p)
        if roots:
            candidates[0] = roots[draw(st.integers(0, len(roots) - 1))][0]
    return p, candidates


@SETTINGS
@given(polynomials())
def test_shapes_match_the_strip_and_restart_search(data):
    p, candidates = data
    _agree(p, candidates)


@SETTINGS
@given(st.sampled_from(CONDUCTORS), st.sampled_from(["binomial", "split", "nonsplit"]),
       st.data())
def test_lacunary_factors_match_the_strip_and_restart_search(n, kind, data):
    K = CycloField(n)
    p = data.draw(factors(K, kind))
    _agree(p, data.draw(st.lists(field_points(K), max_size=1)))


@pytest.mark.parametrize("n", CONDUCTORS)
def test_every_binomial_and_split_lacunary_shape(n):
    K = CycloField(n)
    z = UniPoly(K, [0, 1])
    for e in (2, 3, 4, 6):
        for u in (1, -1, 4, -4, 8, -8, F(1, 16), -27, 2):
            _agree(z**e - UniPoly(K, [u]))
        for w1, w2 in ((1, 2), (1, -1), (-1, 4), (F(1, 4), -8)):
            _agree((z**e - UniPoly(K, [w1])) * (z**e - UniPoly(K, [w2])))
        _agree(z ** (2 * e) + z**e + UniPoly(K, [1]))


# -- the common rational roots of integer polynomials ------------------------------


def _times_linear(p, r):
    """p * (den*x - num) for the rational r = num/den, ascending coefficients."""
    out = [0] * (len(p) + 1)
    for k, c in enumerate(p):
        out[k] -= c * r.numerator
        out[k + 1] += c * r.denominator
    return out


def _value(p, x):
    acc = F(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


_small_rationals = st.builds(F, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def _polys_with_common_roots(draw):
    """Integer polynomials, each a product of drawn linear factors and an
    integer cofactor, and the drawn roots that all of them share."""
    shared = draw(st.lists(_small_rationals, max_size=3))
    polys, root_sets = [], []
    for _ in range(draw(st.integers(1, 3))):
        roots = shared + draw(st.lists(_small_rationals, max_size=2))
        p = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=3)
                 .filter(lambda c: any(c)))
        for r in roots:
            p = _times_linear(p, r)
        polys.append(p)
        root_sets.append(set(roots))
    return polys, set.intersection(*root_sets)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_polys_with_common_roots())
def test_rational_gcd_roots_are_the_common_roots(data):
    polys, common = data
    got = _rational_gcd_roots([list(p) for p in polys])
    for r in got:
        assert all(_value(p, r) == 0 for p in polys), (polys, r)
    for r in common:
        assert got.count(r) == 1, (polys, r, got)


# -- the pipeline's own calls --------------------------------------------------------


def _load_workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload, index", [("growing", 4), ("ramified", 1)])
def test_pipeline_calls_match_the_strip_and_restart_search(workload, index):
    calls = []

    def recording(p, extra_candidates=()):
        candidates = list(extra_candidates)
        calls.append((p, candidates))
        return roots_in_field(p, candidates)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(npsolve, "roots_in_field", recording)
        mp.setattr(baranalysis, "roots_in_field", recording)
        for _id, f, g in _load_workloads().pool_set(workload, index, ()):
            assert pipeline.analyze_pair(f, g).verification.passed
    assert len(calls) >= 50
    assert any(p.degree() >= 2 for p, _ in calls)
    for p, candidates in calls:
        _agree(p, candidates)
