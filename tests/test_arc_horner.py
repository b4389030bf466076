"""Orders along arcs against the series-arithmetic Horner.

``order_along_arc`` and ``vanishes_along`` read the order of F along an
exact arc from one packed integer (``exactalg.arc_order``) and refuse a
truncated arc.  The references in ``kernel_references`` run Horner in x on
``Fraction``-keyed series (``PuiseuxSeries`` multiplication and addition,
with their pessimistic truncation rule), or, for many drawn inputs, on dicts
keyed by integer y-exponents.  The orders must agree on drawn inputs
(Laurent polynomials, mixed exponent denominators, negative leading
exponents, large coefficients) and on every arc that verification builds for
two benchmark pool sets, all of which are exact.
"""

import importlib.util
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import kernel_references
from kernel_references import from_coords
from polartree import (
    FIXTURES,
    INF,
    BiPoly,
    CycloField,
    PuiseuxSeries,
    TruncationTooShort,
    order_along_arc,
)
from polartree import jacoracle
from polartree.pipeline import analyze_pair
from polartree.puiseux import vanishes_along

K12 = CycloField(12)
SETTINGS = settings(derandomize=True, max_examples=300, deadline=None)


# -- drawn inputs ------------------------------------------------------------

_coeffs = st.builds(
    lambda a, b: K12.rational(a) + K12.zeta() * b,
    st.integers(-3, 3),
    st.sampled_from((0, 0, 0, 1, -1)),
)
_exponents = st.builds(F, st.integers(-6, 14), st.sampled_from((1, 2, 3, 4, 6)))


@st.composite
def _laurent_polys(draw):
    keys = draw(st.lists(
        st.tuples(st.integers(0, 4), st.integers(-3, 5)), max_size=6, unique=True
    ))
    return BiPoly(K12, {k: draw(_coeffs) for k in keys})


@st.composite
def _arcs(draw, exact=None):
    es = sorted(draw(st.lists(_exponents, max_size=4, unique=True)))
    terms = [(e, draw(_coeffs)) for e in es]
    if exact is None:
        exact = draw(st.booleans())
    trunc = INF if exact else draw(_exponents)
    return PuiseuxSeries(K12, terms, trunc)


@SETTINGS
@given(_laurent_polys(), _arcs())
def test_substitute_arc_matches_series_horner(F_, xi):
    # an exact arc has the reference's order; a truncated one is refused
    if xi.trunc is INF:
        assert order_along_arc(F_, xi) == kernel_references.series_order(F_, xi)
        return
    with pytest.raises(TruncationTooShort):
        order_along_arc(F_, xi)
    with pytest.raises(TruncationTooShort):
        vanishes_along(F_, xi)


@SETTINGS
@given(_laurent_polys(), _arcs(exact=True),
       st.lists(st.tuples(st.integers(-3, 8), _coeffs), max_size=3,
                unique_by=lambda t: t[0]))
def test_vanishes_along_matches_the_series_horner(F_, xi, root):
    # F_ itself, and F_ times x - root(y), which vanishes along root
    assert vanishes_along(F_, xi) == (kernel_references.series_order(F_, xi) is INF)
    root_arc = PuiseuxSeries(K12, sorted((F(e), c) for e, c in root), INF)
    x_minus_root = BiPoly(K12, {(1, 0): K12.one}) - BiPoly(
        K12, {(0, e): c for e, c in root})
    assert vanishes_along(F_ * x_minus_root, root_arc)
    assert order_along_arc(F_ * x_minus_root, root_arc) is INF


def test_negative_leading_exponent_and_truncated_arc():
    f = BiPoly(K12, {(2, -1): K12.one, (0, 1): K12.rational(-1), (1, 0): K12.rational(3)})
    terms = [(F(-1, 2), K12.one), (F(1, 3), K12.zeta())]
    xi = PuiseuxSeries(K12, terms, INF)
    assert order_along_arc(f, xi) == kernel_references.series_order(f, xi) == F(-2)
    # cut at y^(7/4) the leading term is still known, but the arc is refused
    with pytest.raises(TruncationTooShort, match=r"O\(y\^\(7/4\)\)"):
        order_along_arc(f, PuiseuxSeries(K12, terms, F(7, 4)))
    # along the exact zero arc only the x-free terms survive
    zero = PuiseuxSeries.zero(K12)
    assert order_along_arc(f, zero) == kernel_references.series_order(f, zero) == 1


# -- the packed order on exact arcs -------------------------------------------

ORDER_FIELDS = tuple(CycloField(n) for n in (1, 3, 4, 12))


@st.composite
def _elements(draw, field):
    """Small field elements, and some with numerator or denominator near
    10^30."""
    coords = [draw(st.sampled_from((0, 0, 0, 1, -1, 2))) for _ in range(field.degree)]
    coords[0] += draw(st.integers(-3, 3)) + draw(st.sampled_from((0,) * 6 + (10**30, -10**30)))
    den = draw(st.sampled_from((1,) * 5 + (2, 3, 10**30 + 1)))
    return from_coords(field, [F(c, den) for c in coords])


@st.composite
def _order_inputs(draw):
    field = draw(st.sampled_from(ORDER_FIELDS))
    keys = draw(st.lists(
        st.tuples(st.integers(0, 4), st.integers(-3, 5)), max_size=6, unique=True
    ))
    F_ = BiPoly(field, {k: draw(_elements(field)) for k in keys})
    es = draw(st.lists(st.builds(F, st.integers(-6, 14), st.sampled_from((1, 2, 3, 6))),
                       max_size=4, unique=True))
    xi = PuiseuxSeries(field, [(e, draw(_elements(field))) for e in sorted(es)], INF)
    return F_, xi


@settings(derandomize=True, max_examples=120, deadline=None)
@given(_order_inputs())
def test_packed_order_matches_the_dict_horner(inputs):
    F_, xi = inputs
    assert order_along_arc(F_, xi) == kernel_references.dict_horner_order(F_, xi)
    # with xi's exponents scaled to integers, G = F_ * (x - xi) vanishes
    # along the scaled arc; along xi itself its order is the Horner one
    q = xi.exponent_denominator()
    scaled = PuiseuxSeries(F_.field, [(e * q, c) for e, c in xi.terms], INF)
    x_minus = BiPoly(F_.field, {(1, 0): F_.field.one}) - BiPoly(
        F_.field, {(0, int(e)): c for e, c in scaled.terms})
    G = F_ * x_minus
    assert order_along_arc(G, scaled) is INF
    assert vanishes_along(G, scaled)
    assert order_along_arc(G, xi) == kernel_references.dict_horner_order(G, xi)


@pytest.mark.parametrize("n, power", [(3, 1), (12, 4)])
def test_cells_that_fold_to_zero(n, power):
    # along zeta*y, zeta a primitive cube root of unity, x^2 + x*y + y^2 is
    # (zeta^2 + zeta + 1)*y^2 = 0: its unreduced zeta digits are nonzero
    field = CycloField(n)
    arc = PuiseuxSeries(field, [(F(1), field.zeta(power))], INF)
    x, y = BiPoly.variable(field, "x"), BiPoly.variable(field, "y")
    quadric = x * x + x * y + y * y
    assert order_along_arc(quadric + y * y * y, arc) == 3
    assert order_along_arc(quadric, arc) is INF
    assert vanishes_along(quadric, arc)
    assert not vanishes_along(quadric + y * y * y, arc)


# -- arcs built by verification ----------------------------------------------


def _benchmark_pairs(workload: str, index: int):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [(f, g) for _id, f, g in workloads.pool_set(workload, index, FIXTURES)]


def test_verification_arcs_match_series_horner(monkeypatch):
    seen = []

    def recording(F_, xi):
        seen.append((F_, xi))
        return order_along_arc(F_, xi)

    monkeypatch.setattr(jacoracle, "order_along_arc", recording)
    # verify orders f and g along each arc once, so a third set keeps the
    # count of checked arcs above the floor
    pairs = _benchmark_pairs("growing", 4) + _benchmark_pairs("growing", 5)
    for f, g in pairs + _benchmark_pairs("ramified", 4):
        assert analyze_pair(f, g).verification.passed
    assert len(seen) > 500
    for F_, xi in seen:
        assert xi.trunc is INF
        assert order_along_arc(F_, xi) == kernel_references.series_order(F_, xi)
