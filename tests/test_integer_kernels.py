"""The integer zero tests, the kept row layouts and the one-sum Jacobian
against the field-arithmetic kernels they replaced.

``exactalg.vanishes_at_two`` (the pre-test of ``vanishes_along``) and
``UniPoly.vanishes_at`` run Horner on integer digit vectors; their
references in ``kernel_references`` evaluate with one field product per
term.  ``BiPoly.jacobian`` forms J = f_y g_x - f_x g_y as one packed sum;
its reference subtracts two products of derivative polynomials.
``arc_order`` keeps F's packed rows per layout, so one F probed along many
arcs must give the orders a fresh copy of F gives.  Inputs are drawn over
Q(zeta_N), N in {1, 4, 12}: Laurent rows, negative leading arc exponents,
exact roots and polynomials free of x or of y.
"""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

import kernel_references
from kernel_references import from_coords
from polartree import INF, BiPoly, CycloField, PuiseuxSeries, UniPoly, npsolve
from polartree.exactalg import arc_order, vanishes_at_two
from polartree.pipeline import analyze_pair

FIELDS = tuple(CycloField(n) for n in (1, 4, 12))
SETTINGS = settings(derandomize=True, max_examples=200, deadline=None)


@st.composite
def _elements(draw, field):
    coords = [draw(st.sampled_from((0, 0, 0, 1, -1, 2))) for _ in range(field.degree)]
    coords[0] += draw(st.integers(-3, 3))
    den = draw(st.sampled_from((1, 1, 1, 2, 3, 10**20 + 1)))
    return from_coords(field, [F(c, den) for c in coords])


@st.composite
def _polys(draw, field, free=None):
    """A Laurent polynomial; ``free`` "x" or "y" draws one free of that
    variable."""
    xs = st.just(0) if free == "x" else st.integers(0, 4)
    ys = st.just(0) if free == "y" else st.integers(-3, 5)
    keys = draw(st.lists(st.tuples(xs, ys), max_size=6, unique=True))
    return BiPoly(field, {k: draw(_elements(field)) for k in keys})


@st.composite
def _arcs(draw, field):
    """(arc, d) for ``arc_order``: integer exponents, the least one
    possibly negative."""
    es = sorted(draw(st.lists(st.integers(-4, 9), max_size=4, unique=True)))
    return [(n, draw(_elements(field))) for n in es], draw(st.integers(1, 4))


@st.composite
def _field_poly_arc(draw):
    field = draw(st.sampled_from(FIELDS))
    return field, draw(_polys(field)), draw(_arcs(field))


def _x_minus(field, arc):
    """x - A(y), for the arc A of exponent denominator 1."""
    return BiPoly.variable(field, "x") - BiPoly(field, {(0, n): c for n, c in arc})


@SETTINGS
@given(_field_poly_arc())
def test_vanishes_at_two_matches_the_at_y_reference(inputs):
    field, F_, (arc, d) = inputs
    assert vanishes_at_two(F_, arc, d) == kernel_references.vanishes_at_two(F_, arc, d)
    # F_ times x - A(y) vanishes along A, at y = t
    G = F_ * _x_minus(field, arc)
    assert vanishes_at_two(G, arc, 1)
    assert kernel_references.vanishes_at_two(G, arc, 1)


@st.composite
def _uni_inputs(draw):
    field = draw(st.sampled_from(FIELDS))
    coeffs = draw(st.lists(_elements(field), max_size=6))
    return UniPoly(field, coeffs), draw(_elements(field))


@SETTINGS
@given(_uni_inputs())
def test_vanishes_at_matches_the_field_horner(inputs):
    p, point = inputs
    assert p.vanishes_at(point) == kernel_references.evaluate(p, point).is_zero()
    # a second point reads the digits that the first call built
    field = p.field
    other = point + field.one
    assert p.vanishes_at(other) == kernel_references.evaluate(p, other).is_zero()
    # p times z - point, its root
    assert (p * UniPoly(field, (-point, field.one))).vanishes_at(point)


@st.composite
def _jacobian_inputs(draw):
    field = draw(st.sampled_from(FIELDS))
    free = draw(st.sampled_from((None, None, "x", "y")))
    return draw(_polys(field, free)), draw(_polys(field))


@SETTINGS
@given(_jacobian_inputs())
def test_one_sum_jacobian_matches_two_products(inputs):
    f, g = inputs
    assert f.jacobian(g) == kernel_references.jacobian(f, g)
    assert g.jacobian(f) == kernel_references.jacobian(g, f)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_kept_layouts_match_a_fresh_polynomial(data):
    # one F along many arcs of different d, its layouts kept between calls
    field = data.draw(st.sampled_from(FIELDS))
    F_ = data.draw(_polys(field))
    for arc, d in data.draw(st.lists(_arcs(field), min_size=2, max_size=8)):
        fresh = BiPoly(field, F_.terms)
        assert arc_order(F_, arc, d) == arc_order(fresh, arc, d)
        G = F_ * _x_minus(field, arc)
        assert arc_order(G, arc, 1) is None
    if F_.terms:
        assert F_._integers().packed


def test_lossy_path_takes_the_exact_root_test(monkeypatch):
    # growing pair g19.n2: the expansion of f's root -2*y^4 drops a term,
    # so the exact root is certified by substituting the prefix
    seen = []
    real = npsolve.vanishes_along

    def recording(F_, xi):
        out = real(F_, xi)
        seen.append((xi, out))
        return out

    monkeypatch.setattr(npsolve, "vanishes_along", recording)
    run = analyze_pair("(x - y^2)*(x - y^2 + y^3)", "(x - 1/2*y)*(x + 2*y^4)")
    assert run.verification.passed
    field = run.f.field
    root = PuiseuxSeries(field, [(F(4), field.rational(-2))], INF)
    assert (root, True) in seen
