"""Newton polygons, root expansion, multiplicity splitting."""

import random
from collections import Counter
from fractions import Fraction as F

import kernel_references
from kernel_references import from_coords
import pytest
from hypothesis import assume, given, settings, strategies as st

from polartree import (
    FIXTURES,
    BiPoly,
    CycloField,
    INF,
    NeedsLargerField,
    expand_roots,
    jacobian,
    multiplicity_split,
    parse_expression,
)
from polartree.npsolve import _lower_hull, _polygon_data
from polartree.puiseux import PuiseuxSeries, order_along_arc, vanishes_along

K4 = CycloField(4)
K12 = CycloField(12)


def _vars(field):
    return BiPoly.variable(field, "x"), BiPoly.variable(field, "y")


def test_polygon_three_vertices():
    # the local equation of the bounded roots: vertices at (3,0), (1,E), (0,2e)
    e, E = 7, 8
    x, y = _vars(K4)
    P = x**3 * 8 - x * y**E * (2 * (E + 2)) - y ** (2 * e) * (2 * (e + 2))
    assert _lower_hull(P.terms) == [(0, 2 * e), (1, E), (3, 0)]
    edges = _polygon_data(P.terms, 1)
    assert [(ed.slope, ed.extent) for ed in edges] == [(F(E, 2), 2), (F(2 * e - E), 1)]


def test_polygon_simple():
    x, y = _vars(K4)
    assert _lower_hull((x * x - y * y).terms) == [(0, 2), (2, 0)]
    assert _lower_hull((x**3 - y**4).terms) == [(0, 4), (3, 0)]


def test_substitute_grows_the_branch_denominator():
    # f = (x^3 - y^4 - 3y^5)^2 - y^9 (3 + y)^2 has the six roots
    # x = y^(4/3) * w * (1 +- y^(1/2)), w^3 = 1: along the branch w = 1 the
    # denominator q of the integer y-exponents goes 1 -> 3 -> 6
    from polartree.npsolve import _polygon_data, _substitute

    f = parse_expression("(x^3 - y^4 - 3*y^5)^2 - y^9*(3 + y)^2", K4)
    (edge,) = _polygon_data(f.terms, 1)
    assert (edge.slope, edge.extent) == (F(4, 3), 6)
    # x = y^(4/3) (1 + x): the constant and linear terms at y^8 cancel,
    # exponents are counted in thirds and shifted down by 24
    step1, q, _ = _substitute(f.terms, 1, edge.slope, K4.one, K4, F(4))
    assert q == 3
    assert step1 == {
        (k, j): K4.rational(c)
        for (k, j), c in {
            (2, 0): 9, (3, 0): 18, (4, 0): 15, (5, 0): 6, (6, 0): 1,
            (0, 3): -9, (1, 3): -18, (2, 3): -18, (3, 3): -6,
            (0, 6): 3, (0, 9): -1,
        }.items()
    }
    # the edge from (2, 0) to (0, 3) carries 9z^2 - 9: order 3/2 over q = 3
    (edge,) = _polygon_data(step1, q)
    assert (edge.top, edge.bottom, edge.slope) == ((0, 3), (2, 0), F(1, 2))
    # x = y^(1/2) (1 + x): exponents in sixths, j -> 2j + 3i, shifted by 6;
    # every x-free term cancels because y^(4/3) (1 + y^(1/2)) is a root
    step2, q, _ = _substitute(step1, q, edge.slope, K4.one, K4, F(4))
    assert q == 6
    assert step2 == {
        (k, j): K4.rational(c)
        for (k, j), c in {
            (1, 0): 18, (2, 0): 9,
            (1, 3): 36, (2, 3): 54, (3, 3): 18,
            (1, 6): 24, (2, 6): 72, (3, 6): 60, (4, 6): 15,
            (1, 9): 12, (2, 9): 42, (3, 9): 54, (4, 9): 30, (5, 9): 6,
            (1, 12): 6, (2, 12): 15, (3, 12): 20, (4, 12): 15, (5, 12): 6, (6, 12): 1,
        }.items()
    }


SUB_FIELDS = tuple(CycloField(n) for n in (1, 4, 12))


@st.composite
def _substitutions(draw):
    """Arguments of ``_substitute``: terms over Q(zeta_N) for N in {1, 4, 12},
    a rational or zeta-valued c, and a cut that may drop terms."""
    field = draw(st.sampled_from(SUB_FIELDS))
    rational = field.degree == 1 or draw(st.booleans())

    def element(rational):
        coords = [draw(st.integers(-3, 3)) if k == 0 or not rational else 0
                  for k in range(field.degree)]
        coords[0] += draw(st.sampled_from((0,) * 6 + (10**20,)))
        if not any(coords):
            coords[0] = 1
        den = draw(st.sampled_from((1, 1, 1, 2, 3, 10**12 + 39)))
        return from_coords(field, [F(u, den) for u in coords])

    keys = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 12)),
                         min_size=1, max_size=8, unique=True))
    terms = {k: element(draw(st.booleans()) or rational) for k in keys}
    q = draw(st.sampled_from((1, 2, 3)))
    m = F(draw(st.integers(1, 5)), draw(st.integers(1, 3)))
    bound = F(draw(st.integers(0, 24)), draw(st.integers(1, 4)))
    return terms, q, m, element(rational), field, bound


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_substitutions())
def test_taylor_shift_matches_the_per_term_substitution(args):
    from polartree.npsolve import _substitute

    assert _substitute(*args) == kernel_references.substitute(*args)


def test_taylor_shift_cut_drops_a_row_and_cancels_an_entry():
    # x^3 - y^4 + x*y^3 - y^7 along x = y^(4/3) (w + x), w^3 = 1: in thirds
    # the terms land at 12, 12, 13 and 21; mu = 12, the cut at 12 + 9 drops
    # y^7, and the row (w + x)^3 - 1 loses its constant term
    from polartree.npsolve import _substitute

    f = parse_expression("x^3 - y^4 + x*y^3 - y^7", K12)
    args = (f.terms, 1, F(4, 3), K12.zeta(4), K12, F(3))
    got, q, dropped = _substitute(*args)
    assert (got, q, dropped) == kernel_references.substitute(*args)
    assert q == 3 and dropped
    assert sorted(got) == [(0, 1), (1, 0), (1, 1), (2, 0), (3, 0)]


def test_expand_conjugate_pair():
    x, y = _vars(K4)
    out = expand_roots(x * x - y * y, F(10))
    assert out.y_content == 0 and out.x_order == 2
    assert {str(r.series) for r in out.roots} == {"y", "-y"}
    assert all(r.series.trunc is INF for r in out.roots)


def test_expand_needs_cube_roots():
    x, y = _vars(K4)
    with pytest.raises(NeedsLargerField) as e:
        expand_roots(x**3 - y**4, F(10))
    assert e.value.conductor == 12


def test_expand_cusp_over_larger_field():
    x, y = _vars(K12)
    out = expand_roots(x**3 - y**4, F(10))
    assert out.x_order == 3
    z3 = K12.zeta_of_order(3)
    assert {r.series.terms[0][1] for r in out.roots} == {K12.one, z3, z3 * z3}
    assert all(r.series.terms[0][0] == F(4, 3) for r in out.roots)


def test_expand_9_1_jacobian():
    x, y = _vars(K4)
    G = x * x * y - x * y**3 * F(2, 3) + y**5 * F(1, 5)
    J = (x * 2 - G) * (x - y * y) ** 2 * 2
    out = expand_roots(J, F(12))
    assert out.x_order == 3
    double = [r for r in out.roots if r.multiplicity == 2]
    assert len(double) == 1 and str(double[0].series) == "y^2"
    single = [r for r in out.roots if r.multiplicity == 1]
    assert len(single) == 1
    assert single[0].series.terms[0] == (F(5), K4.rational(F(1, 10)))


def test_expand_residual_order_certificate():
    # substituting a truncated root back in leaves nothing visible below the
    # certified bound
    x, y = _vars(K12)
    f = x**3 - y**4 - x * y**5 * 3
    out = expand_roots(f, F(6))
    for r in out.roots:
        s = kernel_references.substitute_arc(f, r.series)
        assert not s.terms
        assert s.trunc is not INF and s.trunc >= F(6)


def test_expand_zero_root():
    x, y = _vars(K4)
    out = expand_roots(x * (x - y), F(10))
    assert {str(r.series) for r in out.roots} == {"0", "y"}


def test_count_mode_bundles():
    x, y = _vars(K4)
    toy = x * x - y**8 * F(5, 2)
    out = expand_roots(toy, F(10))
    assert len(out.roots) == 1
    grp = out.roots[0]
    assert grp.branch_exp == F(4) and grp.branches == 2
    assert str(grp.coeff_poly) == "z^2 - 5/2"
    assert grp.series.trunc == F(4)
    assert out.total_count() == out.x_order == 2


def test_multiplicity_split_examples():
    x, y = _vars(K4)
    out = multiplicity_split((x - y) ** 2 * x)
    assert sorted((str(p), m) for p, m in out) == [("x", 1), ("x - y", 2)]
    f = x**3 - y**4
    assert multiplicity_split(f) == [(f, 1)]
    out = multiplicity_split((x * x - y * y) ** 2)
    assert [(str(p), m) for p, m in out] == [("x^2 - y^2", 2)]
    one = BiPoly.constant(K4, 1)
    # the two components coincide at y = 1 and y = 2
    out = multiplicity_split((x - y) * (x - y * y + y * 2 - one * 2) ** 2)
    assert [(str(p), m) for p, m in out] == [("x - y", 1), ("x - 2 + 2*y - y^2", 2)]
    # lc_x vanishes at y = 1; y-content and a unit are dropped
    out = multiplicity_split((x - x * y - y - one) ** 2 * x * y**3 * 3)
    assert [(str(p), m) for p, m in out] == [("x", 1), ("x - x*y - 1 - y", 2)]
    x, y = _vars(K12)
    z = K12.zeta()
    out = multiplicity_split((x - y * z) ** 3 * (x + y * z * z) ** 2 * z)
    assert [(str(p), m) for p, m in out] == [("x + zeta^2*y", 2), ("x - zeta*y", 3)]


# str() and multiplicity of every component that multiplicity_split returns
# for f, g and J = f_y g_x - f_x g_y of each holomorphic corpus fixture, parsed
# in the field its full run settles on: (conductor, f split, g split, J split).
# Recorded from the Yun-over-K(y) implementation that evaluation and
# interpolation replaced; the two must agree term for term.
_SPLIT_PINS = {
    "cusp34": (
        12,
        [("x^3 - y^4", 1)],
        [],
        [("x", 2)],
    ),
    "ex11": (
        4,
        [("x^3 + x^2*y + 2*x^2*y^4 + 2*x*y^5 - x*y^6 + x*y^8 - y^7 + y^9", 1)],
        [("x^3 - x^2*y - 2*x^2*y^4 + 2*x*y^5 - x*y^6 + x*y^8 + y^7 - y^9", 1)],
        [
            (
                "6*x^4 + 48*x^4*y^3 - 36*x^2*y^5 - 20*x^2*y^6 - 24*x^2*y^8 + "
                "32*x^2*y^9 - 48*x^2*y^11 - 28*y^11 + 14*y^12 + 36*y^13 - 32*y^14 "
                "+ 18*y^16",
                1,
            ),
        ],
    ),
    "ex11-degenerate": (
        4,
        [("x^3 + x^2*y + 2*x^2*y^3 + x*y^4 + x*y^6 - y^5 + y^7", 1)],
        [("x^3 - x^2*y - 2*x^2*y^3 + x*y^4 + x*y^6 + y^5 - y^7", 1)],
        [
            (
                "6*x^4 + 36*x^4*y^2 - 44*x^2*y^4 - 36*x^2*y^8 - 10*y^8 + 4*y^10 + "
                "14*y^12",
                1,
            ),
        ],
    ),
    "ex11-neg": (
        12,
        [("x^3 + x^2*y - x*y^6 + 2*x*y^7 - x*y^8 - y^7 + 2*y^8 - y^9", 1)],
        [("x^3 - x^2*y - x*y^6 - 2*x*y^7 - x*y^8 + y^7 + 2*y^8 + y^9", 1)],
        [
            (
                "6*x^4 + 84*x^3*y^6 - 20*x^2*y^6 - 24*x^2*y^8 - 64*x*y^8 - "
                "4*x*y^12 + 4*x*y^14 + 14*y^12 - 32*y^14 + 18*y^16",
                1,
            ),
        ],
    ),
    "ex61": (
        4,
        [
            (
                "x^4 - 2*x^3*y + x^2*y^2 - x^2*y^16 - x^2*y^18 + 2*x*y^17 - y^18 + "
                "y^34",
                1,
            ),
        ],
        [("x^2 + x*y + x*y^9 + y^10", 1)],
        [
            (
                "-8*x^4 - 36*x^4*y^8 + 8*x^3*y + 12*x^3*y^9 - 32*x^3*y^15 - "
                "36*x^3*y^17 + 44*x^2*y^10 + 54*x^2*y^16 - 16*x^2*y^18 + "
                "2*x^2*y^24 - 20*x*y^11 - 4*x*y^17 + 36*x*y^25 + 20*x*y^27 + "
                "68*x*y^33 - 18*y^18 - 38*y^26 + 34*y^34 + 34*y^42",
                1,
            ),
        ],
    ),
    "ex61-e9": (
        4,
        [
            (
                "x^4 - 2*x^3*y + x^2*y^2 - x^2*y^16 - x^2*y^18 + 2*x*y^17 - y^18 + "
                "y^34",
                1,
            ),
        ],
        [("x^2 + x*y + x*y^10 + y^11", 1)],
        [
            (
                "-8*x^4 - 40*x^4*y^9 + 8*x^3*y + 14*x^3*y^10 - 32*x^3*y^15 - "
                "36*x^3*y^17 + 48*x^2*y^11 + 54*x^2*y^16 - 16*x^2*y^18 + "
                "4*x^2*y^25 + 2*x^2*y^27 - 22*x*y^12 - 4*x*y^17 + 36*x*y^26 + "
                "22*x*y^28 + 68*x*y^33 - 18*y^18 - 40*y^27 + 34*y^34 + 34*y^43",
                1,
            ),
        ],
    ),
    "ex82": (
        12,
        [("x^3 - y^4", 1)],
        [],
        [("x", 2)],
    ),
    "ex82-prime": (
        12,
        [("x^3 - 3*x*y^5 - y^4", 1)],
        [],
        [("-3*x^2 + 3*y^5", 1)],
    ),
    "ex82-second": (
        12,
        [("x^3 - 3*x*y^6 - y^4", 1)],
        [],
        [("-3*x^2 + 3*y^6", 1)],
    ),
    "ex91": (
        4,
        [
            (
                "-x^4*y^2 + 4/3*x^3*y^4 + x^2 - 38/45*x^2*y^6 + 4/15*x*y^8 - "
                "1/25*y^10",
                1,
            ),
        ],
        [("-2*x^2*y + x + 4/3*x*y^3 - 2/5*y^5", 1)],
        [("x^2*y - 2*x - 2/3*x*y^3 + 1/5*y^5", 1), ("x - y^2", 2)],
    ),
    "ex91-second": (
        4,
        [
            (
                "-x^8*y^2 + 4/3*x^6*y^4 - 38/45*x^4*y^6 + x^2 + 4/15*x^2*y^8 - "
                "1/25*y^10",
                1,
            ),
        ],
        [("-2*x^4*y + 4/3*x^2*y^3 + x - 2/5*y^5", 1)],
        [("x^4*y - 2/3*x^2*y^3 - 2*x + 1/5*y^5", 1), ("x^2 - y^2", 2)],
    ),
    "fig2": (
        4,
        [
            (
                "x^6 - 3*x^5*y - x^5*y^2 - x^5*y^4 + 3*x^4*y^3 - 2*x^4*y^4 + "
                "x^4*y^5 - 3*x^4*y^6 - 2*x^4*y^7 + 4*x^3*y^3 + 2*x^3*y^5 + "
                "8*x^3*y^6 + 11*x^3*y^7 + 7*x^3*y^8 - 2*x^3*y^9 - x^3*y^10 - "
                "4*x^2*y^5 - 6*x^2*y^7 - 5*x^2*y^8 + 3*x^2*y^9 + 9*x^2*y^10 + "
                "5*x^2*y^11 - 4*x*y^7 - 8*x*y^8 - 11*x*y^9 - 7*x*y^10 + x*y^11 + "
                "2*x*y^12 + 2*x*y^13 + x*y^14 + 4*y^9 + 8*y^10 - y^11 - 10*y^12 - "
                "4*y^13 + 2*y^14 + y^15",
                1,
            ),
        ],
        [
            (
                "x^6 + 3*x^5*y - x^5*y^2 - 4*x^5*y^3 + x^5*y^4 - 3*x^4*y^3 - "
                "14*x^4*y^4 + 5*x^4*y^5 + 5*x^4*y^6 - 2*x^4*y^7 - 4*x^3*y^3 - "
                "2*x^3*y^5 + 8*x^3*y^6 + 21*x^3*y^7 - 9*x^3*y^8 - 2*x^3*y^9 + "
                "x^3*y^10 + 4*x^2*y^5 + 16*x^2*y^6 - 2*x^2*y^7 + 3*x^2*y^8 - "
                "7*x^2*y^9 - 11*x^2*y^10 + 5*x^2*y^11 + 4*x*y^7 - 8*x*y^8 - "
                "21*x*y^9 + 9*x*y^10 + 3*x*y^11 + 2*x*y^13 - x*y^14 - 4*y^9 - "
                "8*y^10 + 9*y^11 + 10*y^12 - 6*y^13 - 2*y^14 + y^15",
                1,
            ),
        ],
        [
            (
                "-36*x^10 + 72*x^10*y^2 - 48*x^10*y^3 + 78*x^9*y^2 + 168*x^9*y^3 - "
                "140*x^9*y^4 - 268*x^9*y^5 + 20*x^9*y^6 + 144*x^8*y^2 - "
                "690*x^8*y^4 + 198*x^8*y^5 - 132*x^8*y^6 + 456*x^8*y^7 + "
                "270*x^8*y^8 + 92*x^8*y^9 - 76*x^8*y^10 - 312*x^7*y^4 - "
                "672*x^7*y^5 + 1244*x^7*y^6 + 2416*x^7*y^7 - 152*x^7*y^8 - "
                "96*x^7*y^9 + 76*x^7*y^10 + 256*x^7*y^11 - 32*x^7*y^12 + "
                "1176*x^6*y^6 - 144*x^6*y^7 - 588*x^6*y^8 - 2912*x^6*y^9 - "
                "1724*x^6*y^10 - 880*x^6*y^11 + 772*x^6*y^12 - 364*x^6*y^13 - "
                "320*x^6*y^14 - 44*x^6*y^15 + 76*x^6*y^16 - 1848*x^5*y^8 - "
                "3488*x^5*y^9 + 1880*x^5*y^10 + 3504*x^5*y^11 - 1820*x^5*y^12 - "
                "3776*x^5*y^13 + 150*x^5*y^14 - 256*x^5*y^15 + 24*x^5*y^16 + "
                "12*x^5*y^17 + 12*x^5*y^18 - 768*x^4*y^8 + 480*x^4*y^9 + "
                "2264*x^4*y^10 + 4720*x^4*y^11 + 520*x^4*y^12 - 1940*x^4*y^13 - "
                "2720*x^4*y^14 + 3040*x^4*y^15 + 4946*x^4*y^16 + 518*x^4*y^17 - "
                "840*x^4*y^18 + 80*x^4*y^19 - 66*x^4*y^20 + 1472*x^3*y^10 + "
                "2944*x^3*y^11 - 3112*x^3*y^12 - 6624*x^3*y^13 + 3940*x^3*y^14 + "
                "8496*x^3*y^15 - 2200*x^3*y^16 - 3600*x^3*y^17 + 672*x^3*y^18 + "
                "904*x^3*y^19 - 56*x^3*y^20 - 16*x^3*y^21 - 16*x^3*y^22 - "
                "1216*x^2*y^12 - 3776*x^2*y^13 - 504*x^2*y^14 + 5456*x^2*y^15 + "
                "5328*x^2*y^16 - 6672*x^2*y^17 - 10092*x^2*y^18 + 2544*x^2*y^19 + "
                "6168*x^2*y^20 - 672*x^2*y^21 - 2032*x^2*y^22 - 36*x^2*y^23 + "
                "260*x^2*y^24 + 1088*x*y^14 + 2432*x*y^15 - 1832*x*y^16 - "
                "3936*x*y^17 + 730*x*y^18 + 904*x*y^19 - 136*x*y^20 + 444*x*y^21 + "
                "106*x*y^22 - 136*x*y^23 - 32*x*y^24 + 4*x*y^25 + 4*x*y^26 - "
                "576*y^16 - 2080*y^17 - 1608*y^18 + 3024*y^19 + 4618*y^20 - "
                "162*y^21 - 2268*y^22 - 632*y^23 - 60*y^24 + 138*y^25 + 212*y^26 - "
                "30*y^28",
                1,
            ),
        ],
    ),
    "merle2pair": (
        4,
        [("x^4 - 2*x^2*y^3 - 4*x*y^5 + y^6 - y^7", 1)],
        [],
        [("-4*x^3 + 4*x*y^3 + 4*y^5", 1)],
    ),
    "sec2": (
        4,
        [("x", 1)],
        [("x^2 - y^2", 1)],
        [],
    ),
}



def test_split_pins_cover_the_holomorphic_corpus():
    assert set(_SPLIT_PINS) == {n for n, fx in FIXTURES.items() if not fx.laurent}


@pytest.mark.parametrize("name", sorted(_SPLIT_PINS))
def test_multiplicity_split_matches_corpus_pins(name):
    conductor, *pins = _SPLIT_PINS[name]
    field = CycloField(conductor)
    f = parse_expression(FIXTURES[name].f, field)
    g = parse_expression(FIXTURES[name].g, field)
    for poly, pin in zip((f, g, jacobian(f, g)), pins):
        assert [(str(p), m) for p, m in multiplicity_split(poly)] == pin


_K12_COEFFS = [F(1), F(-1), F(2), F(1, 2), K12.zeta(), K12.zeta(2), -K12.zeta(3), K12.zeta(5)]


@st.composite
def _known_split(draw):
    """F = unit * y^e * prod A_i^i with each A_i a product of distinct linear
    factors, so that its normalized components are known; returns F and the
    expected split."""
    x, y = _vars(K12)
    one = BiPoly.constant(K12, 1)
    coeff = st.sampled_from(_K12_COEFFS)
    roots: list[BiPoly] = []
    for _ in range(draw(st.integers(1, 2))):
        r = sum((y**e * draw(coeff) for e in draw(st.sets(st.integers(1, 2), min_size=1))),
                BiPoly.zero(K12))
        if r not in roots:
            roots.append(r)
    factors = [x - r for r in roots]
    if draw(st.booleans()):
        # a root agreeing with roots[0] at y = 1 and y = 2: both points are unlucky
        factors.append(x - roots[0] - (y - one) * (y - one * 2) * draw(coeff))
    if draw(st.booleans()):
        # lc_x vanishes at y = 1; the factor stays primitive since 1 + c != 0
        factors.append(x - x * y - one - y * draw(coeff.filter(lambda c: c != -1)))
    mults = [draw(st.integers(1, 3)) for _ in factors]
    comps = {}
    for fac, m in zip(factors, mults):
        comps[m] = comps.get(m, one) * fac
    expected = sorted(comps.items())
    Fpoly = one
    for m, A in expected:
        Fpoly = Fpoly * A**m
    if [m for m, _ in expected] == [1]:
        return Fpoly, [(Fpoly, 1)]
    Fpoly = Fpoly * y ** draw(st.integers(0, 2)) * draw(coeff)
    return Fpoly, [(A, m) for m, A in expected]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_known_split())
def test_multiplicity_split_recovers_known_components(case):
    Fpoly, expected = case
    out = multiplicity_split(Fpoly)
    assert out == expected
    assert [str(p) for p, _ in out] == [str(p) for p, _ in expected]



_RATIONAL_COEFFS = [F(1), F(-1), F(2), F(-2), F(1, 2)]
# above sqrt(P/2) for the certificate prime P, so that a component with one
# of them does not lift from its image modulo P
_LARGE_RATIONAL_COEFFS = [F(1), F(-2), F(46349), F(-1, 46351)]


@st.composite
def _collision_products(draw):
    """x^e * y^k * prod (x - c1*y^e1 - c2*y^e2)^m over Q(zeta_12), e in 0..3,
    with coefficients small rationals, rationals that may not lift from
    their images modulo P, or not rational; small coefficients make roots
    meet at y = 1 or y = 2, and an extra factor may agree with the first
    root at both points."""
    x, y = _vars(K12)
    one = BiPoly.constant(K12, 1)
    coeff = st.sampled_from(draw(st.sampled_from(
        [_RATIONAL_COEFFS, _LARGE_RATIONAL_COEFFS, _K12_COEFFS])))
    roots = []
    for _ in range(draw(st.integers(1, 3))):
        exps = sorted(draw(st.sets(st.integers(1, 3), min_size=1, max_size=2)))
        r = sum((y**e * draw(coeff) for e in exps), BiPoly.zero(K12))
        if r not in roots:
            roots.append(r)
    if draw(st.booleans()):
        roots.append(roots[0] + (y - one) * (y - one * 2) * draw(coeff))
    P = x ** draw(st.integers(0, 3)) * y ** draw(st.integers(0, 2)) * draw(coeff)
    for r in roots:
        P = P * (x - r) ** draw(st.integers(1, 3))
    assume(P.x_degree() <= 9)
    return P


def _count_split_branches(monkeypatch) -> Counter:
    """Counts, from here on, each component that the split's modular pass
    lifts (and each lift that fails) and each column that its exact pass
    interpolates."""
    from polartree import npsolve

    seen: Counter = Counter()
    lift, interpolate = npsolve._lift_mod_prime, npsolve._interpolate

    def counted_lift(ys, values):
        cols = lift(ys, values)
        seen["modular"] += 1
        seen["not lifted"] += cols is None
        return cols

    def counted_interpolate(ys, values):
        seen["exact"] += 1
        return interpolate(ys, values)

    monkeypatch.setattr(npsolve, "_lift_mod_prime", counted_lift)
    monkeypatch.setattr(npsolve, "_interpolate", counted_interpolate)
    return seen


def test_multiplicity_split_matches_the_sampling_reference(monkeypatch):
    seen = _count_split_branches(monkeypatch)
    exact_rational = 0

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(_collision_products())
    def check(P):
        nonlocal exact_rational
        before = seen["exact"]
        out = multiplicity_split(P)
        want = kernel_references.split(P)
        assert out == want
        assert [(str(A), m) for A, m in out] == [(str(A), m) for A, m in want]
        if all(c.is_rational() for c in P.terms.values()) and seen["exact"] > before:
            exact_rational += 1

    check()
    # both passes ran, and the exact one also for rational input whose
    # components did not lift
    assert seen["modular"] > seen["not lifted"] > 0
    assert seen["exact"] > 0 and exact_rational > 0


@pytest.mark.parametrize("name", ["ex91", "ex91-second"])
def test_repeated_jacobian_split_runs_no_exact_decomposition(monkeypatch, name):
    from polartree import exactalg, npsolve

    calls = []

    def counted(p):
        calls.append(p)
        return squarefree_decompose(p)

    squarefree_decompose = npsolve.squarefree_decompose
    monkeypatch.setattr(npsolve, "squarefree_decompose", counted)
    seen = _count_split_branches(monkeypatch)
    conductor, *pins = _SPLIT_PINS[name]
    field = CycloField(conductor)
    f = parse_expression(FIXTURES[name].f, field)
    g = parse_expression(FIXTURES[name].g, field)
    out = [(str(p), m) for p, m in multiplicity_split(jacobian(f, g))]
    assert out == pins[2] and [m for _, m in out] == [1, 2]
    # one candidate, its two components lifted modulo P; the only
    # decomposition over the field is the certificate's, which the prime
    # settles without Yun
    assert (seen["modular"], seen["not lifted"], seen["exact"]) == (2, 0, 0)
    assert len(calls) == 1 and exactalg._squarefree_mod_prime(calls[0])


def test_split_candidate_the_certificate_rejects_takes_the_exact_pass(monkeypatch):
    from polartree import exactalg

    seen = _count_split_branches(monkeypatch)
    lifted = []
    rational_mod = exactalg._rational_mod

    def one_wrong(u, P):
        lifted.append(u)
        c = rational_mod(u, P)
        return c + 1 if len(lifted) == 1 else c

    monkeypatch.setattr(exactalg, "_rational_mod", one_wrong)
    x, y = _vars(K4)
    P = (x - y**2) ** 2 * (x * y + y - BiPoly.constant(K4, 1)) * 3
    out = multiplicity_split(P)
    assert out == kernel_references.split(P)
    assert [(str(A), m) for A, m in out] == [("x*y - 1 + y", 1), ("x - y^2", 2)]
    assert seen["modular"] >= 1 and seen["not lifted"] == 0 and seen["exact"] > 0
    # with the true reconstruction the modular candidate is certified
    monkeypatch.setattr(exactalg, "_rational_mod", rational_mod)
    seen.clear()
    assert multiplicity_split(P) == out and seen["exact"] == 0


def test_squarefree_rational_split_runs_no_exact_decomposition(monkeypatch):
    from polartree import npsolve

    calls = []

    def counted(p):
        calls.append(p)
        return squarefree_decompose(p)

    squarefree_decompose = npsolve.squarefree_decompose
    monkeypatch.setattr(npsolve, "squarefree_decompose", counted)
    x, y = _vars(K4)
    # roots 1, 1, 2 at y = 1 and 2, 4, 4 at y = 2: both points are unlucky
    P = (x - y) * (x - y**2) * (x - y * 2)
    assert multiplicity_split(P) == [(P, 1)]
    # x^2 is divided out; the squarefree rest is normalized, x joins as (x, 2)
    assert [(str(A), m) for A, m in multiplicity_split(P * x**2 * y * 3)] == [
        ("x^3 - 3*x^2*y - x^2*y^2 + 2*x*y^2 + 3*x*y^3 - 2*y^4", 1), ("x", 2)]
    assert calls == []
    assert multiplicity_split(P * x**2) == kernel_references.split(P * x**2)

def test_split_certificate_rejects_wrong_candidates():
    from polartree.npsolve import _certified

    x, y = _vars(K4)
    G = (x - y) ** 2 * (x + y)
    assert _certified(G, [(x + y, 1), (x - y, 2)], 1)
    # wrong multiplicities: G * lc_x(P) != P * lc_x(G)
    assert not _certified(G, [(x - y, 1), (x + y, 2)], 1)
    # right product, but the components are not squarefree
    assert not _certified(G, [(G, 1)], 1)
    # y = 1 is a zero of lc_x(prod A_i), so it certifies nothing
    assert not _certified(G * (x * y - x + y), [(x + y, 1), (x - y, 2), (x * y - x + y, 1)], 1)


def test_multiplicity_sum_matches_x_order():
    rng = random.Random(5)
    x, y = _vars(K4)
    for _ in range(10):
        f = BiPoly.constant(K4, 1)
        for _ in range(rng.randint(1, 3)):
            lin = x - y ** rng.randint(1, 3) * rng.randint(-2, 2)
            f = f * lin ** rng.randint(1, 2)
        out = expand_roots(f, F(12))
        assert out.total_count() == out.x_order


def test_conjugation_closure_of_root_set():
    x, y = _vars(K12)
    out = expand_roots(x**3 - y**4, F(10))
    D = 3
    series = [r.series for r in out.roots]
    for k in range(D):
        for s in series:
            img = kernel_references.conjugate_series(s, k, D)
            assert any(img == t for t in series)


@st.composite
def _binomial_products(draw):
    """A squarefree product of distinct x^k - c*y^m [+ tail] over Q(zeta_12),
    c a rational times a root of unity, with its k-th roots in the field."""
    x, y = _vars(K12)
    P = BiPoly.constant(K12, 1)
    for _ in range(draw(st.integers(1, 2))):
        k = draw(st.sampled_from([1, 2, 3, 4]))
        m = draw(st.integers(1, 7))
        root = K12.zeta(draw(st.integers(0, 11))) * draw(st.sampled_from([1, -1, 2, F(1, 2), 3]))
        tail = draw(st.sampled_from([BiPoly.zero(K12), y ** (m + 1), x * y**m, y ** (m + 2) * 2]))
        P = P * (x**k - y**m * root**k + tail)
    assume(multiplicity_split(P) == [(P, 1)])
    return P, draw(st.sampled_from([F(3), F(4), F(9, 2)]))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_binomial_products())
def test_resolved_roots_carry_an_order_certificate(case):
    # s = x* + O(y^T) with branches 1 is the one root of F past its exact
    # prefix p below T, apart from p itself when p is an exact root.  So
    # ord F(p) = ord F_x(x*) + ord(p - x*) and ord F_x(p) = ord F_x(x*), and
    # the gap is at least T.  This reads F alone, not the expander's
    # working polynomials
    P, target = case
    try:
        out = expand_roots(P, target)
    except NeedsLargerField:
        assume(False)
    exact = [r.series for r in out.roots if r.series.trunc is INF]
    for r in out.roots:
        if r.coeff_poly is not None or r.branches != 1:
            continue
        assert r.multiplicity == 1
        s = r.series
        if s.trunc is INF:
            assert vanishes_along(P, s)
            continue
        p = PuiseuxSeries(K12, s.terms, INF)
        order = order_along_arc(P, p)
        if order is INF:
            assert p in exact, str(s)
        else:
            assert order - order_along_arc(P.diff_x(), p) >= s.trunc, str(s)


def test_truncation_budget_cap(monkeypatch):
    from polartree import TruncationBudgetExceeded, npsolve

    monkeypatch.setattr(npsolve, "MAX_STAGES", 0)
    x, y = _vars(K4)
    with pytest.raises(TruncationBudgetExceeded):
        expand_roots(x - y, F(10))
