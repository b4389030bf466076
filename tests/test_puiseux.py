"""Series contact orders, arc reads, cut arcs, and the conjugation reference."""

import random
from fractions import Fraction as F

import pytest

import kernel_references
from kernel_references import conjugate_series
from polartree import (
    BiPoly,
    CycloField,
    ExpandedRoot,
    INF,
    PuiseuxSeries,
    TruncationTooShort,
    contact_order,
    order_along_arc,
)
from polartree.puiseux import vanishes_along

K4 = CycloField(4)
K12 = CycloField(12)


def S(*terms, field=K4, trunc=INF):
    return PuiseuxSeries(field, [(F(e) if not isinstance(e, F) else e, c) for e, c in terms], trunc)


def test_contact_simple():
    assert contact_order(S((1, 1)), S((1, -1))) == 1


def test_contact_middle_roots():
    # the two middle roots of the three-factor pair share terms up to the
    # second exponent, so their contact is the higher one
    e, E, A = 1, 2, 1
    a = S((e + 1, 1), (E + 1, A))
    b = S((e + 1, 1), (E + 1, -A))
    assert contact_order(a, b) == E + 1


def test_contact_equal_series():
    a = S((1, 1), (2, 3))
    assert contact_order(a, a) is INF


def test_contact_indeterminate():
    a = S((1, 1), trunc=F(3))
    b = S((1, 1), trunc=F(2))
    with pytest.raises(TruncationTooShort):
        contact_order(a, b)


def test_contact_ultrametric_on_fixture_triples():
    roots = [
        S((1, -1)),
        S((2, 1), (3, -1)),
        S((2, -1), (3, -1)),
        S((1, 1)),
        S((2, 1), (3, 1)),
        S((2, -1), (3, 1)),
    ]
    for a in roots:
        for b in roots:
            for c in roots:
                if a is b or b is c or a is c:
                    continue
                oac = contact_order(a, c)
                oab = contact_order(a, b)
                obc = contact_order(b, c)
                m = min(oab, obc)
                assert (oac is INF) or oac >= m
    for a in roots:
        for b in roots:
            if a is not b:
                assert contact_order(a, b) == contact_order(b, a)


def test_root_reads_take_the_difference_at_the_first_differing_term():
    root = ExpandedRoot(S((1, 1), (2, 3)), 1)
    assert root.coefficient_relative(S((1, 1), (2, 1)), F(2)) == ("coeff", K4.rational(2))
    assert root.coefficient_relative(S((1, 1)), F(2)) == ("coeff", K4.rational(3))
    assert root.coefficient_relative(S((1, 1), (2, 3)), F(2)) == ("coeff", K4.zero)
    assert root.coefficient_relative(S((1, 1), (3, 1)), F(3)) == ("below", F(2))
    assert root.contact_with(S((1, 1), (2, 3), (4, 1))) == 4
    assert root.contact_with(S((1, 1), (2, 3))) is INF
    with pytest.raises(TruncationTooShort,
                       match=r"^contact order unresolved: series agree up to O\(y\^2\)$"):
        root.contact_with(S((1, 1), trunc=F(2)))


def test_order_along_arc_examples():
    x = BiPoly.variable(K4, "x")
    y = BiPoly.variable(K4, "y")
    assert order_along_arc(x * x - y * y, S((1, F(1, 2)))) == 2
    assert order_along_arc(x**3 - y**4, S((2, 1))) == 4
    # exact root gives infinite order
    assert order_along_arc(x * x - y * y, S((1, 1))) is INF


def test_order_along_arc_truncation_guard():
    x = BiPoly.variable(K4, "x")
    y = BiPoly.variable(K4, "y")
    with pytest.raises(TruncationTooShort):
        order_along_arc(x * x - y * y, S((1, 1), trunc=F(5)))


def test_vanishes_along_refuses_a_truncated_arc():
    # x - y is zero along the known part of y + O(y^2), but its tail is unknown
    x = BiPoly.variable(K4, "x")
    y = BiPoly.variable(K4, "y")
    with pytest.raises(TruncationTooShort, match=r"O\(y\^2\)"):
        vanishes_along(x - y, S((1, 1), trunc=F(2)))


def test_order_along_generic_arc():
    # the three-factor germ has order 3 along a generic line through 0
    x = BiPoly.variable(K4, "x")
    y = BiPoly.variable(K4, "y")
    f = (x + y) * (x - y**2 + y**3) * (x + y**2 + y**3)
    e, cert = kernel_references.generic_arc_order(f, PuiseuxSeries.zero(K4), F(1))
    assert e == 3
    assert not cert.is_zero()
    # the certificate vanishes exactly at the growth points hit by f's roots
    assert cert.evaluate(K4.zero).is_zero()
    assert cert.evaluate(K4.rational(-1)).is_zero()
    assert not cert.evaluate(K4.rational(2)).is_zero()
    assert order_along_arc(f, S((1, 2))) == 3


def test_order_multiplicative():
    x = BiPoly.variable(K4, "x")
    y = BiPoly.variable(K4, "y")
    F1 = x * x - y**3
    G1 = x + y
    xi = S((1, 3), (2, 1))
    assert order_along_arc(F1 * G1, xi) == order_along_arc(F1, xi) + order_along_arc(G1, xi)


def test_conjugate_identity():
    a = PuiseuxSeries(K12, [(F(4, 3), K12.one), (F(5, 3), K12.rational(2))])
    assert conjugate_series(a, 0, 3) == a


def test_conjugate_cusp_root():
    a = PuiseuxSeries(K12, [(F(4, 3), K12.one)])
    out = conjugate_series(a, 1, 3)
    assert out.terms[0][1] == K12.zeta_of_order(3)


def test_conjugate_composition_and_contact_preservation():
    rng = random.Random(3)
    D = 6
    for _ in range(10):
        terms_a = sorted({F(rng.randint(1, 9), D) for _ in range(3)})
        terms_b = sorted({F(rng.randint(1, 9), D) for _ in range(3)})
        a = PuiseuxSeries(K12, [(e, K12.rational(rng.randint(1, 4))) for e in terms_a])
        b = PuiseuxSeries(K12, [(e, K12.rational(rng.randint(1, 4))) for e in terms_b])
        j, k = rng.randrange(D), rng.randrange(D)
        lhs = conjugate_series(conjugate_series(a, j, D), k, D)
        assert lhs == conjugate_series(a, (j + k) % D, D)
        o1 = contact_order(a, b)
        o2 = contact_order(conjugate_series(a, j, D), conjugate_series(b, j, D))
        assert o1 == o2


def test_conjugate_needs_field():
    from polartree import FieldTooSmall

    a = PuiseuxSeries(K4, [(F(4, 3), K4.one)])
    with pytest.raises(FieldTooSmall):
        conjugate_series(a, 1, 3)


def _cut_arc(xi, tree):
    """An arc cut where it leaves the tree, lambda_B + a*y^h(B), from its
    trace, as ``factorrep._truncation_product`` cuts each polar root; a root
    of the modelled pair is returned unchanged."""
    if any(info.series == xi for info in tree.roots.values()):
        return xi
    trace = tree.trace_arc(ExpandedRoot(xi, 1))
    if trace.is_root:
        return xi
    bar = tree.bars[trace.leave_bar_id]
    return bar.prefix + PuiseuxSeries(xi.field, [(bar.height, trace.leave_point)], INF)


def test_truncate_relative_roots_unchanged(run_fixture):
    run = run_fixture("ex82-prime", field=12)
    root = next(iter(run.tree.roots.values())).series
    assert _cut_arc(root, run.tree) == root


def test_truncate_relative_polar_root(run_fixture):
    # polar roots of the perturbed cusp leave at the double zero of the bar:
    # both truncations are the zero arc
    run = run_fixture("ex82-prime", field=12)
    for rec in run.oracle.records:
        cut = _cut_arc(rec.series, run.tree)
        assert cut == PuiseuxSeries.zero(K12)


def test_truncate_relative_ground_leave(run_fixture):
    run = run_fixture("sec2")
    # an arc leaving the height-1 bar at a fresh point keeps prefix + point
    arc = S((1, 5), (2, 7))
    assert _cut_arc(arc, run.tree) == S((1, 5))


def test_truncate_relative_short_arc(run_fixture):
    # 5*y + O(y) keeps no term: it is O(y), which cannot tell its
    # coefficient at the height-1 bar where it would leave
    run = run_fixture("sec2")
    arc = S((1, 5), trunc=F(1))
    with pytest.raises(TruncationTooShort, match="need height 1"):
        _cut_arc(arc, run.tree)
    assert _cut_arc(S((1, 5), trunc=F(2)), run.tree) == S((1, 5))


def test_series_rendering():
    s = PuiseuxSeries(K4, [(F(3, 2), K4.rational(F(1, 2)))], F(4))
    assert str(s) == "1/2*y^(3/2) + O(y^4)"
    assert str(PuiseuxSeries.zero(K4)) == "0"
