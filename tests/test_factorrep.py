"""Factor groups, truncations, intersection numbers, comparators, reductions."""

from fractions import Fraction as F

import pytest
from kernel_references import series_shift

from polartree import (
    BiPoly,
    CycloField,
    InputError,
    NoGenericFound,
    SNotLargeEnough,
    compare_pairs,
    expand_roots,
    generic_coordinates,
    get_fixture,
    meromorphic_reduce,
    parse_expression,
)

K4 = CycloField(4)


def _noncollinear_classes(run):
    return [c for c in run.factors.classes if not c.collinear]


def test_groups_cusp_family(run_fixture):
    # single class at height 4/3; both polar roots leave there; the
    # truncation is always the same even though the splitting differs
    for name, shape in (
        ("ex82", "x^2"),
        ("ex82-prime", "x^2"),
        ("ex82-second", "x^2"),
    ):
        run = run_fixture(name, field=12)
        ncl = [c for c in _noncollinear_classes(run) if c.p_order]
        assert len(ncl) == 1
        cls = ncl[0]
        assert cls.height == F(4, 3)
        assert cls.p_order == 2 and cls.q_order == 0
        assert str(cls.p_truncation) == shape
        assert run.factors.complete


def test_groups_ex61_bounded_class(run_fixture):
    run = run_fixture("ex61")
    by_height = {c.height: c for c in _noncollinear_classes(run)}
    assert by_height[F(1)].q_order == 3      # three roots bounded past the hole
    assert by_height[F(1)].p_order == 0
    assert by_height[F(9)].p_order == 1      # one leaves at the top zero
    assert run.factors.q_ground_order == 0
    assert run.factors.complete


def test_groups_ex11_all_bounded_at_first_bar(run_fixture):
    run = run_fixture("ex11")
    by_height = {c.height: c for c in _noncollinear_classes(run)}
    assert by_height[F(1)].q_order == 4
    assert sum(c.p_order for c in _noncollinear_classes(run)) == 0
    assert run.factors.complete


def test_groups_ground_bundle_ex91(run_fixture):
    run = run_fixture("ex91")
    assert run.factors.q_ground_order == 2
    total = sum(c.p_order + c.q_order for c in _noncollinear_classes(run))
    assert total + run.factors.q_ground_order == run.oracle.x_order
    assert run.factors.complete


def test_intersections_merle_cusp(run_fixture):
    # irreducible cusp against the axis: nu_f * (p1 - 1) = 4 * 2
    run = run_fixture("cusp34", field=12)
    cls = [c for c in _noncollinear_classes(run) if c.p_order][0]
    assert cls.i_f_formula == 8 == cls.i_f_direct == cls.i_f_trunc
    assert cls.i_g_formula == cls.p_order == 2
    assert cls.i_c_formula == 10


def test_intersections_two_pair(run_fixture):
    # Merle's product formula at both characteristic heights:
    # nu(class1) * (p1 - 1) = 6, nu(class2) * (p2 - 1) * p1 = 13
    run = run_fixture("merle2pair")
    by_height = {c.height: c for c in _noncollinear_classes(run)}
    c1 = by_height[F(3, 2)]
    c2 = by_height[F(7, 4)]
    assert c1.nu_f == 6 and c1.m_star == 1
    assert c1.i_f_formula == 6 == c1.i_f_direct == c1.i_f_trunc
    assert c2.nu_f == F(13, 2) and c2.m_star == 2
    assert c2.i_f_formula == 13 == c2.i_f_direct == c2.i_f_trunc


THREE_PAIR_GERM = (
    "x^8 - 4*x^6*y^3 - 8*x^5*y^5 + 6*x^4*y^6 - 26*x^4*y^7 + 16*x^3*y^8 "
    "- 24*x^3*y^9 - 4*x^2*y^9 + 36*x^2*y^10 - 20*x^2*y^11 - 8*x*y^11 "
    "+ 16*x*y^12 - 8*x*y^13 + y^12 + 6*y^13 + 21*y^14 - y^15"
)


def test_intersections_three_pair_germ(run_pair):
    # irreducible germ with characteristic exponents 3/2, 7/4, 15/8
    # (ramification 8, forcing a field restart); product-formula values
    # frozen from the characteristic data: 12*1, 13*1*2, 53/4*1*2*2
    run = run_pair(THREE_PAIR_GERM, "y")
    assert run.field.conductor == 8 and run.tree.ram == 8
    by_height = {c.height: c for c in _noncollinear_classes(run)}
    expected = {F(3, 2): (1, 12), F(7, 4): (2, 26), F(15, 8): (4, 53)}
    for h, (nbars, i_f) in expected.items():
        cls = by_height[h]
        assert len(cls.bar_ids) == nbars
        assert cls.i_f_formula == i_f == cls.i_f_direct == cls.i_f_trunc
        assert cls.p_order == cls.m_star
    assert run.verification.passed and run.factors.complete


def test_intersections_identical_across_equivalent_triple(run_fixture):
    rows = []
    for name in ("ex82", "ex82-prime", "ex82-second"):
        run = run_fixture(name, field=12)
        cls = [c for c in _noncollinear_classes(run) if c.p_order][0]
        rows.append((cls.i_f_formula, cls.i_g_formula, cls.i_c_formula,
                     str(cls.p_truncation), cls.p_order))
    assert rows[0] == rows[1] == rows[2]


def test_empty_group_zero_intersections(run_fixture):
    run = run_fixture("ex11")
    for cls in _noncollinear_classes(run):
        if cls.p_order == 0:
            assert cls.i_f_formula == 0 == cls.i_f_direct
            assert str(cls.p_truncation) == "1"


def test_addendum_size_bound(run_fixture):
    # group size respects the per-class pure-zero budget
    for name in ("ex82-prime", "merle2pair", "ex61", "fig2"):
        run = run_fixture(name, field=12 if name.startswith("ex82") else None)
        for cls in _noncollinear_classes(run):
            assert cls.p_order <= cls.m_star or cls.m_star is None


def test_compare_self(run_fixture):
    run = run_fixture("ex11")
    v = compare_pairs((run.tree, run.analyses), (run.tree, run.analyses))
    assert v.level == "mero_equivalent"


def test_compare_triple(run_fixture):
    runs = [run_fixture(n, field=12) for n in ("ex82", "ex82-prime", "ex82-second")]
    for i in range(3):
        for j in range(i + 1, 3):
            v = compare_pairs(
                (runs[i].tree, runs[i].analyses), (runs[j].tree, runs[j].analyses)
            )
            assert v.level in ("equivalent", "mero_equivalent")


def test_compare_ex61_variants_same_tree_different_leaves(run_fixture):
    run1 = run_fixture("ex61")
    run2 = run_fixture("ex61-e9")
    v = compare_pairs((run1.tree, run1.analyses), (run2.tree, run2.analyses))
    assert v.level in ("equivalent", "mero_equivalent")
    h1 = {c.height: c.class_id for c in _noncollinear_classes(run1)}
    h2 = {c.height: c.class_id for c in _noncollinear_classes(run2)}
    l1 = run1.factors.leave_data[h1[F(1)]]
    l2 = run2.factors.leave_data[h2[F(1)]]
    assert l1 == [(F(5), 2), (F(7), 1)]
    assert l2 == [(F(11, 2), 2), (F(6), 1)]
    assert l1 != l2


def test_mero_equivalent_pairs_share_leave_group_heights(run_fixture):
    # the leave-group (height, multiplicity) multisets per class are stable
    # under mero-equivalence - the bounded-group heights are exactly what
    # may differ (see the test above)
    pairs = (
        ("ex61", "ex61-e9", None),
        ("ex82", "ex82-prime", 12),
        ("ex82", "ex82-second", 12),
    )
    for a, b, field in pairs:
        opts = {"field": field} if field else {}
        run_a = run_fixture(a, **opts)
        run_b = run_fixture(b, **opts)
        v = compare_pairs((run_a.tree, run_a.analyses), (run_b.tree, run_b.analyses))
        assert v.level == "mero_equivalent"
        ha = {c.height: c.class_id for c in _noncollinear_classes(run_a)}
        hb = {c.height: c.class_id for c in _noncollinear_classes(run_b)}
        assert set(ha) == set(hb)
        for h in ha:
            assert (run_a.factors.p_leave_data[ha[h]]
                    == run_b.factors.p_leave_data[hb[h]])


def test_factor_orders_invariant_across_equivalent_pairs(run_fixture):
    run_a = run_fixture("ex61")
    run_b = run_fixture("ex61-e9")
    ha = {c.height: (c.p_order, c.q_order) for c in _noncollinear_classes(run_a)}
    hb = {c.height: (c.p_order, c.q_order) for c in _noncollinear_classes(run_b)}
    assert ha == hb
    assert run_a.factors.q_ground_order == run_b.factors.q_ground_order


def test_compare_inequivalent(run_fixture):
    run1 = run_fixture("sec2")
    run2 = run_fixture("ex11")
    v = compare_pairs((run1.tree, run1.analyses), (run2.tree, run2.analyses))
    assert v.level == "inequivalent" and v.witness


def test_theorem_f_partition_everywhere(run_fixture):
    for name in ("sec2", "ex11", "ex11-neg", "ex61", "ex61-e9", "ex91",
                 "ex91-second", "merle2pair", "fig2"):
        run = run_fixture(name)
        assert run.factors.complete
        total = run.factors.q_ground_order + sum(
            c.p_order + c.q_order for c in _noncollinear_classes(run)
        )
        assert total == run.oracle.x_order


def test_meromorphic_reduce_example():
    F_text, G_text = get_fixture("mero83").f, get_fixture("mero83").g
    Fm = parse_expression(F_text, K4, laurent=True)
    Gm = parse_expression(G_text, K4, laurent=True)
    red = meromorphic_reduce(Fm, Gm, 2)
    assert str(red.f_poly) == "x^4 - x^2*y^2 + y^8"
    assert str(red.g_poly) == "x^2 - x*y"
    assert (red.E1, red.E2) == (-8, -4)
    with pytest.raises(SNotLargeEnough):
        meromorphic_reduce(Fm, Gm, 0)


def _mero83_laurent():
    fx = get_fixture("mero83")
    return (parse_expression(fx.f, K4, laurent=True),
            parse_expression(fx.g, K4, laurent=True))


def test_meromorphic_reduce_auto_keeps_every_root():
    # s = 1 clears the negative exponents of mero83 but gives
    # x^4 - x^2 + y^4 and x^2 - x, whose roots +-1 and 1 have order zero
    Fm, Gm = _mero83_laurent()
    red = meromorphic_reduce(Fm, Gm, "auto")
    assert red.s == 2
    with pytest.raises(SNotLargeEnough, match="need s >= 2 so that every "
                                               "root has positive order"):
        meromorphic_reduce(Fm, Gm, 1)
    ef = expand_roots(red.f_poly, F(16))
    eg = expand_roots(red.g_poly, F(16))
    assert sum(r.multiplicity for r in ef.roots) == red.p == 4
    assert sum(r.multiplicity for r in eg.roots) == red.q == 2


def test_meromorphic_reduce_auto_s_for_a_single_tail():
    # x^3 - y^(-2): floor(2/3) + 1 = 1; x alone needs no shift
    red = meromorphic_reduce(parse_expression("x^3 - y^(-2)", K4, laurent=True),
                             parse_expression("x", K4, laurent=True), "auto")
    assert red.s == 1
    assert str(red.f_poly) == "x^3 - y"


def test_meromorphic_reduce_identity_when_already_polynomial():
    x = BiPoly.variable(K4, "x")
    y = BiPoly.variable(K4, "y")
    Fm = x**2 - y**3
    Gm = x - y
    red = meromorphic_reduce(Fm, Gm, "auto")
    assert red.s == 0 and red.E1 == 0 and red.E2 == 0
    assert red.f_poly.terms == Fm.terms and red.g_poly.terms == Gm.terms


def test_meromorphic_root_map():
    # x = y^s X: the roots x = y and x = 0 of the reduced g = x^2 - x*y are
    # the roots X = y^(-1) and X = 0 of the Laurent G = X^2 - y^(-1)*X
    from polartree.puiseux import vanishes_along

    Fm, Gm = _mero83_laurent()
    red = meromorphic_reduce(Fm, Gm, 2)
    roots = [r.series for r in expand_roots(red.g_poly, F(8)).roots]
    originals = [series_shift(xi, -red.s) for xi in roots]
    assert sorted(str(xi) for xi in originals) == ["0", "y^-1"]
    assert all(vanishes_along(Gm, xi) for xi in originals)
    assert [series_shift(xi, red.s) for xi in originals] == roots


def test_generic_coordinates_ex91(run_fixture):
    run = run_fixture("ex91")
    fs, gs, c, m = generic_coordinates(run.f, run.g)
    assert m == 3 and c.is_zero()
    run2 = run_fixture("ex91-second")
    _fs, _gs, c2, m2 = generic_coordinates(run2.f, run2.g)
    assert m2 == 5 and c2.is_zero()


def test_generic_coordinates_shears_tangent_input():
    x = BiPoly.variable(K4, "x")
    y = BiPoly.variable(K4, "y")
    f = y * y - x**3          # tangent to the x-axis; not mini-regular
    g = y - x * x
    fs, gs, c, m = generic_coordinates(f, g)
    assert not c.is_zero()
    from polartree.factorrep import is_mini_regular

    assert is_mini_regular(fs) and is_mini_regular(gs)


def test_generic_coordinates_budget():
    x = BiPoly.variable(K4, "x")
    y = BiPoly.variable(K4, "y")
    with pytest.raises((NoGenericFound, InputError)):
        generic_coordinates(y, y * x, budget=1)
