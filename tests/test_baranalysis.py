"""Per-bar orders, determinants, rational functions, counting predictions."""

from fractions import Fraction as F

import pytest

import kernel_references
from polartree import (
    NotApplicable,
    compute_nu,
    ground_residual,
    predict_C,
    total_via_basics,
    weeds,
)


def _bar_at(tree, h):
    return [b for b in tree.finite_bars() if b.height == h][0]


def test_nu_ground_bar_is_y_content(run_fixture):
    run = run_fixture("ex82", field=12)   # g = y carries E2 = 1
    ana = run.analyses[run.tree.ground_id]
    assert ana.nu_f == 0 and ana.nu_g == 1


def test_nu_values_ex11(run_fixture):
    # at (e, E) = (2, 3): the top bars carry E + e + 3 for both germs
    run = run_fixture("ex11")
    tree = run.tree
    for b in tree.finite_bars():
        if b.height == 4:
            assert run.analyses[b.id].nu_f == 3 + 2 + 3
            assert run.analyses[b.id].nu_g == 3 + 2 + 3
    b0 = _bar_at(tree, F(1))
    assert run.analyses[b0.id].nu_f == 3
    assert run.analyses[b0.id].nu_g == 3


def test_nu_matches_symbolic_generic_arc(run_fixture):
    for name in ("ex11", "ex61", "merle2pair", "fig2"):
        run = run_fixture(name)
        for bar in run.tree.finite_bars():
            ana = run.analyses[bar.id]
            for germ, nu in ((run.f, ana.nu_f), (run.g, ana.nu_g)):
                order, cert = kernel_references.generic_arc_order(germ, bar.prefix, bar.height)
                assert order == nu
                assert not cert.is_zero()


def test_mero_function_worked_example(run_fixture):
    # f = x, g = x^2 - y^2: the function is 2 over z(z^2-1)
    run = run_fixture("sec2")
    bar = _bar_at(run.tree, F(1))
    ana = run.analyses[bar.id]
    assert str(ana.mero_numerator) == "2"
    assert {str(z) for z in ana.noncollinear_points} == {"0", "1", "-1"}
    assert ana.mero_zeros == {} and ana.m == 0 and ana.m_star == 0
    assert ana.purely_noncollinear


def test_mero_function_ex61(run_fixture):
    # numerators -8 and -18 over the pole products (the source prints the
    # first one with a flipped sign; its own definition gives -8, see the
    # worked example above which pins the convention)
    run = run_fixture("ex61")
    b1 = _bar_at(run.tree, F(1))
    b2 = _bar_at(run.tree, F(8))
    a1, a2 = run.analyses[b1.id], run.analyses[b2.id]
    assert str(a1.mero_numerator) == "-8"
    assert {str(z) for z in a1.noncollinear_points} == {"1", "-1"}
    assert {str(z) for z in a1.collinear_points} == {"0"}
    assert str(a2.mero_numerator) == "-18"
    assert {str(z) for z in a2.noncollinear_points} == {"0", "1", "-1"}
    assert a2.collinear_points == ()


def test_mero_function_collinear_bar(run_fixture):
    run = run_fixture("ex11")
    b1 = _bar_at(run.tree, F(3))
    ana = run.analyses[b1.id]
    assert ana.collinear
    assert ana.mero_numerator.is_zero()


def test_classify_ex11_first_bar(run_fixture):
    run = run_fixture("ex11")
    ana = run.analyses[_bar_at(run.tree, F(1)).id]
    assert {str(z) for z in ana.collinear_points} == {"0"}
    assert {str(z) for z in ana.noncollinear_points} == {"1", "-1"}
    assert str(ana.mero_numerator) == "6"
    assert ana.m == 0


def test_invariants_nonoverlap_and_degree(run_fixture):
    for name in ("ex11", "ex61", "merle2pair", "fig2", "ex91"):
        run = run_fixture(name)
        for ana in run.analyses.values():
            if ana.collinear:
                continue
            assert not (set(ana.noncollinear_points) & set(ana.mero_zeros))
            assert ana.n >= ana.m + 1
            assert ana.predicted_total == ana.tau_total + ana.m - ana.n


def test_predict_T_ex11(run_fixture):
    run = run_fixture("ex11")
    tree = run.tree
    ana = run.analyses[_bar_at(tree, F(1)).id]
    assert ana.predicted == {tree.field.zero: 4}
    assert ana.mero_unresolved == 0 and ana.predicted_total == 4
    # the count theorem does not apply on the collinear bar
    middle = run.analyses[_bar_at(tree, F(3)).id]
    assert middle.collinear and middle.predicted is None


def test_predict_T_pure_trunk_rule(run_fixture):
    # a bar atop an [s,0] trunk with nonzero other order predicts s-1
    run = run_fixture("merle2pair")
    tree = run.tree
    b0 = _bar_at(tree, F(3, 2))
    ana = run.analyses[b0.id]
    parent = tree.trunks[b0.parent_trunk_id]
    assert parent.bimultiplicity == (4, 0) and ana.nu_g != 0
    assert ana.purely_noncollinear
    assert ana.predicted_total == 4 - 1


def test_postbar_certificate(run_fixture):
    run = run_fixture("merle2pair")
    tree = run.tree
    b0 = _bar_at(tree, F(3, 2))
    for z in run.analyses[b0.id].noncollinear_points:
        post = tree.postbar_at(b0, z)
        assert post is not None and post.is_finite()
        pa = run.analyses[post.id]
        assert not pa.collinear and pa.m + 1 == pa.n


def test_predict_C_values(run_fixture):
    run = run_fixture("ex61")
    tree = run.tree
    count, cover = predict_C(tree, run.analyses, _bar_at(tree, F(1)), tree.field.zero)
    assert count == 3 and len(cover) == 1
    run = run_fixture("ex11")
    tree = run.tree
    count, cover = predict_C(tree, run.analyses, _bar_at(tree, F(1)), tree.field.zero)
    assert count == 4 and len(cover) == 2


def test_weeds_values(run_fixture):
    run = run_fixture("ex11")
    tree = run.tree
    assert weeds(tree, run.analyses, _bar_at(tree, F(1))) == 4
    # purely non-collinear: weeds = zero count
    run = run_fixture("cusp34", field=12)
    tree = run.tree
    bar = _bar_at(tree, F(4, 3))
    assert run.analyses[bar.id].purely_noncollinear
    assert weeds(tree, run.analyses, bar) == run.analyses[bar.id].m == 2


def test_total_via_basics_agrees(run_fixture):
    for name in ("ex11", "ex61", "fig2", "merle2pair"):
        run = run_fixture(name)
        tree = run.tree
        for bar in tree.finite_bars():
            ana = run.analyses[bar.id]
            if ana.collinear:
                continue
            assert total_via_basics(tree, run.analyses, bar) == ana.predicted_total


def test_ground_residual_ex91(run_fixture):
    run = run_fixture("ex91")
    assert run.analyses[run.tree.ground_id].collinear
    assert ground_residual(run.tree, run.analyses, run.oracle.x_order) == 2
    run = run_fixture("ex91-second")
    assert ground_residual(run.tree, run.analyses, run.oracle.x_order) == 4


def test_ground_residual_not_applicable(run_fixture):
    # one-function case: the ground determinant is -p*E2, nonzero
    run = run_fixture("merle2pair")
    assert not run.analyses[run.tree.ground_id].collinear
    with pytest.raises(NotApplicable):
        ground_residual(run.tree, run.analyses, run.oracle.x_order)
    # and then the total count is p + q - 1
    assert run.analyses[run.tree.ground_id].predicted_total == 4 + 0 - 1
    assert sum(r.count for r in run.oracle.records) == 3


def test_delta_is_exact_rational(run_fixture):
    run = run_fixture("merle2pair")
    for ana in run.analyses.values():
        for d in ana.deltas.values():
            assert isinstance(d, F)


def test_nu_via_compute_nu_api(run_fixture):
    run = run_fixture("ex11")
    tree = run.tree
    bar = _bar_at(tree, F(1))
    assert compute_nu(tree, bar, "f") == run.analyses[bar.id].nu_f
    assert compute_nu(tree, bar, "g") == run.analyses[bar.id].nu_g
