"""The Jacobian oracle: expansion, placement, verification."""

import importlib.util
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

import kernel_references
from polartree import (
    FIXTURES,
    BiPoly,
    CycloField,
    expand_roots,
    jacobian,
    verify,
)
from polartree.jacoracle import _order_identity_holds, climbers_at, is_bounded_by

K4 = CycloField(4)


def _vars(field=K4):
    return BiPoly.variable(field, "x"), BiPoly.variable(field, "y")


def _bar_at(tree, h):
    return [b for b in tree.finite_bars() if b.height == h][0]


def test_jacobian_constant():
    x, y = _vars()
    assert str(jacobian(x, y)) == "-1"


def test_jacobian_one_function_reduces_to_x_derivative():
    x, y = _vars()
    f = x**3 - y**4
    assert jacobian(f, y) == -f.diff_x()


def test_jacobian_ex91_product_form():
    x, y = _vars()
    G = x * x * y - x * y**3 * F(2, 3) + y**5 * F(1, 5)
    f = x * x - G * G
    g = x * 2 - G * 2
    J = jacobian(f, x - G * 2)
    target = (x * 2 - G) * (x - y * y) ** 2 * 2
    assert kernel_references.equal_up_to_constant(J, target)


def test_polar_roots_ex11_counts(run_fixture):
    run = run_fixture("ex11")
    tree = run.tree
    b0 = _bar_at(tree, F(1))
    b1 = _bar_at(tree, F(3))
    located, pooled = climbers_at(run.oracle.records, b0)
    assert located.get(tree.field.zero, 0) + pooled == 4
    loc1, p1 = climbers_at(run.oracle.records, b1)
    assert sum(loc1.values()) + p1 == 2
    bounded = sum(
        r.count for r in run.oracle.records if is_bounded_by(r, b1)
    )
    assert bounded == 2


def test_polar_roots_ex11_neg_counts(run_fixture):
    run = run_fixture("ex11-neg")
    tree = run.tree
    b1 = _bar_at(tree, F(3))
    loc1, p1 = climbers_at(run.oracle.records, b1)
    assert sum(loc1.values()) + p1 == 1
    bounded = sum(r.count for r in run.oracle.records if is_bounded_by(r, b1))
    assert bounded == 3
    # the climber continues at the zero point and its next coefficient is 7/32
    climber = [r for r in run.oracle.records
               if not is_bounded_by(r, b1)][0]
    assert climber.series.coefficient_at(F(3)).is_zero()
    assert climber.series.coefficient_at(F(4)) == tree.field.rational(F(7, 32))


def test_polar_roots_degenerate_parameters(run_fixture):
    # at the boundary E = 2e the four polar roots all reach order e+1, so
    # every one of them climbs the middle bar (contrast with ex11)
    run = run_fixture("ex11-degenerate")
    tree = run.tree
    b1 = _bar_at(tree, F(2))
    loc1, p1 = climbers_at(run.oracle.records, b1)
    assert sum(loc1.values()) + p1 == 4


def test_polar_roots_ex61_orders(run_fixture):
    run = run_fixture("ex61")
    orders = sorted(
        kernel_references.root_order(r) for r in run.oracle.records for _ in range(r.count)
    )
    assert orders == [F(1), F(5), F(5), F(7)]


def test_all_fixture_verifications_pass(run_fixture):
    for name in (
        "sec2", "ex11", "ex11-neg", "ex11-degenerate", "ex61", "ex61-e9",
        "ex82", "ex82-prime", "ex82-second", "ex91", "ex91-second",
        "merle2pair", "fig2",
    ):
        run = run_fixture(name)
        assert run.verification.passed, (
            name, [c.render() for c in run.verification.failures()]
        )


def test_verify_flags_injected_error(run_fixture):
    # a deliberately off-by-one prediction must surface with its bar named
    import dataclasses

    run = run_fixture("ex11")
    tree = run.tree
    b0 = _bar_at(tree, F(1))
    ana = run.analyses[b0.id]
    broken = dict(run.analyses)
    wrong = dict(ana.predicted)
    wrong[tree.field.zero] += 1
    broken[b0.id] = dataclasses.replace(
        ana, predicted=wrong, predicted_total=ana.predicted_total + 1
    )
    report = verify(tree, broken, run.oracle, run.f, run.g)
    assert not report.passed
    fails = report.failures()
    assert any(c.bar_id == b0.id and c.point == "0" for c in fails)


def test_gap_property_zero_violations(run_fixture):
    for name in ("ex11", "ex61", "merle2pair", "fig2"):
        run = run_fixture(name)
        for c in run.verification.comparisons:
            if c.family == "gap":
                assert c.observed == 0


def test_count_conservation(run_fixture):
    for name in ("ex11", "ex61", "fig2", "ex91"):
        run = run_fixture(name)
        assert sum(r.count for r in run.oracle.records) == run.oracle.x_order


def test_one_function_leave_counts(run_fixture):
    # with the second germ equal to the axis, every bar with l trunks sheds
    # exactly l - 1 polar roots
    run = run_fixture("merle2pair")
    tree = run.tree
    for bar in tree.finite_bars():
        if bar.id == tree.ground_id:
            continue
        leaving = sum(
            r.count for r in run.oracle.records
            if r.trace.leave_bar_id == bar.id
        )
        assert leaving == len(bar.trunk_ids) - 1


def test_climb_path_heights_increase(run_fixture):
    run = run_fixture("fig2")
    tree = run.tree
    for r in run.oracle.records:
        hs = [tree.bars[b].height for b, _z in r.trace.path]
        assert hs == sorted(hs)


def _identity_check(run, bar, sample_z):
    return _order_identity_holds(run.oracle.jac, run.f, run.g, run.tree, bar,
                                 run.analyses[bar.id], sample_z)


def test_identity_check_worked_example(run_fixture):
    # f = x, g = x^2 - y^2 at z = 2: orders 1 + 2 - 1 - 1 = 1 = order of 2y
    run = run_fixture("sec2")
    bar = _bar_at(run.tree, F(1))
    assert _identity_check(run, bar, run.tree.field.rational(2))


def test_identity_check_rejects_marked_points(run_fixture):
    run = run_fixture("sec2")
    bar = _bar_at(run.tree, F(1))
    with pytest.raises(ValueError):
        _identity_check(run, bar, run.tree.field.one)


def test_identity_check_jump_at_pure_zero(run_fixture):
    # at a zero of the bar's rational function the Jacobian order strictly
    # exceeds the generic bookkeeping value
    run = run_fixture("merle2pair")
    tree = run.tree
    bar = _bar_at(tree, F(3, 2))
    zero = list(run.analyses[bar.id].mero_zeros)[0]
    assert _identity_check(run, bar, zero)


def test_bounded_records_carry_leave_heights(run_fixture):
    run = run_fixture("ex91")
    bounded = [r for r in run.oracle.records if r.trace.bounded_by]
    assert len(bounded) == 1 and bounded[0].count == 2
    assert bounded[0].trace.leave_height == 2


def test_one_jacobian_per_run(monkeypatch):
    import polartree.jacoracle as jacoracle
    from polartree import analyze_pair, get_fixture

    calls = []
    real = jacoracle.jacobian

    def counted(f, g):
        calls.append(1)
        return real(f, g)

    monkeypatch.setattr(jacoracle, "jacobian", counted)
    fx = get_fixture("fig2")
    assert analyze_pair(fx.f, fx.g).verification.passed
    assert len(calls) == 1


CORPUS = sorted(name for name, fx in FIXTURES.items() if not fx.laurent)


def test_order_identity_checked_on_every_noncollinear_bar(run_fixture):
    for name in CORPUS:
        run = run_fixture(name)
        checks = sum(
            c.family == "order-identity" for c in run.verification.comparisons
        )
        noncollinear = sum(
            not run.analyses[b.id].collinear for b in run.tree.finite_bars()
        )
        assert checks == noncollinear, name


def _benchmark_pairs(workload: str, index: int):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [(f, g) for _id, f, g in workloads.pool_set(workload, index, FIXTURES)]


def _replaced(record, bar):
    """Place a record against one bar from scratch, by series subtraction.

    Returns ((climbs, point), coefficient polynomial at an unresolved climb).
    """
    rel = record.coefficient_relative(bar.prefix, bar.height)
    if rel[0] == "below":
        return (False, None), None
    if rel[0] == "coeff":
        return (True, rel[1]), None
    return (True, None), rel[1]


def test_trace_placement_matches_replacement(run_pair):
    # the oracle places each polar root once, in Tree.trace_arc; every check
    # reads that trace, so it must agree with placing the record against
    # each bar independently
    pairs = [(FIXTURES[name].f, FIXTURES[name].g) for name in CORPUS]
    pairs += _benchmark_pairs("growing", 4) + _benchmark_pairs("ramified", 4)
    unresolved = 0
    for f, g in pairs:
        run = run_pair(f, g)
        for r in run.oracle.records:
            for bar in run.tree.finite_bars():
                observed, poly = _replaced(r, bar)
                assert r.trace.climb(bar.id) == observed, (f, g, bar.id)
                if observed == (True, None):
                    assert r.trace.leave_bar_id == bar.id
                    assert r.trace.leave_poly == poly
                    unresolved += 1
    assert unresolved >= 20  # the sets were chosen for their unresolved bundles


def test_records_are_the_roots_they_place(run_fixture):
    # a record is the expanded root itself, with its trace added: stripping
    # the trace gives back the expansion, root for root and in order
    for name in CORPUS:
        run = run_fixture(name)
        candidates = []
        for bar in run.tree.finite_bars():
            for z, _trunk in run.tree.growth_points(bar):
                if z not in candidates:
                    candidates.append(z)
        expansion = expand_roots(run.oracle.jac, run.oracle.truncation,
                                 extra_candidates=candidates)
        assert all(r.trace is not None for r in run.oracle.records), name
        assert [replace(r, trace=None) for r in run.oracle.records] == expansion.roots, name
