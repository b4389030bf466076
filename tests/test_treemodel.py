"""Tree construction, navigation, covers, repairs, basics, conjugacy."""

from fractions import Fraction as F

import pytest

from polartree import (
    CycloField,
    INF,
    InputViolatesSimplicity,
    PuiseuxSeries,
    basics_of,
    build_tree,
    cover_of,
    render_tree,
    repair_of,
)

K4 = CycloField(4)


def S(*terms):
    return PuiseuxSeries(K4, [(F(e), c) for e, c in terms])


def _heights(tree):
    return sorted(b.height for b in tree.finite_bars())


def test_build_three_level_tree(run_fixture):
    # heights 1, e+1, E+1 (twice); main trunk [3,3]; first bar carries
    # trunks [1,0], [2,2], [0,1]
    run = run_fixture("ex11")
    tree = run.tree
    assert _heights(tree) == [F(0), F(1), F(3), F(4), F(4)]
    assert tree.p == 3 and tree.q == 3
    b0 = [b for b in tree.finite_bars() if b.height == 1][0]
    bims = sorted(t.bimultiplicity for _z, t in tree.growth_points(b0))
    assert bims == [(0, 1), (1, 0), (2, 2)]
    main = tree.trunks[tree.ground.trunk_ids[0]]
    assert main.bimultiplicity == (3, 3)


def test_build_degenerate_parameter_heights(run_fixture):
    # at (e, E) = (1, 2) the heights are 1, e+1 = 2, E+1 = 3 (twice)
    run = run_fixture("ex11-degenerate")
    assert _heights(run.tree) == [F(0), F(1), F(2), F(3), F(3)]


def test_build_single_root():
    tree = build_tree([S((1, 1))], [], 0, 0)
    assert tree.p == 1 and tree.q == 0
    assert len(tree.finite_bars()) == 1  # just the ground bar
    main = tree.trunks[tree.ground.trunk_ids[0]]
    assert main.bimultiplicity == (1, 0)
    top = tree.bars[main.top_bar_id]
    assert top.height is INF


def test_build_ex61_heights(run_fixture):
    run = run_fixture("ex61")
    assert _heights(run.tree) == [F(0), F(1), F(8), F(9)]


def test_duplicate_roots_rejected():
    with pytest.raises(InputViolatesSimplicity):
        build_tree([S((1, 1))], [S((1, 1))], 0, 0)


def test_cover_through_collinear_bar(run_fixture):
    # the cover of the collinear point on the first bar consists of the two
    # purely non-collinear bars above the middle bar
    run = run_fixture("ex11")
    tree, ana = run.tree, run.analyses
    b0 = [b for b in tree.finite_bars() if b.height == 1][0]
    cover = cover_of(tree, ana, b0, tree.field.zero)
    assert len(cover) == 2
    assert all(tree.bars[b].height == 4 for b in cover)
    assert all(not ana[b].collinear for b in cover)


def test_cover_direct_postbar(run_fixture):
    # ex61: the postbar at the collinear point is itself non-collinear
    run = run_fixture("ex61")
    tree, ana = run.tree, run.analyses
    b1 = [b for b in tree.finite_bars() if b.height == 1][0]
    cover = cover_of(tree, ana, b1, tree.field.zero)
    assert len(cover) == 1
    assert tree.bars[cover[0]].height == 8


def test_cover_bars_non_comparable(run_fixture):
    run = run_fixture("fig2")
    tree, ana = run.tree, run.analyses
    b0 = [b for b in tree.finite_bars() if b.height == 1][0]
    cover = cover_of(tree, ana, b0, tree.field.zero)
    assert len(cover) == 2
    for a in cover:
        for b in cover:
            if a == b:
                continue
            assert b not in [bb.id for bb in tree.bars_above(tree.bars[a])]


def test_repair_fig2_four_bars(run_fixture):
    run = run_fixture("fig2")
    tree, ana = run.tree, run.analyses
    b0 = [b for b in tree.finite_bars() if b.height == 1][0]
    rep = repair_of(tree, ana, b0)
    assert len(rep) == 4
    flags = sorted(
        (str(tree.bars[b].height), ana[b].collinear) for b in rep
    )
    # one collinear bar, the two cover bars, and the bar repairing the mixed
    # cover member's own collinear point
    assert sum(1 for _h, c in flags if c) == 1


def test_repair_ex11(run_fixture):
    run = run_fixture("ex11")
    tree, ana = run.tree, run.analyses
    b0 = [b for b in tree.finite_bars() if b.height == 1][0]
    rep = repair_of(tree, ana, b0)
    heights = sorted(tree.bars[b].height for b in rep)
    assert heights == [F(3), F(4), F(4)]


def test_repair_empty_for_purely_noncollinear(run_fixture):
    run = run_fixture("sec2")
    tree, ana = run.tree, run.analyses
    b = [bb for bb in tree.finite_bars() if bb.height == 1][0]
    assert repair_of(tree, ana, b) == set()


def test_basics(run_fixture):
    run = run_fixture("ex11")
    tree, ana = run.tree, run.analyses
    b0 = [b for b in tree.finite_bars() if b.height == 1][0]
    assert basics_of(tree, ana, b0) == [b0.id]
    run = run_fixture("fig2")
    tree, ana = run.tree, run.analyses
    b0 = [b for b in tree.finite_bars() if b.height == 1][0]
    bas = basics_of(tree, ana, b0)
    assert len(bas) == 3 and b0.id in bas


def test_conjugacy_all_singletons_for_rational_roots(run_fixture):
    run = run_fixture("ex11")
    assert all(len(c) == 1 for c in run.classes)


def test_conjugacy_cusp_orbits(run_fixture):
    # three conjugate roots: their infinite bars form one class, the finite
    # bar is a singleton class
    run = run_fixture("cusp34", field=12)
    tree = run.tree
    sizes = {}
    for cls in run.classes:
        bar = tree.bars[sorted(cls)[0]]
        key = "inf" if not bar.is_finite() else str(bar.height)
        sizes.setdefault(key, []).append(len(cls))
    assert sizes["inf"] == [3]
    assert sizes["4/3"] == [1]


def test_conjugacy_two_pair_classes(run_fixture):
    # the two bars at the second characteristic height are conjugate
    run = run_fixture("merle2pair")
    tree = run.tree
    finite_classes = [
        c for c in run.classes if tree.bars[sorted(c)[0]].is_finite()
    ]
    by_height = {}
    for c in finite_classes:
        h = tree.bars[sorted(c)[0]].height
        by_height.setdefault(h, []).append(len(c))
    assert by_height[F(7, 4)] == [2]
    assert by_height[F(3, 2)] == [1]


def test_conjugacy_is_equivalence(run_fixture):
    run = run_fixture("merle2pair")
    seen = set()
    for cls in run.classes:
        for b in cls:
            assert b not in seen
            seen.add(b)
    assert seen == set(run.tree.bars)


def test_render_markers_and_determinism(run_fixture):
    run = run_fixture("ex11")
    text = render_tree(run.tree, run.analyses)
    b1 = [b for b in run.tree.finite_bars() if b.height == 3][0]
    # the collinear middle bar's growth points are holes, the top bars' are
    # crosses
    lines = text.splitlines()
    idx = [i for i, ln in enumerate(lines) if b1.id + " " in ln][0]
    assert "∘" in lines[idx + 1]
    assert text.count("×") >= 4
    assert text == render_tree(run.tree, run.analyses)


def test_render_single_root_tree():
    from polartree.baranalysis import analyze_all

    tree = build_tree([S((1, 1))], [], 0, 1)
    text = render_tree(tree, analyze_all(tree))
    lines = text.splitlines()
    assert len(lines) == 2           # ground bar and its single trunk
    assert "[1,0]" in lines[1]


def test_partition_property(run_fixture):
    run = run_fixture("fig2")
    tree = run.tree
    for bar in tree.finite_bars():
        member_union = set()
        total_s = total_t = 0
        for _z, trunk in tree.growth_points(bar):
            member_union.update(tree.bars[trunk.top_bar_id].root_ids)
            total_s += trunk.bimultiplicity[0]
            total_t += trunk.bimultiplicity[1]
        assert member_union == set(bar.root_ids)
        if bar.parent_trunk_id is not None:
            parent = tree.trunks[bar.parent_trunk_id]
            assert (total_s, total_t) == parent.bimultiplicity


def test_height_monotonicity(run_fixture):
    run = run_fixture("fig2")
    tree = run.tree
    for bar in tree.finite_bars():
        parent = tree.parent_bar(bar)
        if parent is not None:
            assert parent.height < bar.height
