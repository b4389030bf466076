"""The brute-force oracle: expand the Jacobian's roots and verify predictions.

The oracle computes J = f_y g_x - f_x g_y exactly, expands its Newton-Puiseux
roots, places every root on the tree by contact order alone (it never reads
the per-bar counting numbers, so prediction and observation stay
independent), and then compares the observed climb/leave data against every
counting prediction.  Placement happens once, in ``Tree.trace_arc``; every
check reads the record's trace and never compares the arc with a bar prefix
again.  Verification failures are report content, not exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction

from .errors import InputError, InternalInconsistency, NoCover, TruncationTooShort
from .exactalg import BiPoly, CycloRational, UniPoly, squarefree_decompose
from .puiseux import ExpandedRoot, PuiseuxSeries, order_along_arc
from .npsolve import expand_roots
from .treemodel import ArcTrace, Bar, Tree, cover_of, repair_of
from .baranalysis import (
    BarAnalysis,
    ground_residual,
    predict_C,
    total_via_basics,
    weeds,
)


def jacobian(f: BiPoly, g: BiPoly) -> BiPoly:
    """The Jacobian determinant f_y g_x - f_x g_y, exactly."""
    return f.diff_y() * g.diff_x() - f.diff_x() * g.diff_y()


@dataclass
class OracleResult:
    records: list[ExpandedRoot]     # each placed, with its trace
    jac: BiPoly
    y_content: int     # E
    x_order: int       # K
    truncation: Fraction


MAX_DEEPEN = 6  # truncation doublings before placement gives up


def polar_roots(f: BiPoly, g: BiPoly, tree: Tree, target=None) -> OracleResult:
    """Expand the Jacobian and place every polar root on the tree.

    Branches whose coefficients fall outside the field are kept as exactly
    counted bundles.  The truncation starts at the
    session default (max pairwise root contact + 2) and deepens on demand
    when a placement needs more terms.
    """
    J = jacobian(f, g)
    if J.is_zero():
        raise InputError("Jacobian is identically zero; the pair is degenerate")
    candidates = []
    seen = set()
    for bar in tree.finite_bars():
        for z, _t in tree.growth_points(bar):
            if z not in seen:
                seen.add(z)
                candidates.append(z)
    depth = Fraction(target) if target is not None else tree.max_contact + 2
    last_err: Exception | None = None
    for _ in range(MAX_DEEPEN):
        try:
            return _expand_and_place(J, tree, depth, candidates)
        except TruncationTooShort as e:
            last_err = e
            depth *= 2
    raise TruncationTooShort(
        f"placement still unresolved at truncation {depth}: {last_err}"
    )


def _expand_and_place(J: BiPoly, tree: Tree, depth: Fraction, candidates) -> OracleResult:
    expansion = expand_roots(J, depth, extra_candidates=candidates)
    records: list[ExpandedRoot] = []
    for root in expansion.roots:
        trace = tree.trace_arc(root)
        if trace.is_root:
            raise InternalInconsistency(
                "a Jacobian root coincides with a root of the product germ "
                "despite the simple-roots validation"
            )
        records.append(replace(root, trace=trace))
    total = sum(r.count for r in records)
    if total != expansion.x_order:
        raise InternalInconsistency(
            f"placed {total} polar roots, expected {expansion.x_order}"
        )
    return OracleResult(
        records, J, expansion.y_content, expansion.x_order, depth
    )


# ---------------------------------------------------------------------------
# observation helpers (shared with the factor grouping); all read the trace
# ---------------------------------------------------------------------------


def climbers_at(records, bar: Bar):
    """Counts of polar roots climbing the bar, per located point plus pooled."""
    located: dict[CycloRational, int] = {}
    pooled = 0
    for r in records:
        climbs, z = r.trace.climb(bar.id)
        if not climbs:
            continue
        if z is None:
            pooled += r.count
        else:
            located[z] = located.get(z, 0) + r.count
    return located, pooled


def is_bounded_by(record: ExpandedRoot, bar: Bar) -> bool:
    return not record.trace.climb(bar.id)[0]


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Comparison:
    family: str
    bar_id: str | None
    point: str | None
    predicted: object
    observed: object
    passed: bool
    note: str = ""

    def render(self) -> str:
        where = self.bar_id or "-"
        if self.point is not None:
            where += f" @ {self.point}"
        status = "ok" if self.passed else "FAIL"
        out = f"[{status}] {self.family:<22} {where:<18} predicted={self.predicted} observed={self.observed}"
        if self.note:
            out += f"  ({self.note})"
        return out


@dataclass
class VerificationReport:
    comparisons: list[Comparison] = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.comparisons)

    def failures(self) -> list[Comparison]:
        return [c for c in self.comparisons if not c.passed]

    def add(self, family, bar_id, point, predicted, observed, note="") -> None:
        self.comparisons.append(
            Comparison(
                family, bar_id,
                None if point is None else str(point),
                predicted, observed, predicted == observed, note,
            )
        )

    def add_flag(self, family, bar_id, point, ok: bool, note="") -> None:
        self.comparisons.append(
            Comparison(
                family, bar_id,
                None if point is None else str(point),
                True, ok, bool(ok), note,
            )
        )

    def render(self) -> str:
        lines = [c.render() for c in self.comparisons]
        lines.append(f"verification: {'PASS' if self.passed else 'FAIL'} "
                     f"({len(self.comparisons)} checks, {len(self.failures())} failures)")
        return "\n".join(lines) + "\n"


def _delta_sum(ana: BarAnalysis) -> Fraction:
    return sum((d for d in ana.deltas.values()), Fraction(0))


def verify(
    tree: Tree,
    analyses: dict[str, BarAnalysis],
    oracle: OracleResult,
    f: BiPoly,
    g: BiPoly,
) -> VerificationReport:
    """Compare every counting prediction with the oracle's observations,
    then the sampled-arc invariants of the germs f and g: constant
    determinants, stable orders, and the order identity along sample arcs.
    """
    rep = VerificationReport()
    records = oracle.records
    total_roots = sum(r.count for r in records)
    rep.add("count-conservation", None, None, oracle.x_order, total_roots)

    noncollinear = [b for b in tree.finite_bars() if not analyses[b.id].collinear]
    noncollinear.sort(key=lambda b: (b.height, b.id))
    climbers = {b.id: climbers_at(records, b) for b in tree.finite_bars()}

    # per-point climb counts and totals
    for bar in noncollinear:
        ana = analyses[bar.id]
        located, pooled = climbers[bar.id]
        points = set(ana.predicted) | set(located)
        for z in sorted(points, key=lambda w: w.sort_key()):
            rep.add(
                "count-per-point", bar.id, z,
                ana.predicted.get(z, 0), located.get(z, 0),
            )
        if ana.mero_unresolved or pooled:
            rep.add("count-pooled", bar.id, None, ana.mero_unresolved, pooled)
        rep.add(
            "count-total", bar.id, None,
            ana.predicted_total, sum(located.values()) + pooled,
        )

    # postbar certificates and the no-gap property
    for bar in noncollinear:
        ana = analyses[bar.id]
        for z in ana.noncollinear_points:
            post = tree.postbar_at(bar, z)
            if post is None or not post.is_finite():
                continue
            pa = analyses[post.id]
            rep.add_flag(
                "postbar-certificate", bar.id, z,
                (not pa.collinear) and pa.m + 1 == pa.n,
                note=f"postbar {post.id}",
            )
            # a record climbing the bar at z but bounded by the postbar
            # separates strictly between the two heights
            violations = sum(
                r.count for r in records
                if r.trace.climb(bar.id) == (True, z) and is_bounded_by(r, post)
            )
            rep.add("gap", bar.id, z, 0, violations, note=f"postbar {post.id}")

    # collinear-point counts with cover bounds
    for bar in noncollinear:
        ana = analyses[bar.id]
        for c in ana.collinear_points:
            try:
                predicted, cover = predict_C(tree, analyses, bar, c)
            except NoCover:
                rep.add_flag("collinear-bound", bar.id, c, True, note="no cover")
                continue
            observed = sum(
                r.count for r in records
                if r.trace.climb(bar.id) == (True, c)
                and all(is_bounded_by(r, tree.bars[b]) for b in cover)
            )
            rep.add(
                "collinear-bound", bar.id, c, predicted, observed,
                note="cover " + ",".join(cover),
            )

    # placement containment: climbers hit poles, collinear points, or zeros
    for bar in noncollinear:
        ana = analyses[bar.id]
        allowed = set(ana.noncollinear_points) | set(ana.collinear_points) | set(ana.mero_zeros)
        bad = 0
        for r in records:
            climbs, z = r.trace.climb(bar.id)
            if not climbs:
                continue
            if z is not None:
                if z not in allowed:
                    bad += r.count
            elif not _unresolved_at_zero(ana, r.trace):
                bad += r.count
        rep.add("placement", bar.id, None, 0, bad)

    # pure mero-zeros: exact counts, climbers leave there
    for bar in noncollinear:
        ana = analyses[bar.id]
        located, pooled = climbers[bar.id]
        for z, mult in sorted(ana.mero_zeros.items(), key=lambda kv: kv[0].sort_key()):
            if z in ana.collinear_points:
                continue
            rep.add("pure-zero", bar.id, z, mult, located.get(z, 0))
        if ana.mero_unresolved:
            rep.add("pure-zero-pooled", bar.id, None, ana.mero_unresolved, pooled)

    # sum rule: nonzero delta sum forces zeros+1=poles and total tau-1
    for bar in noncollinear:
        ana = analyses[bar.id]
        if _delta_sum(ana) != 0:
            located, pooled = climbers[bar.id]
            rep.add_flag("sum-rule", bar.id, None, ana.m + 1 == ana.n)
            rep.add(
                "sum-rule-total", bar.id, None,
                ana.tau_total - 1, sum(located.values()) + pooled,
            )

    # pure trunks: a bar atop an [s,0] or [0,t] trunk with the other order nonzero
    for bar in noncollinear + [b for b in tree.finite_bars() if analyses[b.id].collinear]:
        if bar.parent_trunk_id is None:
            continue
        trunk = tree.trunks[bar.parent_trunk_id]
        s, t = trunk.bimultiplicity
        ana = analyses[bar.id]
        if (s == 0 or t == 0) and s + t >= 1:
            other_nu = ana.nu_g if t == 0 else ana.nu_f
            if other_nu != 0:
                located, pooled = climbers[bar.id]
                rep.add_flag("pure-trunk-shape", bar.id, None, ana.purely_noncollinear)
                rep.add(
                    "pure-trunk-total", bar.id, None,
                    (s if t == 0 else t) - 1,
                    sum(located.values()) + pooled,
                )

    # weeds and basic totals
    for bar in noncollinear:
        ana = analyses[bar.id]
        w_pred = weeds(tree, analyses, bar)
        w_obs = _observed_weeds(tree, analyses, records, bar)
        rep.add("weeds", bar.id, None, w_pred, w_obs)
        located, pooled = climbers[bar.id]
        rep.add(
            "basics-total", bar.id, None,
            total_via_basics(tree, analyses, bar),
            sum(located.values()) + pooled,
        )

    # ground residual
    ground_ana = analyses[tree.ground_id]
    if ground_ana.collinear:
        try:
            residual = ground_residual(tree, analyses, oracle.x_order)
            cover = cover_of(tree, analyses, tree.ground, tree.field.zero)
            observed = sum(
                r.count for r in records
                if all(is_bounded_by(r, tree.bars[b]) for b in cover)
            )
            rep.add("ground-residual", tree.ground_id, None, residual, observed)
        except NoCover:
            rep.add_flag("ground-residual", tree.ground_id, None, True, note="no cover")

    # sampled-arc invariants of the germs themselves
    _verify_sampled_arcs(rep, tree, analyses, f, g)
    _verify_order_identity(rep, tree, analyses, oracle.jac, f, g)
    return rep


def _squarefree_part(p: UniPoly) -> UniPoly:
    out = UniPoly.constant(p.field, 1, p.var)
    for fac, _m in squarefree_decompose(p):
        out = out * fac
    return out


def _observed_weeds(tree, analyses, records, bar: Bar) -> int:
    """Count records climbing the bar and its repair only through holes and zeros."""
    rep_bars = repair_of(tree, analyses, bar)
    total = 0
    for r in records:
        climbs, z = r.trace.climb(bar.id)
        if not climbs or not _point_in_holes(analyses[bar.id], r.trace, z):
            continue
        if all(
            _point_in_holes(analyses[bid], r.trace, zb)
            for bid, zb in r.trace.path if bid in rep_bars
        ):
            total += r.count
    return total


def _point_in_holes(ana: BarAnalysis, trace: ArcTrace, z) -> bool:
    """Is the climb point in C(B) union M(B)?"""
    if ana.collinear:
        return True  # every point of a collinear bar is a hole
    if z is not None:
        return z in ana.collinear_points or z in ana.mero_zeros
    return _unresolved_at_zero(ana, trace)


def _unresolved_at_zero(ana: BarAnalysis, trace: ArcTrace) -> bool:
    """Is the unresolved leave coefficient among the bar's unresolved zeros?"""
    if ana.mero_unresolved_poly is None:
        return False
    return (ana.mero_numerator % _squarefree_part(trace.leave_poly)).is_zero()


def _verify_sampled_arcs(rep, tree, analyses, f, g) -> None:
    """Constant-determinant and stable-order invariants along sample arcs."""
    field = tree.field
    for bar in tree.finite_bars():
        ana = analyses[bar.id]
        for z, trunk in tree.growth_points(bar):
            post = tree.bars[trunk.top_bar_id]
            if not post.is_finite():
                continue
            h1, h2 = bar.height, post.height
            mid = (h1 + h2) / 2
            arcs = [(a, bar.prefix + PuiseuxSeries(field, [(h1, z), (mid, field.rational(a))]))
                    for a in (1, 2, 3)]
            # one a at most gives the postbar's prefix: a root of the pair,
            # not an arc that leaves the trunk between the heights
            for a, xi in [(a, xi) for a, xi in arcs if xi != post.prefix][:2]:
                nu_f_xi = order_along_arc(f, xi)
                nu_g_xi = order_along_arc(g, xi)
                p_k, q_k = trunk.bimultiplicity
                det_bar = ana.nu_f * q_k - ana.nu_g * p_k
                det_xi = nu_f_xi * q_k - nu_g_xi * p_k
                pa = analyses[post.id]
                det_post = pa.nu_f * q_k - pa.nu_g * p_k
                rep.add(
                    "determinant", bar.id, z,
                    str(det_bar), str(det_xi),
                    note=f"arc between heights ({a})",
                )
                rep.add(
                    "determinant-postbar", bar.id, z,
                    str(det_bar), str(det_post),
                    note=f"postbar {post.id}",
                )
        # stable order off the marked points
        taken = {w for w in ana.deltas}
        probe = _fresh_point(field, taken)
        xi = bar.prefix + PuiseuxSeries(field, [(bar.height, probe)])
        rep.add(
            "stable-order", bar.id, probe,
            str(ana.nu_f), str(order_along_arc(f, xi)),
        )
        rep.add(
            "stable-order-g", bar.id, probe,
            str(ana.nu_g), str(order_along_arc(g, xi)),
        )


def _fresh_point(field, taken):
    k = 2
    while True:
        cand = field.rational(k)
        if cand not in taken:
            return cand
        k += 1


def _order_identity_holds(J, f, g, tree, bar, ana, sample_z) -> bool:
    """Order bookkeeping along a sample arc through the bar, J = J(f, g).

    Away from the growth points, the Jacobian's order along the arc equals
    the two germ orders minus the bar height minus one - provided the bar's
    rational function does not vanish at the sample.  At a zero of that
    function the order strictly jumps instead; that case returns True when
    the jump is observed.
    """
    if sample_z in ana.deltas:
        raise ValueError("sample point must avoid the growth points")
    value = ana.mero_numerator.evaluate(sample_z)
    xi = bar.prefix + PuiseuxSeries(tree.field, [(bar.height, sample_z)])
    lhs = order_along_arc(J, xi)
    rhs = order_along_arc(f, xi) + order_along_arc(g, xi) - bar.height - 1
    if value.is_zero():
        return lhs > rhs
    return lhs == rhs


def _verify_order_identity(rep, tree, analyses, J, f, g) -> None:
    for bar in tree.finite_bars():
        ana = analyses[bar.id]
        if ana.collinear:
            continue
        taken = set(ana.deltas) | set(ana.mero_zeros)
        probe = _fresh_point(tree.field, taken)
        num = ana.mero_numerator.evaluate(probe)
        if num.is_zero():
            continue
        ok = _order_identity_holds(J, f, g, tree, bar, ana, probe)
        rep.add_flag("order-identity", bar.id, probe, ok)
