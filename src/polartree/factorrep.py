"""Jacobian factor groupings, tree-relative truncations, and comparators.

The polar-root multiset splits into: per non-collinear conjugacy class, the
roots leaving the tree on a bar of the class (the P-group, carrying the
invariant intersection multiplicities and the truncation product) and the
roots climbing a bar of the class at a collinear point while bounded by the
whole cover (the Q-group); plus the roots bounded by every non-collinear
bar of minimal height (the ground Q-group).  Together with the pure y-power
these exhaust the Jacobian's roots.

Also here: the equivalence comparators for pairs (contact structure, zero
counts, pure-zero multiplicities), the meromorphic reduction, and the
generic-coordinates shear.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .errors import (
    InputError,
    InternalInconsistency,
    NoCover,
    NoGenericFound,
    SNotLargeEnough,
)
from .exactalg import BiPoly, CycloRational
from .puiseux import INF, ExpandedRoot
from .treemodel import ArcTrace, Bar, Tree, cover_of
from .baranalysis import BarAnalysis
from .jacoracle import (
    OracleResult,
    is_bounded_by,
    jacobian,
)


# ---------------------------------------------------------------------------
# factor grouping
# ---------------------------------------------------------------------------


@dataclass
class ClassReport:
    class_id: str
    bar_ids: tuple[str, ...]
    height: Fraction
    collinear: bool
    nu_f: Fraction | None = None
    nu_g: Fraction | None = None
    m_star: int | None = None
    p_records: list[int] = dc_field(default_factory=list)   # indices into records
    p_order: int = 0
    p_truncation: BiPoly | None = None
    q_records: list[int] = dc_field(default_factory=list)
    q_order: int = 0
    # intersection multiplicities (filled by intersection_mults)
    i_f_formula: Fraction | None = None
    i_g_formula: Fraction | None = None
    i_c_formula: Fraction | None = None
    i_f_direct: Fraction | None = None
    i_g_direct: Fraction | None = None
    i_f_trunc: Fraction | None = None
    i_g_trunc: Fraction | None = None


@dataclass
class FactorReport:
    classes: list[ClassReport]
    q_ground_order: int
    y_content: int
    x_order: int
    complete: bool
    leave_data: dict[str, list]    # class_id -> [(height, count)], all members
    p_leave_data: dict[str, list]  # class_id -> [(height, count)], leave group only


def group_factors(
    tree: Tree,
    analyses: dict[str, BarAnalysis],
    oracle: OracleResult,
    classes: list[frozenset[str]],
) -> FactorReport:
    """Split the polar-root multiset into the factor groups.

    Membership follows the definitions directly: leave-bar membership for
    the P-groups, climb-at-a-collinear-point-bounded-by-the-cover for the
    Q-groups, bounded-by-every-minimal-non-collinear-bar for the ground
    group.  The partition property is recorded, not assumed.
    """
    records = oracle.records
    reports: list[ClassReport] = []
    assignment: dict[int, int] = {}   # record index -> number of groups
    for idx in range(len(records)):
        assignment[idx] = 0

    minimal_noncol = _minimal_noncollinear(tree, analyses)

    for k, cls in enumerate(classes):
        bar_ids = tuple(sorted(cls))
        if not tree.bars[bar_ids[0]].is_finite():
            continue  # root classes carry no factor data
        first = analyses[bar_ids[0]]
        heights = {tree.bars[b].height for b in bar_ids}
        if len(heights) != 1:
            raise InternalInconsistency("conjugacy class mixes bar heights")
        collinear = first.collinear
        rep = ClassReport(
            f"C{k}", bar_ids, heights.pop(), collinear,
        )
        if not collinear:
            nus_f = {analyses[b].nu_f for b in bar_ids}
            nus_g = {analyses[b].nu_g for b in bar_ids}
            if len(nus_f) != 1 or len(nus_g) != 1:
                raise InternalInconsistency(
                    "conjugate bars disagree on generic orders"
                )
            rep.nu_f = nus_f.pop()
            rep.nu_g = nus_g.pop()
            rep.m_star = sum(analyses[b].m_star for b in bar_ids)
            per_bar_p: dict[str, int] = {b: 0 for b in bar_ids}
            for idx, r in enumerate(records):
                if r.trace.leave_bar_id in cls:
                    rep.p_records.append(idx)
                    rep.p_order += r.count
                    per_bar_p[r.trace.leave_bar_id] += r.count
                    assignment[idx] += 1
                elif _in_q_group(tree, analyses, r, cls):
                    rep.q_records.append(idx)
                    rep.q_order += r.count
                    assignment[idx] += 1
            if len(set(per_bar_p.values())) > 1:
                raise InternalInconsistency(
                    "polar leave counts are not conjugation-symmetric on "
                    + rep.class_id
                )
            if rep.p_order != rep.m_star:
                raise InternalInconsistency(
                    f"leave count {rep.p_order} differs from the pure-zero "
                    f"total {rep.m_star} on {rep.class_id}"
                )
            rep.p_truncation = _truncation_product(tree, records, rep.p_records)
        reports.append(rep)

    q_ground_order = 0
    for idx, r in enumerate(records):
        if all(is_bounded_by(r, tree.bars[b]) for b in minimal_noncol):
            q_ground_order += r.count
            assignment[idx] += 1

    complete = all(v == 1 for v in assignment.values())

    def _multiset(indices) -> list:
        out: dict[Fraction, int] = {}
        for idx in indices:
            r = records[idx]
            h = r.trace.leave_height
            if h is None:
                h = tree.bars[r.trace.leave_bar_id].height
            out[h] = out.get(h, 0) + r.count
        return sorted(out.items())

    leave_data: dict[str, list] = {}
    p_leave_data: dict[str, list] = {}
    for rep in reports:
        if rep.collinear:
            continue
        leave_data[rep.class_id] = _multiset(rep.p_records + rep.q_records)
        p_leave_data[rep.class_id] = _multiset(rep.p_records)
    return FactorReport(
        reports, q_ground_order, oracle.y_content, oracle.x_order,
        complete, leave_data, p_leave_data,
    )


def _minimal_noncollinear(tree: Tree, analyses) -> list[str]:
    noncol = [b for b in tree.finite_bars() if not analyses[b.id].collinear]
    if not noncol:
        return []
    out = []
    for b in noncol:
        cur = tree.parent_bar(b)
        minimal = True
        while cur is not None:
            if not analyses[cur.id].collinear:
                minimal = False
                break
            cur = tree.parent_bar(cur)
        if minimal:
            out.append(b.id)
    return sorted(out)


def _in_q_group(tree, analyses, record: ExpandedRoot, cls) -> bool:
    for bid in cls:
        _climbs, z = record.trace.climb(bid)
        if z is None or z not in analyses[bid].collinear_points:
            continue
        try:
            cover = cover_of(tree, analyses, tree.bars[bid], z)
        except NoCover:
            continue
        if all(is_bounded_by(record, tree.bars[b]) for b in cover):
            return True
    return False


def _truncation_product(tree: Tree, records, indices) -> BiPoly:
    """Product of (x - cut arc) over a P-group, as an honest polynomial.

    Resolved members contribute linear factors; unresolved bundles enter
    through the symmetric functions of their coefficient polynomial, so the
    product stays exact.  Every cut arc is a polynomial in t = y^(1/D),
    D = ``tree.ram``, so the product is formed in (x, t); conjugation
    closure makes every t-exponent a multiple of D.
    """
    field = tree.field
    D = tree.ram

    def in_t(terms) -> BiPoly:
        return BiPoly(field, {(0, int(e * D)): c for e, c in terms})

    acc = BiPoly.constant(field, 1)
    for idx in indices:
        r = records[idx]
        bar = tree.bars[r.trace.leave_bar_id]
        x_lam = BiPoly.variable(field, "x") - in_t(bar.prefix.terms)
        if r.trace.leave_point is not None:
            factor = x_lam - in_t([(bar.height, r.trace.leave_point)])
            power = r.count
        else:
            # product over roots a of chi of (x - lam - a y^h)
            #   = sum_k chi_k (x - lam)^k y^(h (d-k))
            chi = r.trace.leave_poly.monic()
            d = chi.degree()
            ht = int(bar.height * D)
            factor = BiPoly.zero(field)
            x_lam_k = BiPoly.constant(field, 1)
            for k in range(d + 1):
                if k:
                    x_lam_k = x_lam_k * x_lam
                if not chi[k].is_zero():
                    factor = factor + (x_lam_k * chi[k]).shift_y(ht * (d - k))
            power = r.multiplicity
        for _ in range(power):
            acc = acc * factor
    terms: dict[tuple[int, int], CycloRational] = {}
    for (i, n), c in acc.terms.items():
        if n % D:
            raise InternalInconsistency(
                "truncation product has a fractional exponent; the group "
                "is not conjugation-closed"
            )
        terms[(i, n // D)] = c
    return BiPoly(field, terms)


# ---------------------------------------------------------------------------
# intersection multiplicities
# ---------------------------------------------------------------------------


def order_sum_via_contacts(tree: Tree, kind: str, record: ExpandedRoot) -> Fraction:
    """E + sum of contacts with the germ's roots; exact for bundles too."""
    E = tree.E1 if kind == "f" else tree.E2
    total = Fraction(E)
    for info in tree.roots.values():
        if info.kind != kind:
            continue
        t = record.contact_with(info.series)
        if t is INF:
            raise InternalInconsistency("polar root equals a germ root")
        total += t
    return total


def order_sum_via_trace(tree: Tree, kind: str, trace: ArcTrace) -> Fraction:
    """E + sum of contacts with the germ's roots of an arc cut where it
    leaves the tree: lambda_B + a y^h(B), with a off every trunk of B.

    Read from the climb, not from series: the contact with a root is the
    height of the last bar on the path that holds the root.
    """
    heights = {}
    for bid, _z in trace.path:
        bar = tree.bars[bid]
        for rid in bar.root_ids:
            heights[rid] = bar.height
    E = tree.E1 if kind == "f" else tree.E2
    return Fraction(E) + sum(h for rid, h in heights.items()
                             if tree.roots[rid].kind == kind)


def intersection_mults(report: FactorReport, tree: Tree, oracle: OracleResult,
                       f: BiPoly, g: BiPoly) -> FactorReport:
    """Fill in the invariant intersection multiplicities, three ways each.

    Formula (generic order times pure-zero count), direct summation over
    the group's members, and direct summation over the truncated members;
    a mismatch raises, because the three are theorems about the same number.
    """
    records = oracle.records
    for rep in report.classes:
        if rep.collinear:
            continue
        rep.i_f_formula = rep.nu_f * rep.m_star
        rep.i_g_formula = rep.nu_g * rep.m_star
        rep.i_c_formula = rep.i_f_formula + rep.i_g_formula
        def direct(kind: str) -> Fraction:
            total = Fraction(0)
            for idx in rep.p_records:
                r = records[idx]
                total += order_sum_via_contacts(tree, kind, r) * r.count
            return total
        rep.i_f_direct = direct("f")
        rep.i_g_direct = direct("g")
        if (rep.i_f_direct, rep.i_g_direct) != (rep.i_f_formula, rep.i_g_formula):
            raise InternalInconsistency(
                f"direct intersection sums disagree with the formula on {rep.class_id}"
            )
        # the truncated members give the same numbers
        def trunc_direct(kind: str) -> Fraction:
            return sum((order_sum_via_trace(tree, kind, records[idx].trace)
                        * records[idx].count for idx in rep.p_records), Fraction(0))
        rep.i_f_trunc = trunc_direct("f")
        rep.i_g_trunc = trunc_direct("g")
        if (rep.i_f_trunc, rep.i_g_trunc) != (rep.i_f_formula, rep.i_g_formula):
            raise InternalInconsistency(
                f"truncated intersection sums disagree on {rep.class_id}"
            )
    return report


# ---------------------------------------------------------------------------
# pair comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquivalenceVerdict:
    level: str                 # "inequivalent" | "equivalent" | "mero_equivalent"
    witness: str | None = None


def _bar_signature(tree: Tree, analyses, bar: Bar, level: int):
    if not bar.is_finite():
        return ("leaf",)
    ana = analyses[bar.id]
    entries = []
    for z, trunk in tree.growth_points(bar):
        child = tree.bars[trunk.top_bar_id]
        is_coll = (not ana.collinear) and (z in ana.collinear_points)
        extra = ()
        if level >= 2 and not ana.collinear:
            extra = (ana.mero_zeros.get(z, 0) if is_coll else None,)
        entries.append(
            (trunk.bimultiplicity, ana.collinear or is_coll, extra,
             _bar_signature(tree, analyses, child, level))
        )
    entries.sort(key=repr)
    attrs = [bar.height, ana.collinear]
    if level >= 2 and not ana.collinear:
        attrs.append(ana.m)
    if level >= 3 and not ana.collinear:
        pure = sorted(
            mult for z, mult in ana.mero_zeros.items()
            if z not in ana.collinear_points
        )
        attrs.append((tuple(pure), ana.mero_unresolved))
    return (tuple(attrs), tuple(entries))


def compare_pairs(pair_a, pair_b) -> EquivalenceVerdict:
    """Compare two modelled pairs: contact structure, then zero counts,
    then pure-zero multiplicities.

    Each argument is a (tree, analyses) pair.  The y-content exponents are
    part of the contact data (the generic orders depend on them).
    """
    tree_a, ana_a = pair_a
    tree_b, ana_b = pair_b
    if (tree_a.p, tree_a.q, tree_a.E1, tree_a.E2) != (
        tree_b.p, tree_b.q, tree_b.E1, tree_b.E2
    ):
        return EquivalenceVerdict(
            "inequivalent", "root counts or y-content exponents differ"
        )
    for level, name in ((1, "contact structure"), (2, "zero counts"),
                        (3, "pure-zero multiplicities")):
        sa = _bar_signature(tree_a, ana_a, tree_a.ground, level)
        sb = _bar_signature(tree_b, ana_b, tree_b.ground, level)
        if sa != sb:
            if level < 3:
                return EquivalenceVerdict("inequivalent", f"{name} differ")
            return EquivalenceVerdict("equivalent", f"{name} differ")
    return EquivalenceVerdict("mero_equivalent")


# ---------------------------------------------------------------------------
# meromorphic reduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReducedPair:
    f_poly: BiPoly
    g_poly: BiPoly
    E1: int                # prefactor exponent: f = y^E1 * f_poly with E1 = -p*s
    E2: int
    s: int
    p: int
    q: int


def _monic_x_degree(F: BiPoly) -> int:
    p = F.x_degree()
    lead = [(i, j) for (i, j) in F.terms if i == p]
    if lead != [(p, 0)] or not (F.terms[(p, 0)] == F.field.one):
        raise InputError("polynomial is not monic in x")
    return p


def _min_shift(F: BiPoly, p: int) -> int:
    """Least s >= 0 that gives every non-leading term a positive y-exponent.

    Under x -> x*y^(-s) and the factor y^(p*s), the term x^i y^j becomes
    x^i y^(j + (p-i)*s), which is positive for i < p once
    s >= floor(-j/(p-i)) + 1.
    """
    s = 0
    for (i, j) in F.terms:
        if i < p:
            s = max(s, -j // (p - i) + 1)
    return s


def _has_root_of_order_zero(F: BiPoly, p: int) -> bool:
    """F(x, 0) != x^p: some root of F does not vanish at y = 0."""
    return any(j <= 0 for (i, j) in F.terms if i < p)


def meromorphic_reduce(F: BiPoly, G: BiPoly, s="auto"):
    """Clear Laurent tails by x -> x*y^(-s): returns the holomorphic pair.

    s is admissible when every non-leading term x^i y^j (i < p) of the
    reduced polynomial has a positive y-exponent, i.e. s > -j/(p-i) for all
    of them.  Then f(x, 0) = x^p, every root of the reduced pair has positive
    order, and its tree is the Laurent pair's tree raised by s (a root X of
    the original pair becomes x = y^s X).  "auto" takes the least admissible
    s; a smaller explicit s raises SNotLargeEnough.

    The returned polynomials carry recorded prefactor exponents E1 = -p*s
    and E2 = -q*s (the non-unit factors y^E).  The Jacobian correspondence
    X Y J(F,G) = x y J(f,g) is asserted symbolically.
    """
    p = _monic_x_degree(F)
    q = _monic_x_degree(G)
    s_min = max(_min_shift(F, p), _min_shift(G, q))
    if s == "auto":
        s = s_min
    elif s < s_min:
        raise SNotLargeEnough(
            f"need s >= {s_min} so that every root has positive order"
        )
    f_laurent = F.substitute_x_scale(s)
    g_laurent = G.substitute_x_scale(s)
    f_poly = f_laurent.shift_y(p * s)
    g_poly = g_laurent.shift_y(q * s)
    if _has_root_of_order_zero(f_poly, p) or _has_root_of_order_zero(g_poly, q):
        raise SNotLargeEnough("shift left a root of order zero; raise s")
    # X Y J_(F,G)(X, Y) under X = x y^(-s)  ==  x y J_(f,g)(x, y)
    x_var = BiPoly.variable(F.field, "x")
    y_var = BiPoly.variable(F.field, "y")
    lhs = jacobian(F, G).substitute_x_scale(s) * x_var.substitute_x_scale(s) * y_var
    rhs = jacobian(f_laurent, g_laurent) * x_var * y_var
    if not (lhs == rhs):
        raise InternalInconsistency("Jacobian correspondence identity failed")
    return ReducedPair(f_poly, g_poly, -p * s, -q * s, s, p, q)


# ---------------------------------------------------------------------------
# generic coordinates
# ---------------------------------------------------------------------------


def total_order(F: BiPoly) -> int:
    if F.is_zero():
        raise InputError("zero germ has no order")
    return min(i + j for (i, j) in F.terms)


def is_mini_regular(F: BiPoly) -> bool:
    """Regular in x with the x-order equal to the germ's total order."""
    d = total_order(F)
    return (d, 0) in F.terms


MAX_SHEAR = 24  # the automatic search tries c = 0, 1, -1, ..., 24, -24


def generic_coordinates(f: BiPoly, g: BiPoly, c="auto"):
    """Shear y -> y + c*x until both germs and the Jacobian are mini-regular.

    Returns (f', g', c_used, m) with m the number of generic polar roots
    (the x-order of the sheared Jacobian).
    """
    field = f.field
    if c == "auto":
        candidates = [0]
        for k in range(1, MAX_SHEAR + 1):
            candidates += [k, -k]
    else:
        candidates = [c]
    for cand in candidates:
        cc = cand if isinstance(cand, CycloRational) else field.rational(cand)
        fs = f if cc.is_zero() else f.substitute_shear(cc)
        gs = g if cc.is_zero() else g.substitute_shear(cc)
        if not (is_mini_regular(fs) and is_mini_regular(gs)):
            continue
        J = jacobian(fs, gs)
        if J.is_zero():
            raise InputError("Jacobian is identically zero; the pair is degenerate")
        if not is_mini_regular(J):
            continue
        return fs, gs, cc, total_order(J)
    raise NoGenericFound(f"no shear constant among {len(candidates)} candidates worked")
