"""End-to-end orchestration: parse, expand, model, predict, verify, factor.

Each adaptive knob has one loop, shared by every command (``reduce`` and
``generic`` included): ``_in_field`` parses the input once and enlarges the
field conductor unless it is pinned, and ``_germ_stage`` deepens the
truncation until every root contact is determined.  Everything is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (
    InputError,
    InputViolatesSimplicity,
    LimitationError,
    NeedsLargerField,
    NegativeExponentWithoutLaurent,
    TruncationTooShort,
    UnresolvedBranch,
)
from .exactalg import BiPoly, CycloField, _euler_phi, radical_conductor, unity_conductor
from .npsolve import Expansion, _polygon_data, expand_roots, multiplicity_split
from .parsing import parse_expression
from .puiseux import INF
from .treemodel import Tree, build_tree, conjugacy_classes, render_tree
from .baranalysis import BarAnalysis, analyze_all
from .jacoracle import OracleResult, VerificationReport, polar_roots, verify
from .factorrep import FactorReport, group_factors, intersection_mults


# the largest degree phi(N) of a working field Q(zeta_N).  Every fixture and
# benchmark pair works in degree 8 or less; at degree 64 (N = 240) one field
# inverse takes about 20 ms, and it grows about as phi(N)^3.
MAX_FIELD_DEGREE = 64


@dataclass
class Options:
    field: int | None = None          # pinned conductor; None = automatic
    trunc: Fraction | None = None     # pinned truncation depth


def _in_field(opts: Options, f_text: str, g_text: str, attempt, laurent: bool = False):
    """``attempt(f, g)`` in the pinned field, or from Q(zeta_4) up to the lcm
    of every conductor an expansion asks for.  Each text is parsed once, in
    the pinned field or else over Q (an automatic field refuses zeta), and
    every attempt gets the parsed pair in its field (:meth:`BiPoly.over`).

    The restarts end: every :class:`NeedsLargerField` asks for a proper
    multiple of the current conductor, so the conductor grows with each
    restart, and :func:`_capped_field` refuses every conductor above
    ``_largest_conductor(MAX_FIELD_DEGREE)`` = 240."""
    pinned = opts.field is not None
    if pinned and opts.field < 1:
        raise InputError(f"field conductor must be at least 1, not {opts.field}")
    if not pinned and ("zeta" in f_text or "zeta" in g_text):
        raise InputError("input using zeta needs an explicit --field")
    field = _capped_field(opts.field if pinned else 4, pinned)
    home = field if pinned else CycloField(1)
    f, g = (parse_expression(text, home, laurent) for text in (f_text, g_text))
    while True:
        try:
            return attempt(f.over(field), g.over(field))
        except NeedsLargerField as e:
            if pinned:
                raise
            field = _capped_field(math.lcm(field.conductor, e.conductor), pinned)


def _capped_field(conductor: int, pinned: bool) -> CycloField:
    """Q(zeta_conductor), refused if its degree is above ``MAX_FIELD_DEGREE``."""
    degree = _euler_phi(conductor)
    if degree > MAX_FIELD_DEGREE:
        field = f"Q(zeta_{conductor}) of degree {degree}"
        cap = f"above the field degree cap {MAX_FIELD_DEGREE}"
        if pinned:
            raise InputError(f"field conductor {conductor} gives {field}, {cap}")
        raise LimitationError(f"the expansion needs {field}, {cap}")
    return CycloField(conductor)


@dataclass
class Run:
    field: CycloField
    f: BiPoly
    g: BiPoly
    f_expansion: Expansion
    g_expansion: Expansion
    tree: Tree
    analyses: dict[str, BarAnalysis]
    oracle: OracleResult
    verification: VerificationReport
    classes: list[frozenset[str]]
    factors: FactorReport


def analyze_pair(f_text: str, g_text: str, options: Options | None = None) -> Run:
    """Run the whole pipeline on a pair given as expression text."""
    opts = options or Options()
    return _in_field(opts, f_text, g_text, lambda f, g: analyze_polys(f, g, opts))


def analyze_polys(f: BiPoly, g: BiPoly, options: Options | None = None) -> Run:
    """The pipeline on already-built polynomials (field fixed by the inputs)."""
    opts = options or Options()
    _validate_germ(f, "f")
    _validate_germ(g, "g")
    ef, eg, tree = _germ_stage(f, g, opts.trunc)
    analyses = analyze_all(tree)
    oracle = polar_roots(f, g, tree, target=opts.trunc)
    verification = verify(tree, analyses, oracle, f, g)
    classes = conjugacy_classes(tree)
    factors = group_factors(tree, analyses, oracle, classes)
    factors = intersection_mults(factors, tree, oracle, f, g)
    return Run(
        f.field, f, g, ef, eg, tree, analyses, oracle, verification, classes,
        factors,
    )


def _germ_stage(f: BiPoly, g: BiPoly, trunc: Fraction | None,
                E1: int = 0, E2: int = 0) -> tuple[Expansion, Expansion, Tree]:
    """Expand both germs and build their tree, adding E1/E2 to the y-content.

    A germ root whose next coefficient lies outside the field is refused,
    but only once both germs have expanded, so that a larger field either
    germ asks for, or one that holds the bundle's coefficients, is tried
    first (:func:`_refuse_germ_bundles`).  Unless pinned, the depth doubles
    while a contact is undetermined and ends at no less than
    ``max_contact + 2``, so that everything strictly between consecutive
    bar heights is visible.
    Before the first doubling, a repeated component of f*g through the
    origin is refused.  A field that the first Newton polygons already rule
    out is refused before anything is expanded (:func:`_first_polygons_field`)."""
    if trunc is not None and trunc <= 0:
        raise InputError(f"truncation depth must be positive, not {trunc}")
    _first_polygons_field(f, g, trunc)
    ydeg = max(j for h in (f, g) for (_, j) in h.terms)
    start = trunc if trunc is not None else Fraction(max(ydeg, 2) + 2)
    depth = start
    for _ in range(9):  # up to eight doublings and one settling pass
        try:
            ef = expand_roots(f, depth)
            eg = expand_roots(g, depth)
            _refuse_germ_bundles(ef.roots + eg.roots, f.field.conductor)
            alphas = [r.series for r in ef.roots for _ in range(r.count)]
            betas = [r.series for r in eg.roots for _ in range(r.count)]
            tree = build_tree(alphas, betas, E1 + ef.y_content, E2 + eg.y_content)
        except TruncationTooShort:
            if trunc is not None:
                raise
            if depth == start:
                _reject_repeated_components(f, g)
            depth *= 2
            continue
        if trunc is not None or depth >= tree.max_contact + 2:
            return ef, eg, tree
        depth = tree.max_contact + 2
    raise TruncationTooShort("root contacts undetermined after deepening")


def _first_polygons_field(f: BiPoly, g: BiPoly, trunc: Fraction | None) -> None:
    """Ask for the roots of unity that the first Newton polygons of f and g
    need, before anything is expanded.

    An edge of slope u/d (d > 1) has the edge polynomial phi(z^d), whose
    roots are closed under z -> zeta_d z; a field without the d-th roots of
    unity leaves some of them out, and the expander would ask for them at
    that edge.  Slopes at or past a pinned ``trunc`` are never expanded, and
    the automatic start depth lies above every first-polygon slope.  The
    field asked for is :func:`~polartree.exactalg.unity_conductor`."""
    need = 1
    for h in (f, g):
        for edge in _polygon_data(h.terms, 1):
            if trunc is None or edge.slope < trunc:
                need = math.lcm(need, edge.slope.denominator)
    conductor = f.field.conductor
    enlarged = unity_conductor(conductor, need)
    if enlarged != conductor:
        raise NeedsLargerField(enlarged)


@lru_cache(maxsize=None)
def _largest_conductor(cap: int) -> int:
    """The largest N with phi(N) <= cap; phi(N) >= sqrt(N / 2) bounds the
    search.  Computed on first use, not at import."""
    return max(n for n in range(1, 2 * cap**2 + 1) if _euler_phi(n) <= cap)


def _refuse_germ_bundles(roots, conductor: int) -> None:
    """Refuse a germ bundle, unless its coefficients are rational multiples
    of roots of unity that a larger field holds: then ask for that field."""
    bundles = [r for r in roots if r.coeff_poly is not None]
    if not bundles:
        return
    # a root of unity in Q(zeta_N) has an order dividing lcm(N, 2) <= 2N, so
    # a bundle that a field below the degree cap resolves has z^k = u modulo
    # its coefficient polynomial for a k up to twice the largest such N
    top = _largest_conductor(MAX_FIELD_DEGREE)
    for r in bundles:
        hint = radical_conductor(r.coeff_poly, conductor, 2 * top)
        if hint is not None and hint != conductor:
            raise NeedsLargerField(hint)
    r = bundles[0]
    raise UnresolvedBranch(
        r.count,
        f"edge coefficient polynomial {r.coeff_poly} has no root in Q(zeta_{conductor})",
    )


def _reject_repeated_components(f: BiPoly, g: BiPoly) -> None:
    """Refuse a repeated component of f*g through the origin: its roots
    coincide, so no truncation depth separates them."""
    h = f * g
    for comp, m in multiplicity_split(h.shift_y(-h.y_content())):
        if m > 1 and (0, 0) not in comp.terms:
            raise InputViolatesSimplicity(
                f"f*g has the repeated factor ({comp})^{m} through the origin"
            )


def _validate_germ(h: BiPoly, name: str) -> None:
    if h.is_zero():
        raise InputError(f"{name} is the zero polynomial")
    if (0, 0) in h.terms:
        raise InputError(f"{name} does not vanish at the origin")
    low = min(j for _, j in h.terms)
    if low < 0:
        raise NegativeExponentWithoutLaurent(
            f"{name}: y^{low} is Laurent input, which only the reduce command accepts")


# ---------------------------------------------------------------------------
# report document
# ---------------------------------------------------------------------------

DOCUMENT_VERSION = 1


def _frac(x) -> str:
    if x is INF:
        return "inf"
    return str(x)


def run_document(run: Run) -> dict:
    """The versioned, JSON-compatible report object for a full run."""
    tree = run.tree
    doc: dict = {
        "format_version": DOCUMENT_VERSION,
        "field_conductor": run.field.conductor,
        "ramification": tree.ram,
        "truncation": _frac(run.oracle.truncation),
        "inputs": {
            "f": str(run.f),
            "g": str(run.g),
            "E1": tree.E1,
            "E2": tree.E2,
            "p": tree.p,
            "q": tree.q,
        },
        "roots": {
            "f": [str(r.series) for r in run.f_expansion.roots],
            "g": [str(r.series) for r in run.g_expansion.roots],
        },
    }
    bars = []
    for bar in sorted(tree.finite_bars(), key=lambda b: (b.height, b.id)):
        ana = run.analyses[bar.id]
        trunks = []
        for z, trunk in tree.growth_points(bar):
            trunks.append({
                "point": str(z),
                "bimultiplicity": list(trunk.bimultiplicity),
                "collinear_point": z in ana.collinear_points,
                "postbar": trunk.top_bar_id
                if tree.bars[trunk.top_bar_id].is_finite() else None,
            })
        bars.append({
            "id": bar.id,
            "height": _frac(bar.height),
            "prefix": str(bar.prefix),
            "nu_f": _frac(ana.nu_f),
            "nu_g": _frac(ana.nu_g),
            "collinear": ana.collinear,
            "purely_noncollinear": ana.purely_noncollinear,
            "mero_numerator": str(ana.mero_numerator),
            "poles": [str(z) for z in ana.noncollinear_points],
            "mero_zeros": {str(z): m for z, m in sorted(
                ana.mero_zeros.items(), key=lambda kv: kv[0].sort_key())},
            "mero_zeros_unresolved": ana.mero_unresolved,
            "m": ana.m,
            "m_star": ana.m_star,
            "trunks": trunks,
            "predicted": None if ana.predicted is None else {
                str(z): c for z, c in sorted(
                    ana.predicted.items(), key=lambda kv: kv[0].sort_key())
            },
            "predicted_total": ana.predicted_total,
        })
    doc["tree"] = {"ground": tree.ground_id, "max_contact": _frac(tree.max_contact)}
    doc["bars"] = bars
    doc["conjugacy_classes"] = [sorted(c) for c in run.classes]
    records = []
    for r in run.oracle.records:
        rec = {
            "series": str(r.series),
            "multiplicity": r.multiplicity,
            "branches": r.branches,
            "climb": [
                {"bar": b, "point": None if z is None else str(z)}
                for b, z in r.trace.path
            ],
        }
        if r.branch_exp is not None:
            rec["coefficient_poly"] = str(r.coeff_poly)
            rec["coefficient_exponent"] = _frac(r.branch_exp)
        if r.trace.leave_bar_id is not None:
            rec["leave"] = {
                "bar": r.trace.leave_bar_id,
                "point": None if r.trace.leave_point is None
                else str(r.trace.leave_point),
                "height": _frac(r.trace.leave_height),
            }
        elif r.trace.bounded_by is not None:
            rec["bounded"] = {
                "by": r.trace.bounded_by,
                "height": _frac(r.trace.leave_height),
            }
        records.append(rec)
    doc["oracle"] = {
        "jacobian": str(run.oracle.jac),
        "y_content": run.oracle.y_content,
        "x_order": run.oracle.x_order,
        "records": records,
    }
    doc["verification"] = {
        "passed": run.verification.passed,
        "checks": [
            {
                "family": c.family,
                "bar": c.bar_id,
                "point": c.point,
                "predicted": str(c.predicted),
                "observed": str(c.observed),
                "passed": c.passed,
                "note": c.note,
            }
            for c in run.verification.comparisons
        ],
    }
    classes = []
    for rep in run.factors.classes:
        entry = {
            "id": rep.class_id,
            "bars": list(rep.bar_ids),
            "height": _frac(rep.height),
            "collinear": rep.collinear,
        }
        if not rep.collinear:
            entry.update({
                "nu_f": _frac(rep.nu_f),
                "nu_g": _frac(rep.nu_g),
                "m_star": rep.m_star,
                "p_order": rep.p_order,
                "p_truncation": str(rep.p_truncation),
                "q_order": rep.q_order,
                "intersections": {
                    "f_formula": _frac(rep.i_f_formula),
                    "g_formula": _frac(rep.i_g_formula),
                    "c_formula": _frac(rep.i_c_formula),
                    "f_direct": _frac(rep.i_f_direct),
                    "g_direct": _frac(rep.i_g_direct),
                    "f_truncated": _frac(rep.i_f_trunc),
                    "g_truncated": _frac(rep.i_g_trunc),
                },
                "leave_heights": [
                    [_frac(h), c] for h, c in run.factors.leave_data[rep.class_id]
                ],
                "leave_group_heights": [
                    [_frac(h), c] for h, c in run.factors.p_leave_data[rep.class_id]
                ],
            })
        classes.append(entry)
    doc["factors"] = {
        "classes": classes,
        "ground_order": run.factors.q_ground_order,
        "y_content": run.factors.y_content,
        "x_order": run.factors.x_order,
        "partition_complete": run.factors.complete,
    }
    return doc


def mero_function_str(ana: BarAnalysis) -> str:
    """The bar's rational function as numerator over its pole product."""
    if ana.collinear:
        return "0"
    parts = []
    for z in ana.noncollinear_points:
        zs = str(z)
        if zs == "0":
            parts.append("z")
        elif zs.startswith("-"):
            parts.append(f"(z + {zs[1:]})")
        else:
            parts.append(f"(z - {zs})")
    num = str(ana.mero_numerator)
    if any(op in num[1:] for op in "+-") or " " in num:
        num = f"({num})"
    return f"{num} / ({''.join(parts)})"


def render_run(run: Run) -> str:
    """Human rendering of a run document: tree, table, oracle, verification."""
    out = []
    out.append(f"field: Q(zeta_{run.field.conductor})   "
               f"truncation: O(y^{run.oracle.truncation})")
    out.append(f"f = {run.f}")
    out.append(f"g = {run.g}")
    out.append("")
    out.append(render_tree(run.tree, run.analyses))
    out.append("bar analysis:")
    for bar in sorted(run.tree.finite_bars(), key=lambda b: (b.height, b.id)):
        ana = run.analyses[bar.id]
        flag = "collinear" if ana.collinear else (
            "purely non-collinear" if ana.purely_noncollinear else "mixed")
        out.append(
            f"  {bar.id}: h={bar.height} nu_f={ana.nu_f} nu_g={ana.nu_g} "
            f"{flag} M(z) = {mero_function_str(ana)} m={ana.m} m*={ana.m_star}"
        )
        if ana.predicted is not None:
            preds = ", ".join(
                f"{z}:{c}" for z, c in sorted(
                    ana.predicted.items(), key=lambda kv: kv[0].sort_key())
            )
            extra = (f" (+{ana.mero_unresolved} at unresolved zeros)"
                     if ana.mero_unresolved else "")
            out.append(f"      predicted climbers: {{{preds}}}{extra} "
                       f"total {ana.predicted_total}")
    out.append("")
    out.append(f"jacobian: {run.oracle.jac}")
    out.append(f"polar roots: x-order {run.oracle.x_order}, "
               f"y-content {run.oracle.y_content}")
    for r in run.oracle.records:
        tag = f" x{r.count}" if r.count > 1 else ""
        if r.trace.leave_bar_id:
            where = (f"leaves on {r.trace.leave_bar_id} at "
                     f"{r.trace.leave_point if r.trace.leave_point is not None else 'unresolved'}")
        else:
            where = (f"bounded by {r.trace.bounded_by} "
                     f"(separates at height {r.trace.leave_height})")
        out.append(f"  {r.series}{tag}: {where}")
    out.append("")
    out.append(run.verification.render())
    return "\n".join(out)
