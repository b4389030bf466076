"""The cut Newton-Puiseux expansion against the expansion that keeps every term.

``npsolve._Expander`` drops, at each Newton node, the terms that cannot reach
a coefficient below the target, and decides an empty x^0 column on a cut
path by substituting the prefix exactly.  The reference below is the
expander as it was before the cut: every term is carried through every
substitution, an empty x^0 column is an exact root, and each steep edge
emits its own truncated root.  The pipeline runs the three benchmark pools
on the reference, recording every ``expand_roots`` call: the germs at their
start depth and at their final depth, and the Jacobian at the oracle depth.
The cut expansion must give the same outcome on each call, term for term
(roots, multiplicities, branches, unresolved bundles, or the same error),
and each of its substitutions must equal the per-term reference of the
Taylor shift (``kernel_references``).  Each distinct input of
``squarefree_decompose`` in the pool runs is decomposed again by Yun's
algorithm alone, without the certificate modulo a prime.

The same pool runs check the tree reads that replaced series comparisons:
the merge walk of ``contact_order``, and the one behind a polar root's
contact and bar-relative coefficient, against the difference series, and
the truncated intersection sums read from each P-group member's climb
against the sums over its cut arc's series.
"""

import importlib.util
import math
from fractions import Fraction as F
from pathlib import Path

import kernel_references
import pytest

from polartree import (
    FIXTURES,
    INF,
    CycloField,
    Indeterminate,
    PuiseuxSeries,
    UniPoly,
    contact_order,
    expand_roots,
    jacoracle,
    parse_expression,
    pipeline,
)
from polartree.cli import run as cli_run
from polartree import baranalysis, exactalg, npsolve
from polartree.errors import InternalInconsistency, NeedsLargerField, PolartreeError
from polartree.puiseux import ExpandedRoot, vanishes_along
from polartree.factorrep import order_sum_via_contacts, order_sum_via_trace
from polartree.treemodel import ArcTrace

ROOT = Path(__file__).resolve().parents[1]


# -- the reference: the expansion before the cut ------------------------------


class _UncutExpander(npsolve._Expander):
    def run(self, component, multiplicity):
        self._recurse(component.terms, 1, F(0), [], multiplicity, 0)

    def _recurse(self, terms, q, base, prefix, multiplicity, stage):
        if stage > npsolve.MAX_STAGES:
            raise npsolve.TruncationBudgetExceeded(
                f"expansion exceeded {npsolve.MAX_STAGES} Newton-polygon stages"
            )
        xmin = min(i for (i, _) in terms)
        if xmin >= 1:
            self._emit_exact(list(prefix), multiplicity)
            terms = {(i - xmin, j): c for (i, j), c in terms.items()}
            if xmin > 1:
                raise InternalInconsistency("repeated branch in squarefree expansion")
        for edge in npsolve._polygon_data(terms, q):
            abs_exp = base + edge.slope
            if abs_exp >= self.target:
                self._emit_truncated(list(prefix), multiplicity, edge.extent)
                continue
            epoly = npsolve._edge_poly(terms, edge, self.field)
            found, _rest = npsolve.roots_in_field(epoly, self.candidates)
            chi = epoly.monic()  # the located roots divided out one at a time
            for c, r in found:
                for _ in range(r):
                    chi = chi.exact_div(UniPoly(self.field, (-c, self.field.one), "z"))
            if chi.degree():
                enlarge = self._field_hint(edge, epoly, chi)
                if enlarge is not None:
                    raise NeedsLargerField(enlarge)
                self._emit_unresolved(list(prefix), abs_exp, chi, multiplicity)
            for c, _r in found:
                sub, sub_q = _uncut_substitute(terms, q, edge.slope, c, self.field)
                self._recurse(sub, sub_q, abs_exp, list(prefix) + [(abs_exp, c)],
                              multiplicity, stage + 1)


def _uncut_substitute(terms, q, m, c, field):
    new_q = q * m.denominator // math.gcd(q, m.denominator)
    scale = new_q // q
    step = m.numerator * (new_q // m.denominator)
    out = {}
    cpow = [field.one]
    rows = {}
    for (i, j), a in terms.items():
        row = rows.get(i)
        if row is None:
            while len(cpow) <= i:
                cpow.append(cpow[-1] * c)
            row = rows[i] = [cpow[i - k] * math.comb(i, k) for k in range(i)] + [1]
        for k in range(i + 1):
            coeff = a * row[k]
            key = (k, j * scale + i * step)
            cur = out.get(key)
            out[key] = coeff if cur is None else cur + coeff
    out = {k: v for k, v in out.items() if not v.is_zero()}
    mu = min(j for (_, j) in out)
    return {(i, j - mu): v for (i, j), v in out.items()}, new_q


def _reference_expand_roots(Fp, target, extra_candidates=()):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(npsolve, "_Expander", _UncutExpander)
        return expand_roots(Fp, target, extra_candidates)


def _outcome(expand, *args, **kwargs):
    try:
        return _described(expand(*args, **kwargs))
    except PolartreeError as err:  # the same error must come out of both
        return _described(err)


def _described(e):
    if isinstance(e, PolartreeError):
        return type(e).__name__, str(e)
    return (
        [(r.series.terms, r.series.trunc, r.multiplicity, r.branches,
          r.branch_exp, str(r.coeff_poly)) for r in e.roots],
        e.y_content, e.x_order,
    )


# -- the three benchmark pools, run once ---------------------------------------


def _load_workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def pools():
    """Every pool pair run through ``analyze_pair`` on the uncut expansion,
    with each ``expand_roots`` call (by call site) and its outcome, the
    arguments of each ``build_tree`` call, each distinct input of
    ``squarefree_decompose`` with its output, the comparison of every
    ``ExpandedRoot._known_diff`` read with the difference series, each
    ``roots_in_field`` call with its result, and each component that
    ``multiplicity_split`` gives ``expand_roots``."""
    workloads = _load_workloads()
    calls = {"germ": [], "oracle": []}
    trees = []
    runs = []
    splits = {}  # each distinct squarefree_decompose input -> its output
    walks = []  # True per placement read that matched the subtraction
    located = []  # (p, candidates, roots_in_field(p, candidates))
    components = []

    def recording(site):
        def wrapper(*args, **kwargs):
            try:
                result = _reference_expand_roots(*args, **kwargs)
            except PolartreeError as err:
                calls[site].append((args, kwargs, _described(err)))
                raise
            calls[site].append((args, kwargs, _described(result)))
            return result
        return wrapper

    def recording_tree(*args):
        trees.append(args)
        return build_tree(*args)

    def recording_split(p):
        out = squarefree_decompose(p)
        splits[p] = out
        return out

    def recording_roots(p, extra_candidates=()):
        out = roots_in_field(p, extra_candidates)
        located.append((p, list(extra_candidates), out))
        return out

    def recording_components(Fstar):
        out = multiplicity_split(Fstar)
        components.extend(comp for comp, _m in out)
        return out

    def checked_walk(root, prefix):
        first, cut, at_branch = known_diff(root, prefix)
        got = ((first[0], first[1] - first[2]) if first else None), cut, at_branch
        walks.append(got == _known_diff_by_subtraction(root, prefix) or (root, prefix))
        return first, cut, at_branch

    build_tree = pipeline.build_tree
    squarefree_decompose = exactalg.squarefree_decompose
    known_diff = ExpandedRoot._known_diff
    roots_in_field = exactalg.roots_in_field
    multiplicity_split = npsolve.multiplicity_split
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ExpandedRoot, "_known_diff", checked_walk)
        mp.setattr(pipeline, "expand_roots", recording("germ"))
        mp.setattr(jacoracle, "expand_roots", recording("oracle"))
        mp.setattr(pipeline, "build_tree", recording_tree)
        mp.setattr(npsolve, "roots_in_field", recording_roots)
        mp.setattr(baranalysis, "roots_in_field", recording_roots)
        mp.setattr(npsolve, "multiplicity_split", recording_components)
        for module in (exactalg, npsolve, jacoracle):
            mp.setattr(module, "squarefree_decompose", recording_split)
        for workload in workloads.WORKLOADS:
            for _id, f, g in workloads.pool_pairs(workload, FIXTURES):
                runs.append(pipeline.analyze_pair(f, g))
    return calls, trees, runs, splits, walks, located, components


@pytest.mark.parametrize("site", ["germ", "oracle"])
def test_cut_expansion_matches_uncut_expansion_on_the_pools(pools, site):
    # every substitution of the cut expansion also matches the per-term
    # reference of the Taylor shift
    substitutions = []

    def checked(*args):
        got = substitute(*args)
        assert got == kernel_references.substitute(*args)
        substitutions.append(args[3].is_rational())
        return got

    substitute = npsolve._substitute
    calls = pools[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(npsolve, "_substitute", checked)
        for args, kwargs, want in calls[site]:
            assert _outcome(expand_roots, *args, **kwargs) == want, (str(args[0]), args[1])
    assert substitutions.count(True) > 1000 and substitutions.count(False) > 100


def test_squarefree_certificate_matches_yun_on_the_pools(pools):
    splits = pools[3]
    assert len(splits) > 1000
    for p, got in splits.items():
        assert got == kernel_references.squarefree(p), str(p)


def test_pool_calls_cover_start_final_and_oracle_depths(pools):
    calls, _trees, runs, *_ = pools
    assert len(runs) == 14 + 130 + 128
    assert all(run.verification.passed for run in runs)
    germ_depths = {(str(args[0]), args[1]) for args, _, _ in calls["germ"]}
    starts = {}
    for poly, depth in germ_depths:
        starts.setdefault(poly, set()).add(depth)
    # some germ is expanded at more than one depth: the start depth follows
    # the y-degree of both germs, and one germ meets different partners.
    # Deepening and settling are pinned by the germ-stage tests in test_cli.py
    assert any(len(depths) > 1 for depths in starts.values())
    assert len(calls["oracle"]) >= len(runs)


def test_split_components_have_y_content_zero(pools):
    # expand_roots hands each component to the expander without a y-shift
    components = pools[6]
    assert len(components) > 500
    assert [str(c) for c in components if c.y_content() != 0] == []


def test_rest_times_located_roots_is_the_monic_input(pools):
    located = pools[5]
    assert len(located) > 1000
    assert any(rest.degree() for _p, _c, (_roots, rest) in located)
    for p, candidates, (roots, rest) in located:
        assert rest.var == p.var
        assert rest * kernel_references.located_product(roots, p) == p.monic(), (
            str(p), [str(c) for c in candidates])


def test_mero_zeros_hold_each_growth_point_multiplicity(pools):
    # m* and the C-counts read a growth point's multiplicity as a zero of
    # the bar's numerator from mero_zeros; repeated division is the reference
    runs = pools[2]
    points = 0
    for run in runs:
        for bar in run.tree.finite_bars():
            ana = run.analyses[bar.id]
            if ana.collinear:
                continue
            for z, _trunk in run.tree.growth_points(bar):
                want = kernel_references.root_multiplicity(ana.mero_numerator, z)
                assert ana.mero_zeros.get(z, 0) == want, (bar.id, str(z))
                points += 1
    assert points > 2000


def _contact_by_subtraction(a, b):
    diff = kernel_references.series_sub(a, b)
    if diff.terms:
        return diff.terms[0][0]
    if diff.trunc is INF:
        return INF
    unknown = PuiseuxSeries(a.field, (), diff.trunc)  # prints as O(y^e)
    raise Indeterminate(f"contact order unresolved: series agree up to {unknown}")


def _known_diff_by_subtraction(root, prefix):
    """``ExpandedRoot._known_diff`` as it was: the first term of the
    difference series below the cut, the cut, and whether the branch point
    is the cut."""
    diff = kernel_references.series_sub(root.series, prefix)
    cut, at_branch = diff.trunc, False
    if root.branch_exp is not None and (cut is INF or root.branch_exp <= cut):
        cut, at_branch = root.branch_exp, True
    terms = [(e, c) for e, c in diff.terms if cut is INF or e < cut]
    return (terms[0] if terms else None), cut, at_branch


def test_placement_walk_matches_series_difference(pools):
    walks = pools[4]
    assert len(walks) > 5000
    assert [w for w in walks if w is not True] == []


def _contact_or_error(contact, a, b):
    try:
        return contact(a, b)
    except Indeterminate as e:
        return str(e)


def test_contact_walk_matches_series_difference(pools):
    trees = pools[1]
    compared = 0
    for alphas, betas, *_ in trees:
        roots = list(alphas) + list(betas)
        for k, a in enumerate(roots):
            for b in roots[k + 1:]:
                got = _contact_or_error(contact_order, a, b)
                assert got == _contact_or_error(_contact_by_subtraction, a, b)
                assert got == _contact_or_error(contact_order, b, a)
                compared += 1
    assert compared > 5000


def test_contact_walk_edge_cases():
    K = CycloField(1)
    s = lambda terms, t=INF: PuiseuxSeries(K, [(F(e), c) for e, c in terms], t)
    cases = [
        (s([(1, 1)]), s([(1, 1)])),                       # equal exact
        (s([(1, 1)]), s([(1, 1), (2, 3)])),               # one longer
        (s([(1, 1), (3, 2)], F(3)), s([(1, 1)])),         # difference at the cut
        (s([(1, 1)], F(5, 2)), s([(1, 1), (2, 1)], F(4))),
        (s([(1, 1), (2, 2)]), s([(1, 1), (2, 3)], F(2))),
        (s([]), s([], F(1))),
        (s([(1, 2)]), s([(1, 3)])),
        (s([(1, 2)], F(1)), s([(1, 3)])),
        # a term of one series at the other's truncation decides nothing
        (s([(1, 1), (2, 1)]), s([(1, 1)], F(2))),
        (s([(1, 1)], F(2)), s([(1, 1), (2, 1)])),
    ]
    for a, b in cases:
        assert (_contact_or_error(contact_order, a, b)
                == _contact_or_error(_contact_by_subtraction, a, b))


def _cut_record_sum(tree, kind, r):
    """The truncated sum as it was computed before: contacts of the cut arc's
    series with every germ root."""
    bar = tree.bars[r.trace.leave_bar_id]
    if r.trace.leave_point is not None:
        cut = bar.prefix + PuiseuxSeries(tree.field, [(bar.height, r.trace.leave_point)])
        rec = ExpandedRoot(cut, r.count, trace=ArcTrace(()))
    else:
        rec = ExpandedRoot(bar.prefix, r.multiplicity, r.branches, bar.height,
                           r.trace.leave_poly, trace=r.trace)
    return order_sum_via_contacts(tree, kind, rec) * rec.count


def test_truncated_sums_from_the_climb_match_the_cut_series(pools):
    runs = pools[2]
    members = 0
    for run in runs:
        for rep in run.factors.classes:
            if rep.collinear:
                continue
            for idx in rep.p_records:
                r = run.oracle.records[idx]
                for kind in "fg":
                    assert (order_sum_via_trace(run.tree, kind, r.trace) * r.count
                            == _cut_record_sum(run.tree, kind, r))
                members += 1
    assert members > 500


# -- the bundle rule -------------------------------------------------------------


def test_roots_past_the_target_are_one_bundle_per_node():
    # x = y + y^5 and x = y + y^6 share y + O(y^3); past the target they
    # would separate on two edges, of slopes 4 and 5 over the prefix y
    K = CycloField(1)
    e = expand_roots(parse_expression("(x-y-y^5)*(x-y-y^6)", K), F(3))
    assert [(str(r.series), r.multiplicity, r.branches) for r in e.roots] == [
        ("y + O(y^3)", 1, 2)
    ]
    # the uncut expansion emitted one root per steep edge
    ref = _reference_expand_roots(parse_expression("(x-y-y^5)*(x-y-y^6)", K), F(3))
    assert [r.branches for r in ref.roots] == [1, 1]


def test_cli_bundle_below_the_pinned_depth_exits_3(capsys):
    code = cli_run(["verify", "--f", "(x-y-y^5)*(x-y-y^6)", "--g", "x", "--trunc", "3"])
    err = capsys.readouterr().err
    assert code == 3 and "limitation" in err and err.count("\n") == 1


@pytest.mark.parametrize("text, roots", [
    # along x = y^2 the cut drops y^9 (x + y), so the x^0 column is empty,
    # and only the substitution shows that y^2 is no root
    ("(x - y^2 - y^9)*(x + y)", ["-y", "y^2 + O(y^4)"]),
    # the cut leaves x^2 along x = y^2: y^2 is an exact simple root
    ("(x - y^2)*(x - y^2 - y^10)", ["y^2", "y^2 + O(y^4)"]),
    # the cut leaves x^3 - y^2 x^2: 0 is no root, two roots lie past y^4
    ("(x - y^2)*(x^2 - y^20)", ["O(y^4)", "y^2"]),
])
def test_cut_path_decides_an_empty_x0_column_exactly(text, roots):
    K = CycloField(1)
    tested = []

    def recording(*args):
        tested.append(args)
        return vanishes_along(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(npsolve, "vanishes_along", recording)
        got = _outcome(expand_roots, parse_expression(text, K), F(4))
    assert tested
    assert got == _outcome(_reference_expand_roots, parse_expression(text, K), F(4))
    assert sorted(str(PuiseuxSeries(K, t, tr)) for t, tr, *_ in got[0]) == roots
