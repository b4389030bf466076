"""Stages after ``build_tree`` read the tree instead of the root series.

``conjugacy_classes`` takes the orbits of the conjugation map on bars,
``compute_nu`` reads the contact table, and ``_truncation_product``
multiplies polynomials in (x, y^(1/D)).  The references below are the
earlier implementations, which worked from the root series: they matched
every conjugate root series against the roots and merged the bar chains,
capped each root's contact with the bar prefix by series subtraction, and
multiplied a polynomial in x with ``PuiseuxSeries`` coefficients.  The two
must agree on the holomorphic corpus and on three benchmark pool sets.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

import kernel_references
import pytest

from polartree import FIXTURES, INF, BiPoly, InternalInconsistency, PuiseuxSeries
from polartree import TruncationTooShort

from conftest import pair_run


def _reference_conjugacy_classes(tree):
    parent = {b: b for b in tree.bars}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    chains = {}
    for rid in tree.roots:
        chain = [b for b in tree.bars.values() if rid in b.root_ids]
        chain.sort(key=lambda b: (b.height is INF, 0 if b.height is INF else b.height))
        chains[rid] = [b.id for b in chain]
    ids = sorted(tree.roots)

    def match_root(s):
        for rid in ids:
            t = tree.roots[rid].series
            cut = min((c for c in (s.trunc, t.trunc) if c is not INF), default=None)
            if cut is None:
                if s.terms == t.terms:
                    return rid
                continue
            if ([(e, c) for e, c in s.terms if e < cut]
                    == [(e, c) for e, c in t.terms if e < cut]
                    and cut > tree.max_contact):
                return rid
        return None

    for k in range(1, tree.ram):
        for rid in ids:
            m = match_root(kernel_references.conjugate_series(tree.roots[rid].series, k, tree.ram))
            if m is None:
                raise TruncationTooShort("conjugate did not match")
            for b1, b2 in zip(chains[rid], chains[m]):
                ra, rb = find(b1), find(b2)
                if ra != rb:
                    parent[ra] = rb
    classes = {}
    for b in parent:
        classes.setdefault(find(b), set()).add(b)
    return sorted((frozenset(v) for v in classes.values()), key=lambda c: sorted(c)[0])


def _reference_nu(tree, bar, kind):
    total = Fraction(tree.E1 if kind == "f" else tree.E2)
    for info in tree.roots.values():
        if info.kind != kind:
            continue
        diff = kernel_references.series_sub(info.series, bar.prefix)
        if diff.terms:
            total += min(diff.terms[0][0], bar.height)
        elif diff.trunc is INF or diff.trunc >= bar.height:
            total += bar.height
        else:
            raise TruncationTooShort("contact with bar prefix unknown")
    return total


def _reference_truncation_product(tree, records, indices):
    field = tree.field
    one = PuiseuxSeries(field, [(Fraction(0), field.one)])
    acc = {0: one}

    def mul_in(factor):
        nonlocal acc
        out = {}
        for i, s in acc.items():
            for j, t in factor.items():
                out[i + j] = out[i + j] + s * t if i + j in out else s * t
        acc = {k: v for k, v in out.items() if v.terms}

    for idx in indices:
        r = records[idx]
        bar = tree.bars[r.trace.leave_bar_id]
        lam, h = bar.prefix, bar.height
        if r.trace.leave_point is not None:
            cut = lam + PuiseuxSeries(field, [(h, r.trace.leave_point)])
            for _ in range(r.count):
                mul_in({1: one, 0: kernel_references.series_neg(cut)})
            continue
        chi = r.trace.leave_poly.monic()
        d = chi.degree()
        bundle = {}
        xm_lam = {0: one}  # (x - lam)^k
        for k in range(d + 1):
            if not chi[k].is_zero():
                for i, s in xm_lam.items():
                    add = s * PuiseuxSeries(field, [(h * (d - k), chi[k])])
                    bundle[i] = bundle[i] + add if i in bundle else add
            nxt = {}
            for i, s in xm_lam.items():
                nxt[i + 1] = nxt[i + 1] + s if i + 1 in nxt else s
                if lam.terms:
                    neg = kernel_references.series_neg(s * lam)
                    nxt[i] = nxt[i] + neg if i in nxt else neg
            xm_lam = nxt
        for _ in range(r.multiplicity):
            mul_in(bundle)
    terms = {}
    for i, s in acc.items():
        assert s.trunc is INF
        for e, c in s.terms:
            if e.denominator != 1:
                raise InternalInconsistency("not conjugation-closed")
            terms[(i, int(e))] = c
    return BiPoly(field, terms)


def _pool(workload, index):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [(f, g) for _id, f, g in workloads.pool_set(workload, index, FIXTURES)]


POOLS = [("corpus", 0), ("growing", 4), ("ramified", 1), ("ramified", 4)]


@pytest.mark.parametrize("workload, index", POOLS)
def test_tree_reads_match_series_references(workload, index):
    pairs = _pool(workload, index)
    assert len(pairs) == {"corpus": 14, "growing": 5, "ramified": 16}[workload]
    orbits = unresolved = products = 0
    for f, g in pairs:
        run = pair_run(f, g)
        tree = run.tree
        # the run's classes, orders and products come from conjugacy_classes,
        # compute_nu and _truncation_product
        assert run.classes == _reference_conjugacy_classes(tree)
        orbits += sum(len(c) > 1 for c in run.classes)
        for bar in tree.finite_bars():
            ana = run.analyses[bar.id]
            assert (ana.nu_f, ana.nu_g) == (_reference_nu(tree, bar, "f"),
                                             _reference_nu(tree, bar, "g"))
        records = run.oracle.records
        for rep in run.factors.classes:
            if rep.collinear:
                continue
            assert rep.p_truncation == _reference_truncation_product(
                tree, records, rep.p_records)
            products += 1
            unresolved += sum(records[i].trace.leave_point is None
                              for i in rep.p_records)
    # the sets exercise what the new code replaces
    assert products > 0
    if workload == "ramified":
        assert orbits > 0 and unresolved > 0
    if workload == "growing":
        assert unresolved > 0
