"""Per-bar numerical analysis and the counting predictions.

For each finite bar the analysis records the y-orders of the two germs
along a generic arc through the bar, the determinant attached to every
growth point, the associated rational function (as a numerator over the
product of the non-collinear poles), its zeros in the working field, and
the per-point climb-count predictions with their totals.

Collinearity is an exact zero test on determinants of exact rationals;
there are no tolerances anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InternalInconsistency,
    NotApplicable,
)
from .exactalg import CycloRational, UniPoly, roots_in_field
from .treemodel import Bar, Tree, basics_of, cover_of, repair_of


@dataclass(frozen=True)
class BarAnalysis:
    nu_f: Fraction
    nu_g: Fraction
    deltas: dict[CycloRational, Fraction]
    collinear_points: tuple[CycloRational, ...]
    noncollinear_points: tuple[CycloRational, ...]
    purely_noncollinear: bool
    mero_numerator: UniPoly
    mero_zeros: dict[CycloRational, int]
    mero_unresolved: int
    mero_unresolved_poly: UniPoly | None
    m: int
    m_star: int
    tau_total: int
    predicted: dict[CycloRational, int] | None
    predicted_total: int | None

    @property
    def n(self) -> int:
        """The number of poles, the non-collinear growth points."""
        return len(self.noncollinear_points)

    @property
    def collinear(self) -> bool:
        return self.n == 0


def compute_nu(tree: Tree, bar: Bar, which: str) -> Fraction:
    """y-order of f (or g) along a generic arc through the bar.

    Closed form: the y-content exponent plus the sum over the germ's roots
    of min(contact with the bar prefix, bar height).  A root off the bar
    meets the prefix where it meets the bar's first root, below the height,
    so the tree's contact table gives every term.
    """
    if not bar.is_finite():
        raise NotApplicable("bars of infinite height have no generic arc order")
    kind = "f" if which == "f" else "g"
    total = Fraction(tree.E1 if kind == "f" else tree.E2)
    first = bar.root_ids[0]
    for info in tree.roots.values():
        if info.kind != kind:
            continue
        total += bar.height if info.id == first else min(
            tree.contacts[(info.id, first)], bar.height)
    return total


def mero_function(tree: Tree, bar: Bar, nu_f: Fraction, nu_g: Fraction):
    """Numerator of the bar's rational function and its pole set.

    The function is the sum over growth points of delta/(z - point); terms
    with a zero determinant drop out, so the poles are exactly the
    non-collinear points and the numerator is automatically coprime to the
    denominator.
    """
    field = tree.field
    deltas: dict[CycloRational, Fraction] = {}
    for z, trunk in tree.growth_points(bar):
        p_k, q_k = trunk.bimultiplicity
        deltas[z] = nu_f * q_k - nu_g * p_k
    poles = [z for z, d in deltas.items() if d != 0]
    poles.sort(key=lambda z: z.sort_key())
    # the numerator is sum over the poles w of delta_w P / (z - w), with the
    # pole product P = prod (z - w).  By synthetic division, coefficient
    # k - 1 of P / (z - w) is sum_{i >= k} P[i] w^(i-k); so coefficient
    # k - 1 of the sum is sum_{i >= k} P[i] s[i-k], s[t] = sum delta_w w^t
    n = len(poles)
    prod = UniPoly.constant(field, 1)
    for w in poles:
        prod = prod * UniPoly(field, (-w, field.one))
    s = [field.zero] * n
    for w in poles:
        v = field.rational(deltas[w])
        s[0] = s[0] + v
        if not w.is_zero():
            for t in range(1, n):
                v = v * w
                s[t] = s[t] + v
    P = prod.coeffs  # P[n] = 1
    num = [sum((P[i] * s[i - k] for i in range(k, n)), s[n - k]) for k in range(1, n + 1)]
    return deltas, UniPoly(field, num), poles


def analyze_bar(tree: Tree, bar: Bar) -> BarAnalysis:
    """Full classification of one finite bar."""
    nu_f = compute_nu(tree, bar, "f")
    nu_g = compute_nu(tree, bar, "g")
    deltas, num, poles = mero_function(tree, bar, nu_f, nu_g)
    coll_pts = tuple(
        z for z, _t in tree.growth_points(bar) if deltas[z] == 0
    )
    purely = (not coll_pts) and bool(poles)
    n = len(poles)
    tau_total = sum(t.total_multiplicity for _z, t in tree.growth_points(bar))

    if not n:
        return BarAnalysis(
            nu_f, nu_g, deltas, coll_pts, (), False,
            num, {}, 0, None, 0, 0, tau_total, None, None,
        )

    # the growth points are candidates, so each zero among them is located
    # with its exact multiplicity even when other zeros stay unresolved
    located, rest = roots_in_field(
        num, [z for z, _t in tree.growth_points(bar)]
    )
    mero_zeros = {z: mult for z, mult in located}
    m = num.degree()
    if n < m + 1:
        raise InternalInconsistency(
            f"pole count {n} below zero count {m} + 1 on {bar.id}"
        )
    m_star = m - sum(mero_zeros.get(z, 0) for z in coll_pts)

    unresolved = rest.degree()
    if unresolved and any(rest.vanishes_at(z) for z, _t in tree.growth_points(bar)):
        raise InternalInconsistency("unresolved zero factor vanishes at a growth point")

    predicted: dict[CycloRational, int] = {}
    points = set(deltas) | set(mero_zeros)
    for z in points:
        trunk = tree.trunk_at(bar, z)
        tau = trunk.total_multiplicity if trunk else 0
        if z in mero_zeros:
            mu = mero_zeros[z]
        elif z in poles:
            mu = -1
        else:
            mu = 0
        count = tau + mu
        if count < 0:
            raise InternalInconsistency(
                f"negative predicted count {count} at {z} on {bar.id}"
            )
        if count:
            predicted[z] = count
    predicted_total = tau_total + m - n
    if predicted_total < 0:
        raise InternalInconsistency(
            f"negative predicted total {predicted_total} on {bar.id}"
        )
    if sum(predicted.values()) + unresolved != predicted_total:
        raise InternalInconsistency(
            f"per-point predictions do not sum to the total on {bar.id}"
        )
    return BarAnalysis(
        nu_f, nu_g, deltas, coll_pts, tuple(poles), purely,
        num, mero_zeros, unresolved, rest if unresolved else None, m, m_star,
        tau_total, predicted, predicted_total,
    )


def analyze_all(tree: Tree) -> dict[str, BarAnalysis]:
    """Analyses of every finite bar, keyed by bar id."""
    return {bar.id: analyze_bar(tree, bar) for bar in tree.finite_bars()}


def predict_C(tree: Tree, analyses: dict[str, BarAnalysis], bar: Bar,
              c: CycloRational) -> tuple[int, list[str]]:
    """Count of climbers at a collinear point bounded by its whole cover."""
    ana = analyses[bar.id]
    if ana.collinear:
        raise NotApplicable(f"{bar.id} is collinear")
    if c not in ana.collinear_points:
        raise ValueError(f"{c} is not a collinear point of {bar.id}")
    cover = cover_of(tree, analyses, bar, c)
    count = ana.mero_zeros.get(c, 0) + sum(analyses[b].n - analyses[b].m for b in cover)
    return count, cover


def weeds(tree: Tree, analyses: dict[str, BarAnalysis], bar: Bar) -> int:
    """Predicted number of weeds: zeros of the bar plus poles over its repair."""
    ana = analyses[bar.id]
    if ana.collinear:
        raise NotApplicable(f"{bar.id} is collinear")
    rep = repair_of(tree, analyses, bar)
    return ana.m + sum(analyses[b].n for b in rep)


def total_via_basics(tree: Tree, analyses: dict[str, BarAnalysis], bar: Bar) -> int:
    """The climb total recomputed as the weed sum over the basic bars."""
    ana = analyses[bar.id]
    if ana.collinear:
        raise NotApplicable(f"{bar.id} is collinear")
    return sum(weeds(tree, analyses, tree.bars[b]) for b in basics_of(tree, analyses, bar))


def ground_residual(tree: Tree, analyses: dict[str, BarAnalysis], K: int) -> int:
    """Roots bounded by every non-collinear bar of minimal height.

    Only defined when the ground bar is collinear; K is the x-order of the
    Jacobian with its y-content removed.
    """
    ground = tree.ground
    ana = analyses[ground.id]
    if not ana.collinear:
        raise NotApplicable("ground bar is non-collinear; no residual count")
    cover = cover_of(tree, analyses, ground, tree.field.zero)
    return K - sum(analyses[b].predicted_total for b in cover)
