"""Truncated fractional power series and the basic order/contact operations.

A series is a finite, strictly increasing list of ``(exponent, coefficient)``
terms with exact field coefficients, plus a truncation level: every exponent
below ``trunc`` is exact, and nothing is known at or beyond it.  ``trunc`` is
either a Fraction or :data:`INF`.  Truncation bookkeeping is pessimistic on
purpose - an operation refuses to report an order that unknown tail terms
could still change.

Arcs (inputs to the tree machinery) have non-negative exponents; Laurent
polynomials and arcs may carry negative ones.  The order of a polynomial
along an arc is read along exact arcs only, by the packed-integer kernel
:func:`~polartree.exactalg.arc_order`; a truncated arc is refused, because
its unknown tail could change the order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable

from .errors import TruncationTooShort
from .exactalg import (
    BiPoly, CycloField, CycloRational, UniPoly, arc_order, coeff_term, join_terms,
)

if TYPE_CHECKING:
    from .treemodel import ArcTrace


class _Infinity:
    """Order/truncation value larger than every Fraction."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __gt__(self, other):
        return not isinstance(other, _Infinity)

    def __ge__(self, other):
        return True

    def __lt__(self, other):
        return False

    def __eq__(self, other):
        return isinstance(other, _Infinity)

    def __hash__(self):
        return hash("polartree-infinity")

    def __repr__(self):
        return "INF"


INF = _Infinity()


def exp_min(a, b):
    return b if a > b else a


def y_power(e) -> str:
    """y^e as a series prints it: ``y^3``, but ``y^(1/3)``."""
    return f"y^{e}" if e.denominator == 1 else f"y^({e})"


class PuiseuxSeries:
    """Truncated fractional power series in y over Q(zeta_N)."""

    __slots__ = ("field", "terms", "trunc")

    def __init__(
        self,
        field: CycloField,
        terms: Iterable[tuple[Fraction, CycloRational]] = (),
        trunc=INF,
    ):
        clean: list[tuple[Fraction, CycloRational]] = []
        last = None
        for e, c in terms:
            e = Fraction(e)
            if not isinstance(c, CycloRational):
                c = field.rational(c)
            if c.is_zero():
                continue
            if last is not None and e <= last:
                raise ValueError("term exponents must be strictly increasing")
            if not (e < trunc):
                continue
            clean.append((e, c))
            last = e
        self.field = field
        self.terms = tuple(clean)
        self.trunc = trunc

    # -- constructors ----------------------------------------------------
    @classmethod
    def zero(cls, field: CycloField) -> "PuiseuxSeries":
        return cls(field, (), INF)

    # -- basic structure ----------------------------------------------------
    def order_lower_bound(self):
        return self.terms[0][0] if self.terms else self.trunc

    def coefficient_at(self, e) -> CycloRational:
        e = Fraction(e)
        if not (e < self.trunc):
            raise TruncationTooShort(f"coefficient at {y_power(e)} not determined "
                                     f"(trunc {self.trunc})")
        for te, tc in self.terms:
            if te == e:
                return tc
            if te > e:
                break
        return self.field.zero

    def prefix_below(self, h) -> "PuiseuxSeries":
        """The exact sub-series of terms with exponent < h."""
        if not (h <= self.trunc):
            raise TruncationTooShort(f"prefix below {y_power(h)} not determined "
                                     f"(trunc {self.trunc})")
        return PuiseuxSeries(self.field, [(e, c) for e, c in self.terms if e < h], INF)

    def exponent_denominator(self) -> int:
        d = 1
        for e, _ in self.terms:
            d = d * e.denominator // math.gcd(d, e.denominator)
        return d

    # -- arithmetic ------------------------------------------------------------
    def __add__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        trunc = exp_min(self.trunc, other.trunc)
        merged: dict[Fraction, CycloRational] = {}
        for e, c in self.terms:
            merged[e] = c
        for e, c in other.terms:
            s = merged.get(e)
            merged[e] = c if s is None else s + c
        items = sorted((e, c) for e, c in merged.items() if not c.is_zero())
        return PuiseuxSeries(self.field, items, trunc)

    def __mul__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        if not self.terms and self.trunc is INF:
            return self
        if not other.terms and other.trunc is INF:
            return other
        ta = INF if self.trunc is INF else self.trunc + other.order_lower_bound()
        tb = INF if other.trunc is INF else other.trunc + self.order_lower_bound()
        trunc = exp_min(ta, tb)
        acc: dict[Fraction, CycloRational] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                if not (e < trunc):
                    continue
                prod = c1 * c2
                s = acc.get(e)
                acc[e] = prod if s is None else s + prod
        items = sorted((e, c) for e, c in acc.items() if not c.is_zero())
        return PuiseuxSeries(self.field, items, trunc)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return self.terms == other.terms and self.trunc == other.trunc

    def __hash__(self) -> int:
        return hash((self.terms, self.trunc))

    # -- rendering ----------------------------------------------------------------
    def __str__(self) -> str:
        body = join_terms(
            coeff_term(str(c), "" if e == 0 else "y" if e == 1 else y_power(e))
            for e, c in self.terms
        )
        if self.trunc is INF:
            return body
        ts = y_power(self.trunc)
        return f"{body} + O({ts})" if body != "0" else f"O({ts})"

    def __repr__(self) -> str:
        return f"PuiseuxSeries({self})"


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _first_difference(a: PuiseuxSeries, b: PuiseuxSeries, cut):
    """(e, a_e, b_e) for the least exponent e below ``cut`` where the terms
    of a and b differ, with the two coefficients there; None when they
    agree below ``cut``.

    A merge walk over the two sorted term tuples: no difference series is
    built.
    """
    zero = a.field.zero
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        if ea == eb:
            if ca != cb:
                return (ea, ca, cb) if ea < cut else None
        elif ea < eb:
            return (ea, ca, zero) if ea < cut else None
        else:
            return (eb, zero, cb) if eb < cut else None
    n = min(len(a.terms), len(b.terms))
    if len(a.terms) > n:
        e, c = a.terms[n]
        return (e, c, zero) if e < cut else None
    if len(b.terms) > n:
        e, c = b.terms[n]
        return (e, zero, c) if e < cut else None
    return None


def contact_order(a: PuiseuxSeries, b: PuiseuxSeries):
    """O(a, b): the y-order of a - b; INF when both are exactly equal.

    The contact is the first exponent below the joint truncation where the
    coefficients differ (:func:`_first_difference`).
    """
    trunc = exp_min(a.trunc, b.trunc)
    first = _first_difference(a, b, trunc)
    return first[0] if first else _agree_up_to(trunc)


def _agree_up_to(trunc):
    """INF when the agreeing series are exact; unresolved otherwise."""
    if trunc is INF:
        return INF
    raise TruncationTooShort(
        f"contact order unresolved: series agree up to O({y_power(trunc)})"
    )


@dataclass(frozen=True)
class ExpandedRoot:
    """One (bundle of) Newton-Puiseux root(s), its series known exactly
    below ``series.trunc``.

    An exact root has ``branches`` = 1 and no truncation.  A truncated root
    stands for every root that shares its known prefix and whose next term
    lies at or beyond the target: ``branches`` counts them, however they
    would separate past it, so one prefix is never emitted twice.  An
    unresolved bundle is cut at ``branch_exp``, where its ``branches`` =
    deg(coeff_poly) branches take the roots of ``coeff_poly`` as their
    coefficients; none of them lies in the working field or among the
    caller's candidate points.  ``count`` is the number of roots carried.
    A polar root placed on the tree carries its climb in ``trace``.
    """

    series: PuiseuxSeries
    multiplicity: int
    branches: int = 1
    branch_exp: Fraction | None = None
    coeff_poly: UniPoly | None = None
    trace: ArcTrace | None = None

    @property
    def count(self) -> int:
        return self.multiplicity * self.branches

    def _known_diff(self, prefix: PuiseuxSeries):
        """The first term of (arc - prefix) below the knowledge cut, as
        :func:`_first_difference` gives it (None when there is none), plus
        the cut.

        The cut is where certainty about the difference ends: the joint
        truncation of the two series, capped at the unresolved branch point.
        ``at_branch`` flags that the binding cut is the branch point itself.
        """
        cut = exp_min(self.series.trunc, prefix.trunc)
        at_branch = False
        if self.branch_exp is not None and (cut is INF or self.branch_exp <= cut):
            cut = self.branch_exp
            at_branch = True
        return _first_difference(self.series, prefix, cut), cut, at_branch

    def _branch_coeff_vs(self, prefix: PuiseuxSeries) -> UniPoly:
        """Possible values of (arc - prefix)'s coefficient at the branch point.

        Raises :class:`TruncationTooShort` when the comparison prefix is too
        short there, or when the unresolved coefficient could coincide with
        the prefix's (so the difference might vanish at the branch point).
        """
        cp = prefix.coefficient_at(self.branch_exp)
        if self.coeff_poly.evaluate(cp).is_zero():
            raise TruncationTooShort(
                "unresolved branch coefficient may coincide with a tree point"
            )
        return self.coeff_poly.compose_shift(cp)

    def contact_with(self, prefix: PuiseuxSeries):
        """Contact order with a series; INF only when provably equal."""
        first, cut, at_branch = self._known_diff(prefix)
        if first:
            return first[0]
        if at_branch:
            self._branch_coeff_vs(prefix)
            return self.branch_exp
        return _agree_up_to(cut)

    def coefficient_relative(self, prefix: PuiseuxSeries, h: Fraction):
        """Classify the arc against a bar: bounded below h, or its coefficient at h.

        Returns one of
          ("below", t)                   contact t < h
          ("coeff", z)                   exact coefficient at height h
          ("coeff-unresolved", shifted)  coefficient at h is a root of ``shifted``
        """
        first, cut, at_branch = self._known_diff(prefix)
        if first:
            e, ca, cb = first
            if e < h:
                return ("below", e)
            if e == h:
                return ("coeff", ca - cb)
            return ("coeff", self.series.field.zero)
        # no known difference below the cut
        if at_branch:
            be = self.branch_exp
            if be < h:
                self._branch_coeff_vs(prefix)
                return ("below", be)
            if be == h:
                return ("coeff-unresolved", self._branch_coeff_vs(prefix))
            # the branch point sits above h and nothing differs below it
            return ("coeff", self.series.field.zero)
        if cut is INF or h < cut:
            return ("coeff", self.series.field.zero)
        raise TruncationTooShort(f"arc known only to O({y_power(cut)}), need height {h}")


def _arc_over(xi: PuiseuxSeries):
    """(arc, d) for :func:`~polartree.exactalg.arc_order`: the terms of the
    exact arc xi as (exponent times d, coefficient), over the least d that
    makes every exponent an integer.

    Raises :class:`TruncationTooShort` for a truncated arc, since its unknown
    tail terms could change any order along it.
    """
    if xi.trunc is not INF:
        raise TruncationTooShort(
            f"order along an arc cut at O({y_power(xi.trunc)}) is hidden")
    d = xi.exponent_denominator()
    return [(e.numerator * (d // e.denominator), c) for e, c in xi.terms], d


def order_along_arc(F: BiPoly, xi: PuiseuxSeries):
    """The exact y-order of F(xi(y), y); INF when xi is an exact root.

    The order comes from the packed-integer kernel
    :func:`~polartree.exactalg.arc_order`.  A truncated arc raises
    :class:`TruncationTooShort` (:func:`_arc_over`).
    """
    arc, d = _arc_over(xi)
    n = arc_order(F, arc, d)
    return INF if n is None else Fraction(n, d)


def vanishes_along(F: BiPoly, xi: PuiseuxSeries) -> bool:
    """Whether F(xi(y), y) is exactly zero, for an exact arc xi; a truncated
    arc raises :class:`TruncationTooShort` (:func:`_arc_over`).

    With y = t^d, F(xi) is a Laurent polynomial in t.  Its value at t = 2,
    F(x, 2^d) at x = xi, costs one evaluation, and a nonzero value proves
    it nonzero; only a zero value runs
    :func:`~polartree.exactalg.arc_order`, whose packed integers grow with
    the arc's length and denominators.
    """
    arc, d = _arc_over(xi)
    x0 = sum((c * 2**n if n >= 0 else c / 2**-n for n, c in arc), F.field.zero)
    return F.at_y(2**d).evaluate(x0).is_zero() and arc_order(F, arc, d) is None
