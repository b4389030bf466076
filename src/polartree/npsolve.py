"""Newton-Puiseux expansion of the roots x = lambda(y) of a bivariate polynomial.

The engine walks the classical Newton-polygon iteration: pick an edge of
positive slope m, solve the edge polynomial for the leading coefficient c,
substitute x = y^m (c + x') and repeat.  All coefficient arithmetic happens
in Q(zeta_N); when an edge polynomial has no root there, the solver records
the branch bundle as a root whose count and prefix stay exact, and leaves
it to the caller whether such a bundle is acceptable.  Multiplicities are
made exact by splitting the input into squarefree-in-x components first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    NeedsLargerField,
    TruncationBudgetExceeded,
    ZeroPolynomial,
    InternalInconsistency,
)
from .exactalg import (
    BiPoly,
    CycloField,
    CycloRational,
    UniPoly,
    poly_gcd,
    radical_conductor,
    roots_in_field,
    squarefree_decompose,
    taylor_shift,
)
from .puiseux import INF, ExpandedRoot, PuiseuxSeries, vanishes_along

# internal working form: (x_exponent, y_exponent times q) -> coefficient, where
# q is the ramification denominator the expansion branch carries
_RamTerms = dict[tuple[int, int], CycloRational]

MAX_STAGES = 64  # Newton-polygon stages along one branch before expansion gives up


# ---------------------------------------------------------------------------
# Newton polygon
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolygonEdge:
    # endpoints are (x-exponent, y-exponent times q) over the denominator q
    # of the terms the polygon was built from; the slope is the true order
    top: tuple[int, int]           # endpoint with smaller x-degree, larger y-order
    bottom: tuple[int, int]        # endpoint with larger x-degree
    slope: Fraction                # root order carried by this edge
    extent: int                    # number of roots (with multiplicity) on it


def _lower_hull(points: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    byi: dict[int, int] = {}
    for i, j in points:
        cur = byi.get(i)
        if cur is None or j < cur:
            byi[i] = j
    pts = sorted(byi.items())

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    hull: list[tuple[int, int]] = []
    for p in pts:
        while len(hull) >= 2 and cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    return hull


def _polygon_data(terms: _RamTerms, q: int) -> tuple[PolygonEdge, ...]:
    """The edges of positive slope of the Newton polygon of terms whose
    y-exponents are scaled by q: the lower convex hull of the support,
    oriented for positive-order roots, by increasing slope."""
    hull = _lower_hull(terms.keys())
    edges = []
    for (i1, j1), (i2, j2) in zip(hull, hull[1:]):
        if j1 > j2:
            slope = Fraction(j1 - j2, q * (i2 - i1))
            edges.append(PolygonEdge((i1, j1), (i2, j2), slope, i2 - i1))
    return tuple(sorted(edges, key=lambda e: e.slope))


def _edge_poly(terms: _RamTerms, edge: PolygonEdge, field: CycloField) -> UniPoly:
    """The edge polynomial E(z) = sum of coefficients on the edge times z^(i-i_min)."""
    (i1, j1), (i2, j2) = edge.top, edge.bottom
    coeffs = [field.zero] * (edge.extent + 1)
    for (i, j), c in terms.items():
        if i1 <= i <= i2 and (j - j1) * (i2 - i1) == (j2 - j1) * (i - i1):
            coeffs[i - i1] = coeffs[i - i1] + c
    return UniPoly(field, coeffs, "z")


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


@dataclass
class Expansion:
    """Result of expanding a polynomial: roots and bookkeeping orders."""

    roots: list[ExpandedRoot]
    y_content: int        # E: largest power of y dividing the input
    x_order: int          # K: x-order of F / y^E at the origin

    def total_count(self) -> int:
        return sum(r.count for r in self.roots)


# ---------------------------------------------------------------------------
# squarefree-in-x splitting (multiplicity extraction)
# ---------------------------------------------------------------------------


def _interpolate(ys: list[int], values: list[CycloRational], field: CycloField) -> UniPoly:
    """The polynomial in y of degree below len(ys) that takes values[k] at
    ys[k]: Newton's divided differences."""
    c = list(values)
    for j in range(1, len(ys)):
        for k in range(len(ys) - 1, j - 1, -1):
            c[k] = (c[k] - c[k - 1]) / (ys[k] - ys[k - j])
    p = [c[-1]]
    for k in range(len(ys) - 2, -1, -1):  # p = p * (y - ys[k]) + c[k]
        p = [c[k] - p[0] * ys[k]] + [a - b * ys[k] for a, b in zip(p, p[1:])] + [p[-1]]
    return UniPoly(field, p, "y")


def _normalized(cols: list[UniPoly], field: CycloField) -> BiPoly:
    """The primitive part in y of sum cols[i] x^i, scaled so that the lowest
    y-term of its leading x-coefficient is 1."""
    content = UniPoly.zero(field, "y")
    for col in cols:
        content = poly_gcd(content, col)
        if content.degree() == 0:
            break
    if content.degree() > 0:
        cols = [col.exact_div(content) for col in cols]
    unit = next(c for c in cols[-1].coeffs if not c.is_zero()).inverse()
    return BiPoly.from_x_coefficients(field, [col * unit for col in cols])


def _lead_x(P: BiPoly) -> BiPoly:
    """The leading x-coefficient of P, as a polynomial in y alone."""
    n = P.x_degree()
    return BiPoly(P.field, {(0, j): c for (i, j), c in P.terms.items() if i == n})


def _certified(G: BiPoly, split: list[tuple[BiPoly, int]], y0: int) -> bool:
    """G * lc_x(P) = P * lc_x(G) for P = prod A_i^i, and prod A_i is squarefree
    at y0 with its leading coefficient nonzero there."""
    P = BiPoly.constant(G.field, 1)
    for A, m in split:
        P = P * A**m
    if G * _lead_x(P) != P * _lead_x(G):
        return False
    s = UniPoly.constant(G.field, 1, "x")
    for A, _ in split:
        s = s * A.at_y(y0)
    if s.degree() != sum(A.x_degree() for A, _ in split):
        return False
    return [m for _, m in squarefree_decompose(s)] == [1]


def multiplicity_split(F: BiPoly) -> list[tuple[BiPoly, int]]:
    """Squarefree-in-x components of F with multiplicities.

    Brown's evaluation/interpolation (J. ACM 1971), with Yun's algorithm run
    only on univariate polynomials.  F(x, y0) is decomposed at y0 = 1, 2, ...,
    skipping zeros of lc_x(F).  The points whose squarefree part has the
    largest degree seen so far carry the generic pattern; from
    deg_y F + deg_y lc_x(F) + 1 of them each component is interpolated as
    lc_x(F)(y0) times its monic image, then made primitive in y.  The result
    is certified exactly: F * lc_x(P) = P * lc_x(F) for P = prod A_i^i, and
    prod A_i is squarefree at a sample point where its leading coefficient
    does not vanish.  A candidate that fails is dropped and sampling goes on;
    past the zeros of lc_x(F) and of the discriminant of the squarefree part
    every point is lucky, so running out of points is an internal error.  A
    point where F(x, y0) is squarefree of full degree certifies F
    squarefree, and F comes back unchanged.

    Components are primitive in y and normalized so that the lowest y-term
    of their leading x-coefficient is 1; their product recovers F up to a
    factor free of x-roots (y-content and a unit).  A polynomial of x-degree
    zero has no components.
    """
    if F.is_zero():
        raise ZeroPolynomial("cannot split the zero polynomial")
    field = F.field
    n = F.x_degree()
    if n < 1:
        return []
    G = F.shift_y(-F.y_content())
    ydeg = max(j for (_, j) in G.terms)
    lead_deg = max(j for (i, j) in G.terms if i == n)
    need = ydeg + lead_deg + 1
    # bad points: zeros of lc_x(F), and zeros of the discriminant of the
    # squarefree part, whose y-degree is at most (2n - 1) * deg_y F
    last = lead_deg + (2 * n - 1) * ydeg + need
    best = None
    points: list[tuple[int, CycloRational, list[tuple[UniPoly, int]]]] = []
    for y0 in range(1, last + 1):
        a = G.at_y(y0)
        if a.degree() < n:
            continue
        parts = squarefree_decompose(a)
        if [m for _, m in parts] == [1]:
            return [(F, 1)]
        key = (sum(p.degree() for p, _ in parts), [(m, p.degree()) for p, m in parts])
        if best is None or key[0] > best[0]:
            best, points = key, []
        if key != best:
            continue
        points.append((y0, a.leading(), parts))
        if len(points) != need:
            continue  # too few points, or their candidate already failed
        ys = [y for y, _, _ in points]
        split = []
        for t, (m, d) in enumerate(best[1]):
            cols = [
                _interpolate(ys, [lc * ps[t][0][e] for _, lc, ps in points], field)
                for e in range(d + 1)
            ]
            split.append((_normalized(cols, field), m))
        if _certified(G, split, ys[0]):
            return split
    raise InternalInconsistency(
        f"squarefree split not certified after {last} sample points"
    )


# ---------------------------------------------------------------------------
# the expansion engine
# ---------------------------------------------------------------------------


class _Expander:
    """The Newton-Puiseux recursion, on terms cut to the precision each
    branch still needs.

    At a node with remaining precision T' = target - base, let r be the
    least x-degree with a y^0 term: the node carries r roots of positive
    order.  For a slope s < T', a term (i, j) with j >= r T' has
    j + i s > r s, the value of the term (r, 0), so it never lies on an
    edge of slope below T'; such terms are dropped.  Substituting along
    slope m at a root c of multiplicity r1 shifts by mu <= r m, so each
    dropped term lands at r (T' - m) >= r1 (T' - m) or above, the child's
    own cut: every kept term below the cut is exact.  Two questions the
    kept terms cannot answer on a path that dropped a term (``lossy``):
    whether the x^0 column is really empty, which an exact substitution of
    the prefix into the component decides; and how the roots past the
    target split among steep edges, which is never asked: one truncated
    root per node carries all of them as branches.
    """

    def __init__(self, field: CycloField, target: Fraction,
                 candidates: Sequence[CycloRational]):
        self.field = field
        self.target = target
        self.candidates = list(candidates)
        self.roots: list[ExpandedRoot] = []
        self.component: BiPoly | None = None  # the one being expanded

    def run(self, component: BiPoly, multiplicity: int) -> None:
        """Expand one squarefree component of y-content 0."""
        terms = component.terms
        r = min(i for (i, j) in terms if j == 0)
        if r == 0:
            return  # a unit at the origin: no root of positive order
        self.component = component
        cut = _ceil(r * self.target)
        kept = {k: v for k, v in terms.items() if k[1] < cut}
        self._recurse(kept, 1, Fraction(0), [], multiplicity, 0, len(kept) < len(terms))

    # -- helpers -----------------------------------------------------------
    def _emit_exact(self, prefix, multiplicity):
        self.roots.append(
            ExpandedRoot(PuiseuxSeries(self.field, prefix, INF), multiplicity, 1)
        )

    def _emit_truncated(self, prefix, multiplicity, branches):
        self.roots.append(
            ExpandedRoot(PuiseuxSeries(self.field, prefix, self.target), multiplicity, branches)
        )

    def _emit_unresolved(self, prefix, exponent, chi, multiplicity):
        self.roots.append(
            ExpandedRoot(PuiseuxSeries(self.field, prefix, exponent), multiplicity,
                         chi.degree(), exponent, chi)
        )

    def _is_root(self, F: BiPoly, prefix) -> bool:
        return vanishes_along(F, PuiseuxSeries(self.field, prefix, INF))

    def _field_hint(self, edge: PolygonEdge, epoly: UniPoly, chi: UniPoly) -> int | None:
        """Conductor enlargement that would resolve the missing branch, if any.

        Two sources: the ramification denominator of the edge slope (the
        session-field rule), and a binomial z^k - u, k the degree, whose
        radical is rational so only roots of unity are missing
        (:func:`~polartree.exactalg.radical_conductor` with k = deg chi).
        """
        n = self.field.conductor
        hints = []
        q = edge.slope.denominator
        if q > 1 and n % q:
            hints.append(n * q // math.gcd(n, q))
        for poly in (chi, epoly):
            h = radical_conductor(poly, n, poly.degree())
            if h is not None:
                hints.append(h)
        if not hints:
            return None
        out = n
        for h in hints:
            out = out * h // math.gcd(out, h)
        return out if out != n else None

    def _recurse(self, terms: _RamTerms, q: int, base: Fraction, prefix, multiplicity,
                 stage, lossy):
        if stage > MAX_STAGES:
            raise TruncationBudgetExceeded(
                f"expansion exceeded {MAX_STAGES} Newton-polygon stages"
            )
        if not terms:
            raise InternalInconsistency("expansion reached the zero polynomial")
        rest = self.target - base
        past = min(i for (i, j) in terms if j == 0)  # roots not yet placed
        # exact finite root: the accumulated prefix itself
        xmin = min(i for (i, _) in terms)
        if xmin and (not lossy or self._is_root(self.component, prefix)):
            # a repeated root of a squarefree component cannot happen; a kept
            # x^1 term is exact, so only an empty x^1 column needs the test
            if xmin > 1 and (not lossy or self._is_root(self.component.diff_x(), prefix)):
                raise InternalInconsistency("repeated branch in squarefree expansion")
            self._emit_exact(list(prefix), multiplicity)
            past -= 1
            terms = {(i - 1, j): c for (i, j), c in terms.items()}
        for edge in _polygon_data(terms, q):
            if edge.slope >= rest:
                break
            past -= edge.extent
            abs_exp = base + edge.slope
            epoly = _edge_poly(terms, edge, self.field)
            found, chi = roots_in_field(epoly, self.candidates)
            if chi.degree():
                enlarge = self._field_hint(edge, epoly, chi)
                if enlarge is not None:
                    raise NeedsLargerField(enlarge)
                self._emit_unresolved(list(prefix), abs_exp, chi, multiplicity)
            for c, r in found:
                if c.is_zero():
                    # zero is never an edge-polynomial root (the constant term
                    # of the edge polynomial is a vertex coefficient)
                    raise InternalInconsistency("zero edge coefficient")
                sub, sub_q, dropped = _substitute(
                    terms, q, edge.slope, c, self.field, r * (rest - edge.slope)
                )
                self._recurse(sub, sub_q, abs_exp, list(prefix) + [(abs_exp, c)],
                              multiplicity, stage + 1, lossy or dropped)
        if past:
            self._emit_truncated(list(prefix), multiplicity, past)


def _ceil(v: Fraction) -> int:
    return -(-v.numerator // v.denominator)


def _substitute(
    terms: _RamTerms, q: int, m: Fraction, c: CycloRational, field: CycloField,
    bound: Fraction,
) -> tuple[_RamTerms, int, bool]:
    """P(y^m (c + x), y) / y^mu, cut below y^bound; mu is the least
    j + i m over the terms (i, j) of P, the value of its edge of slope m.

    The terms of P carry y-exponents times q; the result carries them times
    lcm(q, denominator of m), which is returned with it, and with whether
    the cut dropped a term.  All outputs of an input term (i, j) share the
    exponent e = j + i m - mu, so one comparison keeps or drops the term,
    and the kept terms with one e form a polynomial P_e in x whose output
    row is P_e(c + x): one integer Taylor shift per row
    (:func:`~polartree.exactalg.taylor_shift`).
    """
    new_q = q * m.denominator // math.gcd(q, m.denominator)
    scale = new_q // q
    step = m.numerator * (new_q // m.denominator)  # m times new_q
    mu = min(j * scale + i * step for (i, j) in terms)
    cut = _ceil(bound * new_q)
    rows: dict[int, dict[int, CycloRational]] = {}  # e -> P_e as {i: a}
    dropped = False
    for (i, j), a in terms.items():
        e = j * scale + i * step - mu
        if e >= cut:
            dropped = True
        else:
            rows.setdefault(e, {})[i] = a
    return dict(taylor_shift(field, rows, c)), new_q, dropped


def expand_roots(
    F: BiPoly,
    target_trunc: Fraction,
    extra_candidates: Sequence[CycloRational] = (),
) -> Expansion:
    """All Newton-Puiseux roots of F with positive order, to a truncation.

    Roots are reported with exact multiplicities (via
    :func:`multiplicity_split`, whose components of F / y^E all have
    y-content 0: F / y^E itself, or components made primitive in y);
    series that would only separate beyond the truncation are merged with
    a branch count, and a bundle whose next coefficient falls outside the
    working field (and ``extra_candidates``) is kept with its exact count
    and coefficient polynomial, the monic factor that
    :func:`~polartree.exactalg.roots_in_field` leaves once the located
    roots are divided out.  Resolved roots come first, by leading term,
    then the bundles.  An edge that a larger conductor would resolve raises
    :class:`NeedsLargerField`.
    """
    if F.is_zero():
        raise ZeroPolynomial("cannot expand the zero polynomial")
    field = F.field
    E = F.y_content()
    Fstar = F.shift_y(-E) if E else F
    try:
        K = Fstar.x_order_at_origin()
    except ValueError:
        raise InternalInconsistency("y-content removal left no pure-x term")
    expander = _Expander(field, Fraction(target_trunc), extra_candidates)
    for component, mult in multiplicity_split(Fstar):
        expander.run(component, mult)
    result = Expansion(expander.roots, E, K)
    if result.total_count() != K:
        raise InternalInconsistency(
            f"root count {result.total_count()} does not match x-order {K}"
        )
    result.roots.sort(key=_root_sort_key)
    return result


def _root_sort_key(r: ExpandedRoot):
    if r.branch_exp is not None:
        return (2, r.branch_exp, str(r.coeff_poly))
    if not r.series.terms:
        return (1, Fraction(0), ())
    e, c = r.series.terms[0]
    return (0, e, c.sort_key())
