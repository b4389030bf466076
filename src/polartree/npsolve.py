"""Newton-Puiseux expansion of the roots x = lambda(y) of a bivariate polynomial.

The engine walks the classical Newton-polygon iteration: pick an edge of
positive slope m, solve the edge polynomial for the leading coefficient c,
substitute x = y^m (c + x') and repeat.  All coefficient arithmetic happens
in Q(zeta_N); when an edge polynomial has no root there, the solver records
the branch bundle as a root whose count and prefix stay exact, and leaves
it to the caller whether such a bundle is acceptable.  Multiplicities are
made exact by splitting the input into squarefree-in-x components first.

Conjugate roots are derived, not expanded (Duval, *Rational Puiseux
expansions*, Compositio Math. 70, 1989).  An edge of slope m that raises
the branch's ramification from q to qv, v > 1, has an edge polynomial in
z^v, so its roots fall into orbits c -> omega c with omega^v = 1.  The map
y^(1/qv) -> rho y^(1/qv), rho = omega^(u^-1 mod v) for u/v = m q, fixes
the coefficients of F and the prefix, and sends c to omega c.  Below a
simple root c lies exactly one root, so the first member of each orbit is
expanded, and each later member's root is that root with the coefficient
at exponent e multiplied by rho^(e q v mod v).
"""

from __future__ import annotations

import math
from bisect import bisect
from dataclasses import dataclass, replace
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
    _images_mod_prime,
    _interpolate,
    _lift_mod_prime,
    poly_gcd,
    radical_conductor,
    roots_in_field,
    squarefree_decompose,
    taylor_shift,
    unity_conductor,
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
    return UniPoly(field, coeffs)


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


def _normalized(cols: list[UniPoly], field: CycloField) -> BiPoly:
    """The primitive part in y of sum cols[i] x^i, scaled so that the lowest
    y-term of its leading x-coefficient is 1."""
    content = UniPoly.zero(field)
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
    s = UniPoly.constant(G.field, 1)
    for A, _ in split:
        s = s * A.at_y(y0)
    if s.degree() != sum(A.x_degree() for A, _ in split):
        return False
    return [m for _, m in squarefree_decompose(s)] == [1]


def _x_columns(P: BiPoly) -> list[UniPoly]:
    """The x-coefficients of P, a polynomial in x and y, as polynomials in y."""
    field = P.field
    rows: list[dict[int, CycloRational]] = [{} for _ in range(P.x_degree() + 1)]
    for (i, j), c in P.terms.items():
        rows[i][j] = c
    return [UniPoly(field, [row.get(j, field.zero) for j in range(max(row, default=-1) + 1)])
            for row in rows]


def _sampled_split(G: BiPoly, n: int) -> list[tuple[BiPoly, int]] | None:
    """The certified components of G, of x-degree n >= 1 and y-content 0,
    from sample points y0 = 1, 2, ...; None when a point proves G
    squarefree (see :func:`multiplicity_split`)."""
    field = G.field
    ydeg = max(j for (_, j) in G.terms)
    lead_deg = max(j for (i, j) in G.terms if i == n)
    need = ydeg + lead_deg + 1
    # bad points: zeros of lc_x(G), and zeros of the discriminant of the
    # squarefree part, whose y-degree is at most (2n - 1) * deg_y G
    last = lead_deg + (2 * n - 1) * ydeg + need
    exact = ((y0, a.leading(), [(p.coeffs, m) for p, m in squarefree_decompose(a)])
             for y0 in range(1, last + 1) if (a := G.at_y(y0)).degree() >= n)
    # each pass reads (y0, lead, [(monic coefficients, m)]) per image; the
    # modular one tries one candidate, the exact one every candidate it finds
    for images, lift in ((_images_mod_prime(G, n, last), _lift_mod_prime),
                         (exact, lambda ys, vs: [_interpolate(ys, v) for v in vs])):
        best = None
        points: list = []
        for y0, lc, parts in images:
            if [m for _, m in parts] == [1]:
                return None
            key = (sum(len(p) - 1 for p, _ in parts), [(m, len(p) - 1) for p, m in parts])
            if best is None or key[0] > best[0]:
                best, points = key, []
            if key != best:
                continue
            points.append((y0, lc, parts))
            if len(points) != need:
                continue  # too few points, or their candidate already failed
            ys = [y for y, _, _ in points]
            cols = [lift(ys, [[lc * ps[t][0][e] for _, lc, ps in points] for e in range(d + 1)])
                    for t, (_, d) in enumerate(best[1])]
            if None not in cols:
                split = [(_normalized([UniPoly(field, c) for c in cs], field), m)
                         for cs, (m, _) in zip(cols, best[1])]
                if _certified(G, split, ys[0]):
                    return split
            if lift is _lift_mod_prime:
                break
    raise InternalInconsistency(
        f"squarefree split not certified after {last} sample points"
    )


def multiplicity_split(F: BiPoly) -> list[tuple[BiPoly, int]]:
    """Squarefree-in-x components of F with multiplicities.

    Let G be F / y^E and e the least x-exponent of G.  When e >= 2, x^e is
    divided out exactly and the rest R = G / x^e is split; x then joins R's
    component of multiplicity e, or comes in as (x, e), in multiplicity
    order.  Since x changes neither the leading x-coefficient nor the
    y-content, these are the components a split of G itself would give.
    For e < 2, R is G, and x stays with the other simple factors.

    R is split by Brown's evaluation/interpolation (J. ACM 1971), with Yun's
    algorithm run only on univariate polynomials.  R(x, y0) is decomposed at
    y0 = 1, 2, ..., skipping points where its x-degree drops.  For a rational
    R this sampling runs modulo the prime P of
    :func:`~polartree.exactalg.squarefree_decompose`, on R's integer form.  A
    point where the image is squarefree of full degree certifies R
    squarefree in x (the argument in ``squarefree_decompose``).  The points
    whose squarefree part has the largest degree seen so far carry the
    generic pattern; from deg_y R + deg_y lc_x(R) + 1 of them each
    component is interpolated as lc_x(R)(y0) times its monic image and made
    primitive in y; modulo P, each coefficient is then lifted to Q by
    rational reconstruction (Wang, SYMSAC 1981).  Only the exact certificate
    makes the result exact: R * lc_x(S) = S * lc_x(R) for S = prod A_i^i,
    and prod A_i is squarefree at a sample point where its leading
    coefficient does not vanish.  The modular pass tries one candidate; a
    coefficient outside Q, one that does not lift or a failed certificate
    sends R to the same sampling over the field.  There a failed candidate
    is dropped and sampling goes on; past the zeros of lc_x(R) and of the
    discriminant of the squarefree part every point is lucky, so running
    out of points is an internal error.

    A squarefree F (e < 2) comes back unchanged, as [(F, 1)].  Otherwise
    components are primitive in y and normalized so that the lowest y-term
    of their leading x-coefficient is 1; their product recovers F up to a
    factor free of x-roots (y-content and a unit).  A polynomial of
    x-degree zero has no components.
    """
    if F.is_zero():
        raise ZeroPolynomial("cannot split the zero polynomial")
    n = F.x_degree()
    if n < 1:
        return []
    E = F.y_content()
    G = F.shift_y(-E) if E else F  # then the expansion reuses the split's integer form of F
    e = min(i for (i, _) in G.terms)
    if e < 2:
        split = _sampled_split(G, n)
        return [(F, 1)] if split is None else split
    field = F.field
    R = BiPoly(field, {(i - e, j): c for (i, j), c in G.terms.items()})
    split = _sampled_split(R, n - e) if n > e else []
    if split is None:
        split = [(_normalized(_x_columns(R), field), 1)]
    mults = [m for _, m in split]
    if e in mults:
        k = mults.index(e)
        split[k] = (BiPoly(field, {(i + 1, j): c for (i, j), c in split[k][0].terms.items()}), e)
    else:
        split.insert(bisect(mults, e), (BiPoly.variable(field, "x"), e))
    return split


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

    At an edge that raises the ramification, the simple edge roots are
    taken in the order :func:`~polartree.exactalg.roots_in_field` gives;
    a root that is a v-th root of unity times an earlier one is not
    recursed into.  Its root is the earlier one's, conjugated
    (:func:`_conjugate`), and emitted where its own recursion would emit.
    This is exact: the conjugation is an automorphism over C((y)) that
    fixes the prefix and maps the one root below c to the one root below
    omega c, so order, truncation, multiplicity and branch count are those
    of the recursion.  Roots of multiplicity above 1 are always expanded.
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
        out = unity_conductor(n, edge.slope.denominator)
        for poly in (chi, epoly):
            h = radical_conductor(poly, n, poly.degree())
            if h is not None:
                out = math.lcm(out, h)
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
            # slope * q = u / v: the edge raises the ramification v-fold, and
            # its simple roots fall into orbits c -> omega * c, omega^v = 1
            turn = edge.slope * q
            orbits = {}  # c^v -> (c, the root below c), per expanded simple c
            for c, r in found:
                if c.is_zero():
                    # zero is never an edge-polynomial root (the constant term
                    # of the edge polynomial is a vertex coefficient)
                    raise InternalInconsistency("zero edge coefficient")
                simple = r == 1 and turn.denominator > 1
                if simple:
                    power = c**turn.denominator
                    if power in orbits:
                        first, root = orbits[power]
                        self.roots.append(_conjugate(root, c / first, turn, q))
                        continue
                sub, sub_q, dropped = _substitute(
                    terms, q, edge.slope, c, self.field, r * (rest - edge.slope)
                )
                self._recurse(sub, sub_q, abs_exp, list(prefix) + [(abs_exp, c)],
                              multiplicity, stage + 1, lossy or dropped)
                if simple:
                    orbits[power] = (c, self.roots[-1])
        if past:
            self._emit_truncated(list(prefix), multiplicity, past)


def _ceil(v: Fraction) -> int:
    return -(-v.numerator // v.denominator)


def _conjugate(root: ExpandedRoot, omega: CycloRational, turn: Fraction,
               q: int) -> ExpandedRoot:
    """The one root below the edge root omega * c, derived from ``root``,
    the one root below c: its image under y^(1/(q v)) -> rho y^(1/(q v)),
    where ``turn`` = u / v is the edge slope times q and
    rho = omega^(u^-1 mod v).

    The map multiplies the coefficient at exponent e by rho^(e q v mod v).
    It fixes F and the prefix, whose exponents lie in (1/q)Z, and sends c
    at the edge's exponent to rho^u c = omega c.
    """
    u, v = turn.numerator, turn.denominator
    new_q = q * v
    rho = omega ** pow(u, -1, v)
    powers = [omega.field.one]
    for _ in range(v - 1):
        powers.append(powers[-1] * rho)
    terms = []
    for e, c in root.series.terms:
        k = e.numerator * (new_q // e.denominator) % v
        terms.append((e, c * powers[k] if k else c))
    return replace(root, series=PuiseuxSeries(root.series.field, terms, root.series.trunc))


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
