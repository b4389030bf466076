"""Reference versions of the integer inner-loop kernels, kept for comparison.

``substitute`` is ``npsolve._substitute`` as it was before the Taylor shift:
one field product per binomial entry of every kept term.  ``squarefree`` is
``exactalg.squarefree_decompose`` without the certificate modulo a prime:
Yun's algorithm over the field on every input.  ``split`` is
``npsolve.multiplicity_split`` as it was before its x-power step and its
lucky point modulo a prime: exact sampling and interpolation alone, with
``squarefree`` at every sample point.

The arc references run Horner in x on ``Fraction``-keyed series, with the
pessimistic truncation rule of ``PuiseuxSeries`` arithmetic:
``substitute_arc`` gives F(xi(y), y) as a series, ``series_order`` its order,
and ``generic_arc_order`` the order of F(prefix(y) + z*y^h, y) for a symbolic
z, with its leading coefficient in z.  ``dict_horner_order`` is the order
along an exact arc by Horner on dicts keyed by integer y-exponents, fast
enough for many drawn inputs.

``root_multiplicity`` is a point's multiplicity as a root by repeated exact
division, ``located_product`` the product of (z - r)^m over located roots,
and ``shift_poly`` p(z + c) by Horner's rule on polynomials.

``evaluate`` is ``UniPoly.evaluate`` as it was: p(point) by Horner's rule
with one field product per coefficient, which ``UniPoly.vanishes_at``
replaced with integer Horner.  ``vanishes_at_two`` is the pre-test of
``puiseux.vanishes_along`` as it was: F(x, 2^d) from ``BiPoly.at_y`` at the
arc's value at t = 2, one field product per term.  ``jacobian`` is
``jacoracle.jacobian`` as it was: two packed products of derivative
polynomials, subtracted term by term, with ``diff_y`` the y-derivative
``BiPoly.diff_y`` that only it used.

``equal_up_to_constant`` tells whether a = c*b for a nonzero constant c, and
``conjugate_series`` applies y^(1/ram) -> zeta_ram^k * y^(1/ram) term by
term; it is the reference the tree's conjugacy classes are checked against.
``series_neg`` and ``series_sub`` are -a and a - b on series, with the
truncation of ``PuiseuxSeries.__add__``, and ``series_shift`` is y^e times a
series.  ``from_coords`` builds a field element from its power-basis
coordinates, and ``root_order`` is the order of an expanded root: its first
exponent, its branch point, or INF.

``rational_roots`` is ``exactalg._rational_roots`` as the divisor-pair
search it replaced: every p/q with p dividing the constant term and q the
leading coefficient, both lists from trial division.  It is exact but slow
on coefficients with a large prime factor, so it only checks inputs whose
prime factors are small.  ``rational_gcd_roots`` is the rotation search's
old step in ``exactalg._rotation_roots``: the rational roots common to a
list of integer coordinate polynomials, from their gcd over Q.
"""

import math
from fractions import Fraction

from polartree import (
    BiPoly,
    CycloField,
    FieldTooSmall,
    INF,
    InternalInconsistency,
    PuiseuxSeries,
    TruncationTooShort,
    UniPoly,
)
from polartree.exactalg import _canon, _interpolate, _rational_roots, poly_gcd
from polartree.npsolve import _ceil, _certified, _normalized


def substitute(terms, q, m, c, field, bound):
    new_q = q * m.denominator // math.gcd(q, m.denominator)
    scale = new_q // q
    step = m.numerator * (new_q // m.denominator)
    mu = min(j * scale + i * step for (i, j) in terms)
    cut = mu + _ceil(bound * new_q)
    out = {}
    dropped = False
    cpow = [field.one]
    rows = {}  # i -> [C(i, k) * c^(i-k) for k = 0..i]
    for (i, j), a in terms.items():
        ybase = j * scale + i * step
        if ybase >= cut:
            dropped = True
            continue
        row = rows.get(i)
        if row is None:
            while len(cpow) <= i:
                cpow.append(cpow[-1] * c)
            row = rows[i] = [cpow[i - k] * math.comb(i, k) for k in range(i)] + [1]
        ybase -= mu
        for k in range(i + 1):
            coeff = a * row[k]
            key = (k, ybase)
            cur = out.get(key)
            out[key] = coeff if cur is None else cur + coeff
    return {k: v for k, v in out.items() if not v.is_zero()}, new_q, dropped


def squarefree(p):
    if p.degree() == 0:
        return []
    d = p.derivative()
    g = poly_gcd(p, d)
    if g.degree() == 0:
        return [(p.monic(), 1)]
    c = p.exact_div(g)
    w = d.exact_div(g) - c.derivative()
    out = []
    i = 1
    while c.degree() > 0:
        a = poly_gcd(c, w)
        if a.degree() > 0:
            out.append((a.monic(), i))
        c_next = c.exact_div(a) if a.degree() > 0 else c
        w = (w.exact_div(a) if a.degree() > 0 else w) - c_next.derivative()
        c = c_next
        i += 1
    return out



def split(F):
    field = F.field
    n = F.x_degree()
    if n < 1:
        return []
    G = F.shift_y(-F.y_content())
    ydeg = max(j for (_, j) in G.terms)
    lead_deg = max(j for (i, j) in G.terms if i == n)
    need = ydeg + lead_deg + 1
    last = lead_deg + (2 * n - 1) * ydeg + need
    best = None
    points = []
    for y0 in range(1, last + 1):
        a = G.at_y(y0)
        if a.degree() < n:
            continue
        parts = squarefree(a)
        if [m for _, m in parts] == [1]:
            return [(F, 1)]
        key = (sum(p.degree() for p, _ in parts), [(m, p.degree()) for p, m in parts])
        if best is None or key[0] > best[0]:
            best, points = key, []
        if key != best:
            continue
        points.append((y0, a.leading(), parts))
        if len(points) != need:
            continue
        ys = [y for y, _, _ in points]
        out = []
        for t, (m, d) in enumerate(best[1]):
            cols = [
                UniPoly(field, _interpolate(ys, [lc * ps[t][0][e] for _, lc, ps in points]))
                for e in range(d + 1)
            ]
            out.append((_normalized(cols, field), m))
        if _certified(G, out, ys[0]):
            return out
    raise InternalInconsistency(f"squarefree split not certified after {last} sample points")

def substitute_arc(F, xi):
    rows = {}
    for (i, j), c in F.terms.items():
        row = rows.get(i)
        term = PuiseuxSeries(xi.field, [(Fraction(j), c)], INF)
        rows[i] = term if row is None else row + term
    if not rows:
        return PuiseuxSeries.zero(xi.field)
    acc = PuiseuxSeries.zero(xi.field)
    for i in range(max(rows), -1, -1):
        acc = acc * xi
        if i in rows:
            acc = acc + rows[i]
    return acc


def series_order(F, xi):
    val = substitute_arc(F, xi)
    if val.terms:
        return val.terms[0][0]
    if val.trunc is INF:
        return INF
    raise TruncationTooShort("hidden")


def generic_arc_order(F, prefix, h):
    field = F.field
    zvar = UniPoly(field, (field.zero, field.one))

    def mul_arc(acc):
        out = {}
        for e, poly in acc.items():
            for pe, pc in prefix.terms:
                k = e + pe
                add = poly * pc
                out[k] = out[k] + add if k in out else add
            k = e + h
            add = poly * zvar
            out[k] = out[k] + add if k in out else add
        return {k: v for k, v in out.items() if not v.is_zero()}

    rows = {}
    for (i, j), c in F.terms.items():
        row = rows.setdefault(i, {})
        key = Fraction(j)
        add = UniPoly.constant(field, c)
        row[key] = row[key] + add if key in row else add
    acc = {}
    for i in range(max(rows, default=0), -1, -1):
        acc = mul_arc(acc) if acc else {}
        if i in rows:
            for k, v in rows[i].items():
                acc[k] = acc[k] + v if k in acc else v
            acc = {k: v for k, v in acc.items() if not v.is_zero()}
    if not acc:
        raise ValueError("zero polynomial")
    e = min(acc)
    return e, acc[e]


def dict_horner_order(F, xi):
    d = xi.exponent_denominator()
    arc = [(int(e * d), c) for e, c in xi.terms]
    rows = {}
    for (i, j), c in F.terms.items():
        rows.setdefault(i, {})[j * d] = c
    acc = {}
    for i in range(max(rows, default=0), -1, -1):
        out = {}
        for e1, c1 in acc.items():
            for e2, c2 in arc:
                v = c1 * c2
                cur = out.get(e1 + e2)
                out[e1 + e2] = v if cur is None else cur + v
        for e, c in rows.get(i, {}).items():
            cur = out.get(e)
            out[e] = c if cur is None else cur + c
        acc = {e: c for e, c in out.items() if not c.is_zero()}
    return Fraction(min(acc), d) if acc else INF


def evaluate(p, point):
    acc = p.field.zero
    for c in reversed(p.coeffs):
        acc = acc * point + c
    return acc


def vanishes_at_two(F, arc, d):
    x0 = sum((c * 2**n if n >= 0 else c / 2**-n for n, c in arc), F.field.zero)
    return evaluate(F.at_y(2**d), x0).is_zero()


def diff_y(f):
    return BiPoly(f.field, {(i, j - 1): c * j for (i, j), c in f.terms.items() if j})


def jacobian(f, g):
    return diff_y(f) * g.diff_x() - f.diff_x() * diff_y(g)


def root_multiplicity(p, point):
    lin = UniPoly(p.field, (-point, p.field.one))
    m = 0
    while not p.is_zero() and evaluate(p, point).is_zero():
        p = p.exact_div(lin)
        m += 1
    return m


def located_product(roots, p):
    out = UniPoly.constant(p.field, 1)
    for r, m in roots:
        for _ in range(m):
            out = out * UniPoly(p.field, (-r, p.field.one))
    return out


def shift_poly(p, c):
    out = UniPoly.zero(p.field)
    lin = UniPoly(p.field, (c, p.field.one))
    for k in range(p.degree(), -1, -1):
        out = out * lin + UniPoly.constant(p.field, p[k])
    return out


def equal_up_to_constant(a, b):
    if a.is_zero() or b.is_zero():
        return a.is_zero() and b.is_zero()
    if set(a.terms) != set(b.terms):
        return False
    key = next(iter(a.terms))
    ratio = a.terms[key] / b.terms[key]
    return all(c == ratio * b.terms[k] for k, c in a.terms.items())


def conjugate_series(a, k, ram):
    if ram < 1:
        raise ValueError("ramification bound must be positive")
    k %= ram
    theta = a.field.zeta_of_order(ram)  # FieldTooSmall if absent
    if k == 0:
        return a
    out = []
    for e, c in a.terms:
        n = e * ram
        if n.denominator != 1:
            raise FieldTooSmall(f"exponent {e} has denominator not dividing the bound {ram}")
        out.append((e, c * theta ** (int(n) * k)))
    return PuiseuxSeries(a.field, out, a.trunc)


def series_neg(a):
    return PuiseuxSeries(a.field, [(e, -c) for e, c in a.terms], a.trunc)


def series_sub(a, b):
    return a + series_neg(b)


def series_shift(a, e):
    e = Fraction(e)
    t = a.trunc if a.trunc is INF else a.trunc + e
    return PuiseuxSeries(a.field, [(te + e, c) for te, c in a.terms], t)


def from_coords(field, coords):
    if len(coords) != field.degree:
        raise ValueError("coordinate vector has wrong length")
    coords = [Fraction(c) for c in coords]
    den = math.lcm(*(c.denominator for c in coords))
    return _canon(field, tuple([c.numerator * (den // c.denominator) for c in coords]), den)


def root_order(r):
    if r.series.terms:
        return r.series.terms[0][0]
    if r.branch_exp is not None:
        return r.branch_exp
    return INF


def _divisors(n):
    """The positive divisors of n != 0, ascending, by trial division."""
    n, primes, d = abs(n), {}, 2
    while d * d <= n:
        while n % d == 0:
            primes[d] = primes.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        primes[n] = primes.get(n, 0) + 1
    out = [1]
    for p, e in primes.items():
        out = [a * p**k for a in out for k in range(e + 1)]
    return sorted(out)


def rational_roots(int_coeffs):
    """The rational roots of an integer polynomial (ascending coefficients):
    0 first, then p/q and -p/q for p, q coprime in ascending divisor order."""
    coeffs = list(int_coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return []
    roots = [Fraction(0)] if coeffs[0] == 0 else []
    while coeffs[0] == 0:
        coeffs.pop(0)
    if len(coeffs) == 1:
        return roots

    def vanishes(p, q):
        # q^n times the value at p/q, on the homogenized polynomial
        return sum(c * p**i * q**(len(coeffs) - 1 - i) for i, c in enumerate(coeffs)) == 0

    for p in _divisors(coeffs[0]):
        for q in _divisors(coeffs[-1]):
            if math.gcd(p, q) == 1:
                roots += [Fraction(s, q) for s in (p, -p) if vanishes(s, q)]
    return roots


def rational_gcd_roots(coord_polys):
    """Rational roots common to all integer coordinate polynomials."""
    Q = CycloField(1)
    g = UniPoly.zero(Q)
    for p in coord_polys:
        g = poly_gcd(g, UniPoly(Q, p))
        if g.degree() == 0:
            return []
    # the monic gcd times the lcm of its denominators is primitive
    lcm = math.lcm(*(c.den for c in g.coeffs))
    return _rational_roots([c.num[0] * (lcm // c.den) for c in g.coeffs])
