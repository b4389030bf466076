"""Reference versions of the integer inner-loop kernels, kept for comparison.

``substitute`` is ``npsolve._substitute`` as it was before the Taylor shift:
one field product per binomial entry of every kept term.  ``squarefree`` is
``exactalg.squarefree_decompose`` without the certificate modulo a prime:
Yun's algorithm over the field on every input.

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

``equal_up_to_constant`` tells whether a = c*b for a nonzero constant c, and
``conjugate_series`` applies y^(1/ram) -> zeta_ram^k * y^(1/ram) term by
term; it is the reference the tree's conjugacy classes are checked against.
``series_neg`` and ``series_sub`` are -a and a - b on series, with the
truncation of ``PuiseuxSeries.__add__``, and ``series_shift`` is y^e times a
series.  ``from_coords`` builds a field element from its power-basis
coordinates, and ``root_order`` is the order of an expanded root: its first
exponent, its branch point, or INF.
"""

import math
from fractions import Fraction

from polartree import FieldTooSmall, INF, PuiseuxSeries, TruncationTooShort, UniPoly
from polartree.exactalg import _canon, poly_gcd
from polartree.npsolve import _ceil


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
    zvar = UniPoly(field, (field.zero, field.one), "z")

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
        add = UniPoly.constant(field, c, "z")
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


def root_multiplicity(p, point):
    lin = UniPoly(p.field, (-point, p.field.one), p.var)
    m = 0
    while not p.is_zero() and p.evaluate(point).is_zero():
        p = p.exact_div(lin)
        m += 1
    return m


def located_product(roots, p):
    out = UniPoly.constant(p.field, 1, p.var)
    for r, m in roots:
        for _ in range(m):
            out = out * UniPoly(p.field, (-r, p.field.one), p.var)
    return out


def shift_poly(p, c):
    out = UniPoly.zero(p.field, p.var)
    lin = UniPoly(p.field, (c, p.field.one), p.var)
    for k in range(p.degree(), -1, -1):
        out = out * lin + UniPoly.constant(p.field, p[k], p.var)
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
