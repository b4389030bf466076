"""Reference versions of the integer inner-loop kernels, kept for comparison.

``substitute`` is ``npsolve._substitute`` as it was before the Taylor shift:
one field product per binomial entry of every kept term.  ``squarefree`` is
``exactalg.squarefree_decompose`` without the certificate modulo a prime:
Yun's algorithm over the field on every input.
"""

import math

from polartree.exactalg import poly_gcd
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
