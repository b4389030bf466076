"""Field elements against a reference model of fraction vectors.

The model keeps an element of Q(zeta_N) as a tuple of phi(N) fractions in
the power basis and reduces products by the cyclotomic polynomial, written
out below; it inverts by Gaussian elimination on the multiplication
matrix, so it shares no code with the integer-numerator arithmetic of
``exactalg.CycloRational``.
"""

import math
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st
from kernel_references import from_coords

from polartree import CycloField

# ascending integer coefficients of the N-th cyclotomic polynomial
CYCLOTOMIC = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),                 # Phi_3(x^3)
    12: (1, 0, -1, 0, 1),
    15: (1, -1, 0, 1, -1, 1, 0, -1, 1),       # (x^10 + x^5 + 1) / (x^2 + x + 1)
}
CONDUCTORS = sorted(CYCLOTOMIC)
SETTINGS = settings(derandomize=True, max_examples=150, deadline=None)


# -- the reference model ------------------------------------------------------


def m_reduce(raw, n):
    phi = CYCLOTOMIC[n]
    d = len(phi) - 1
    raw = list(raw) + [F(0)] * max(d - len(raw), 0)
    for k in range(len(raw) - 1, d - 1, -1):
        c = raw[k]
        raw[k] = F(0)
        for i in range(d):
            raw[k - d + i] -= c * phi[i]
    return tuple(raw[:d])


def m_add(a, b):
    return tuple(u + v for u, v in zip(a, b))


def m_sub(a, b):
    return tuple(u - v for u, v in zip(a, b))


def m_mul(a, b, n):
    raw = [F(0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            raw[i + j] += u * v
    return m_reduce(raw, n)


def m_scalar(a, r):
    return tuple(u * r for u in a)


def m_inverse(a, n):
    """Solve a * x = 1: column j of the matrix is a * zeta^j."""
    d = len(a)
    cols = [m_mul(a, tuple(F(int(i == j)) for i in range(d)), n) for j in range(d)]
    rows = [[cols[j][i] for j in range(d)] + [F(int(i == 0))] for i in range(d)]
    for c in range(d):
        p = next(r for r in range(c, d) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(d):
            if r != c and rows[r][c]:
                rows[r] = [v - rows[r][c] * w for v, w in zip(rows[r], rows[c])]
    return tuple(rows[i][d] for i in range(d))


def m_pow(a, e, n):
    if e < 0:
        a, e = m_inverse(a, n), -e
    out = tuple(F(int(i == 0)) for i in range(len(a)))
    for _ in range(e):
        out = m_mul(out, a, n)
    return out


def m_str(a):
    parts = []
    for i, c in enumerate(a):
        if not c:
            continue
        mon = "zeta" if i == 1 else f"zeta^{i}"
        if i == 0:
            parts.append(str(c))
        elif c in (1, -1):
            parts.append(mon if c == 1 else f"-{mon}")
        else:
            parts.append(f"{c}*{mon}")
    if not parts:
        return "0"
    return parts[0] + "".join(f" - {p[1:]}" if p[0] == "-" else f" + {p}"
                              for p in parts[1:])


# -- strategies ---------------------------------------------------------------

small_fractions = st.builds(F, st.integers(-7, 7), st.integers(1, 6))
scalars = st.one_of(st.integers(-9, 9), small_fractions)


@st.composite
def vectors(draw, n):
    d = len(CYCLOTOMIC[n]) - 1
    head = draw(small_fractions)
    tail = draw(st.lists(st.one_of(st.just(F(0)), small_fractions),
                         min_size=d - 1, max_size=d - 1))
    return (head, *tail)


@st.composite
def field_and_vectors(draw, count):
    n = draw(st.sampled_from(CONDUCTORS))
    return (CycloField(n), *(draw(vectors(n)) for _ in range(count)))


def assert_canonical(x):
    assert x.den > 0
    assert math.gcd(x.den, *x.num) == 1
    assert all(type(u) is int for u in x.num) and type(x.den) is int
    assert len(x.num) == x.field.degree


def agrees(x, model):
    assert_canonical(x)
    assert x.coords == model
    return True


# -- properties -----------------------------------------------------------------


@SETTINGS
@given(field_and_vectors(2))
def test_ring_operations_match_the_model(data):
    K, a, b = data
    n = K.conductor
    x, y = from_coords(K, a), from_coords(K, b)
    assert agrees(x, a) and agrees(y, b)
    assert agrees(x + y, m_add(a, b))
    assert agrees(x - y, m_sub(a, b))
    assert agrees(-x, m_scalar(a, -1))
    assert agrees(x * y, m_mul(a, b, n))
    if any(b):
        assert agrees(y.inverse(), m_inverse(b, n))
        assert agrees(x / y, m_mul(a, m_inverse(b, n), n))


@SETTINGS
@given(field_and_vectors(1), st.integers(-4, 5))
def test_powers_match_the_model(data, e):
    K, a = data
    if e < 0 and not any(a):
        return
    assert agrees(from_coords(K, a) ** e, m_pow(a, e, K.conductor))


@SETTINGS
@given(field_and_vectors(1), scalars)
def test_int_and_fraction_operands(data, r):
    K, a = data
    x = from_coords(K, a)
    rv = (F(r),) + (F(0),) * (K.degree - 1)
    assert agrees(x + r, m_add(a, rv))
    assert agrees(r + x, m_add(a, rv))
    assert agrees(x - r, m_sub(a, rv))
    assert agrees(r - x, m_sub(rv, a))
    assert agrees(x * r, m_scalar(a, F(r)))
    assert agrees(r * x, m_scalar(a, F(r)))
    if r:
        assert agrees(x / r, m_scalar(a, 1 / F(r)))
    if any(a):
        assert agrees(r / x, m_scalar(m_inverse(a, K.conductor), F(r)))


@SETTINGS
@given(field_and_vectors(2))
def test_equality_matches_hash(data):
    K, a, b = data
    x, y = from_coords(K, a), from_coords(K, b)
    for u, v in (((x + y) - y, x), (x * y, y * x), (x + x, 2 * x),
                 (x * (x + y), x * x + x * y)):
        assert u == v and hash(u) == hash(v)
    assert (x == y) == (a == b)
    if x == y:
        assert hash(x) == hash(y)


@SETTINGS
@given(st.sampled_from(CONDUCTORS).flatmap(
    lambda n: st.lists(vectors(n), min_size=2, max_size=6).map(lambda vs: (n, vs))))
def test_sort_key_order_and_str(data):
    n, vs = data
    K = CycloField(n)
    xs = [from_coords(K, v) for v in vs]
    assert [x.sort_key() for x in sorted(xs, key=lambda x: x.sort_key())] == sorted(vs)
    for x, v in zip(xs, vs):
        assert str(x) == m_str(v)


@SETTINGS
@given(field_and_vectors(2), st.booleans())
def test_canonical_form_and_rational_test(data, rational):
    K, a, b = data
    if rational:
        a = (a[0],) + (F(0),) * (K.degree - 1)
    x, y = from_coords(K, a), from_coords(K, b)
    for z in (x, y, x + y, x - y, x * y, x - x, y * 0):
        assert_canonical(z)
        assert any(z.coords[1:]) == (not z.is_rational())
    zero = x - x
    assert zero.num == (0,) * K.degree and zero.den == 1 and zero == K.zero
    assert x.is_rational() == (not any(a[1:]))
