"""Field arithmetic, univariate polynomials, and in-field root finding."""

import random
from fractions import Fraction as F

import kernel_references
from kernel_references import from_coords
import pytest
from hypothesis import given, settings, strategies as st

from polartree import (
    BiPoly,
    CycloField,
    DivisionByZero,
    InternalInconsistency,
    PolartreeError,
    UniPoly,
    ZeroPolynomial,
    poly_gcd,
    roots_in_field,
    squarefree_decompose,
)
from polartree import exactalg

K4 = CycloField(4)
K3 = CycloField(3)
K12 = CycloField(12)


def P(*coeffs, field=K4):
    return UniPoly(field, coeffs)


def test_gaussian_product():
    i = K4.zeta()
    assert (K4.one + i) * (K4.one - i) == K4.rational(2)


def test_cube_root_square():
    z = K3.zeta()
    assert z * z == from_coords(K3, [F(-1), F(-1)])


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        K4.rational(F(5, 3)) / K4.zero


def test_zeta_orders():
    z = K12.zeta()
    assert z**12 == K12.one
    assert z**6 == K12.rational(-1)
    z3 = K12.zeta_of_order(3)
    assert z3**3 == K12.one and z3 != K12.one


def test_field_axioms_random():
    rng = random.Random(7)

    def rand_elt(field):
        return from_coords(
            field, [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(field.degree)]
        )

    for field in (K4, K3, K12):
        for _ in range(25):
            a, b, c = rand_elt(field), rand_elt(field), rand_elt(field)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if not a.is_zero():
                assert a * a.inverse() == field.one
                assert (b / a) * a == b


def test_squarefree_already():
    p = P(-1, 0, 1)  # z^2 - 1
    assert squarefree_decompose(p) == [(p, 1)]


def test_squarefree_with_multiplicity():
    p = P(1, -1) * P(1, -1) * P(2, 1)  # (1-z)^2 (z+2)
    out = {(str(f), m) for f, m in squarefree_decompose(p)}
    assert out == {("z - 1", 2), ("z + 2", 1)}


def test_squarefree_pure_power():
    out = squarefree_decompose(P(0, 0, 0, 1))  # z^3
    assert [(str(f), m) for f, m in out] == [("z", 3)]


def test_squarefree_zero_poly():
    with pytest.raises(ZeroPolynomial):
        squarefree_decompose(UniPoly.zero(K4))


def test_squarefree_reconstruction_random():
    rng = random.Random(11)
    for _ in range(20):
        p = P(1)
        for _ in range(rng.randint(1, 3)):
            lin = P(rng.randint(-3, 3), rng.choice([1, 1, 2]))
            p = p * lin ** rng.randint(1, 3)
        prod = P(1)
        for f, m in squarefree_decompose(p):
            prod = prod * f**m
        assert kernel_references.equal_up_to_constant(
            BiPoly.from_x_coefficients(K4, [prod]),
            BiPoly.from_x_coefficients(K4, [p]),
        )


SQUAREFREE_FIELDS = tuple(CycloField(n) for n in (1, 4, 12))


@st.composite
def _squarefree_inputs(draw):
    """Products of powers of small factors over Q(zeta_N), N in {1, 4, 12};
    most have rational coefficients, like the inputs of the pipeline."""
    field = draw(st.sampled_from(SQUAREFREE_FIELDS))
    rational = field.degree == 1 or draw(st.integers(0, 3)) > 0

    def element():
        coords = [draw(st.integers(-4, 4)) if k == 0 or not rational else 0
                  for k in range(field.degree)]
        return from_coords(field, [F(u, draw(st.sampled_from((1, 1, 2, 5)))) for u in coords])

    p = UniPoly.constant(field, draw(st.sampled_from((1, 2, F(-3, 4)))))
    for _ in range(draw(st.integers(1, 3))):
        lead = element()
        f = UniPoly(field, [element() for _ in range(draw(st.integers(1, 2)))]
                    + [lead if not lead.is_zero() else field.one])
        p = p * f ** draw(st.sampled_from((1, 1, 2, 3)))
    return p


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_squarefree_inputs())
def test_squarefree_certificate_matches_yun(p):
    assert squarefree_decompose(p) == kernel_references.squarefree(p)


@pytest.mark.parametrize("coeffs", [
    # the leading coefficient vanishes modulo the prime
    (-1, 0, exactalg._CERTIFICATE_PRIME),
    (F(1, 3), 1, 2 * exactalg._CERTIFICATE_PRIME),
    # x^2 - P is squarefree over Q but x^2 modulo P
    (-exactalg._CERTIFICATE_PRIME, 0, 1),
    # squarefree over Q, with a double root 1 modulo P
    (exactalg._CERTIFICATE_PRIME + 1, -2, 1),
])
def test_squarefree_certificate_falls_back_to_yun(coeffs):
    p = UniPoly(CycloField(1), coeffs)
    assert not exactalg._squarefree_mod_prime(p)
    assert squarefree_decompose(p) == kernel_references.squarefree(p) == [(p.monic(), 1)]


def test_roots_rational():
    roots, rest = roots_in_field(P(-1, 0, 1))
    assert rest == P(1)
    assert {str(r) for r, _ in roots} == {"1", "-1"}


def test_roots_gaussian():
    roots, rest = roots_in_field(P(1, 0, 1))
    assert rest == P(1)
    assert {str(r) for r, _ in roots} == {"zeta", "-zeta"}


def test_roots_unresolved_sqrt2():
    roots, rest = roots_in_field(P(-2, 0, 1))
    assert roots == [] and rest == P(-2, 0, 1)


def test_roots_evaluate_to_zero():
    rng = random.Random(13)
    for field in (K4, K12):
        for _ in range(15):
            p = UniPoly(field, [1])
            for _ in range(rng.randint(1, 3)):
                root = field.rational(rng.randint(-3, 3)) * field.zeta(
                    rng.randrange(field.conductor)
                )
                p = p * UniPoly(field, (-root, field.one))
            found, rest = roots_in_field(p)
            assert rest == UniPoly(field, [1])
            assert sum(m for _, m in found) == p.degree()
            for r, _ in found:
                assert p.evaluate(r).is_zero()


def test_roots_with_multiplicity():
    p = P(0, 0, 0, 1) * P(-1, 1)  # z^3 (z-1)
    roots, rest = roots_in_field(p)
    assert rest == P(1)
    assert {(str(r), m) for r, m in roots} == {("0", 3), ("1", 1)}


def test_compose_shift_matches_horner_reference():
    rng = random.Random(7)
    small = lambda: F(rng.randint(-4, 4), rng.randint(1, 3))  # noqa: E731
    for field in (CycloField(1), K4, K12):
        for _ in range(25):
            p = UniPoly(field, [from_coords(field, [small() for _ in range(field.degree)])
                                for _ in range(rng.randint(0, 6))], "w")
            c = from_coords(field, [small() if k == 0 or rng.random() < 0.5 else 0
                                   for k in range(field.degree)])
            got = p.compose_shift(c)
            assert got == kernel_references.shift_poly(p, c) and got.var == "w"


def test_gcd_monic():
    a = P(-1, 0, 1)
    b = P(-1, 1)
    assert poly_gcd(a, b) == P(-1, 1)


def test_root_multiplicity_exact_division():
    # a candidate point's multiplicity from roots_in_field, as
    # BarAnalysis.mero_zeros holds it, against repeated exact division
    p = P(-1, 1) ** 3 * P(1, 1) * P(-2, 0, 1)
    points = [K4.one, K4.rational(-1), K4.rational(2)]
    found, rest = roots_in_field(p, points)
    assert rest == P(-2, 0, 1)
    got = [dict(found).get(z, 0) for z in points]
    assert got == [kernel_references.root_multiplicity(p, z) for z in points] == [3, 1, 0]


def test_bipoly_arithmetic_and_calculus():
    x = BiPoly.variable(K4, "x")
    y = BiPoly.variable(K4, "y")
    f = (x + y) ** 2
    assert str(f) == "x^2 + 2*x*y + y^2"
    assert f.diff_x() == (x + y) * 2
    assert f.diff_y() == (x + y) * 2
    assert (x * x - y * y).y_content() == 0
    assert ((x * y - y * y) * y).y_content() == 2


def test_bipoly_laurent_gate():
    # the gate on negative exponents is the parser's; a BiPoly holds them
    p = BiPoly(K4, {(0, -1): K4.one})
    assert str(p) == "y^(-1)"
    assert p.shift_y(1) == BiPoly.constant(K4, 1)


def test_bipoly_shear():
    x = BiPoly.variable(K4, "x")
    y = BiPoly.variable(K4, "y")
    sheared = (x * x - y * y).substitute_shear(K4.one)
    assert str(sheared) == "-2*x*y - y^2"


# -- BiPoly products through packed integers ----------------------------------


def _schoolbook_mul(a, b):
    """BiPoly.__mul__ as it was before products went through packed
    integers: one field product per pair of terms."""
    out: dict[tuple[int, int], object] = {}
    for (i1, j1), c1 in a.terms.items():
        for (i2, j2), c2 in b.terms.items():
            k = (i1 + i2, j1 + j2)
            prod = c1 * c2
            s = out.get(k)
            out[k] = prod if s is None else s + prod
    return BiPoly(a.field, {k: c for k, c in out.items() if not c.is_zero()})


MUL_FIELDS = tuple(CycloField(n) for n in (1, 3, 5, 12))


@st.composite
def _elements(draw, field):
    """Small field elements, and some with numerator or denominator near
    10^30."""
    coords = [draw(st.sampled_from((0, 0, 0, 1, -1, 2))) for _ in range(field.degree)]
    coords[0] += draw(st.integers(-3, 3)) + draw(st.sampled_from((0,) * 6 + (10**30, -10**30)))
    den = draw(st.sampled_from((1,) * 5 + (2, 3, 10**30 + 1)))
    return from_coords(field, [F(c, den) for c in coords])


@st.composite
def _factors(draw):
    field = draw(st.sampled_from(MUL_FIELDS))

    def poly():
        keys = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(-3, 5)),
                             max_size=5, unique=True))
        return BiPoly(field, {k: draw(_elements(field)) for k in keys})

    p, q = poly(), poly()
    if draw(st.booleans()):
        return p + q, p - q  # p^2 - q^2: the cross terms cancel
    return p, q


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_factors())
def test_packed_product_matches_the_schoolbook_loop(factors):
    a, b = factors
    for got, want in ((a * b, _schoolbook_mul(a, b)), (b * a, _schoolbook_mul(b, a))):
        assert got.terms == want.terms
        assert got.field is want.field


@pytest.mark.parametrize("n, text", [
    (1, "x^2 - 2*x*y + y^2"),
    (3, "x^2 + x*y + y^2"),
    (4, "x^2 + y^2"),
    (5, "x^2 + (1 + zeta^2 + zeta^3)*x*y + y^2"),
    (12, "x^2 + (-2*zeta + zeta^3)*x*y + y^2"),
])
def test_product_of_conjugate_linear_factors(n, text):
    # (x - zeta*y)*(x - zeta^-1*y): the y^2 cell folds zeta^k * zeta^-k
    field = CycloField(n)
    x, y = BiPoly.variable(field, "x"), BiPoly.variable(field, "y")
    a, b = x - y * field.zeta(), x - y * field.zeta(-1)
    assert a * b == _schoolbook_mul(a, b)
    assert str(a * b) == text


def test_mixing_fields_raises():
    # a run lives in one field: even rational elements of Q(zeta_4) and
    # Q(zeta_12) do not combine, and neither do polynomials over them
    for u, v in ((K4.rational(F(1, 2)), K12.rational(F(1, 3))),
                 (K4.zeta(), K12.zeta()), (K4.one, K12.zeta())):
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
            for a, b in ((u, v), (v, u)):
                with pytest.raises(ValueError):
                    op(a, b)
        assert u != v and v != u
    a = BiPoly(K4, {(1, 0): 1, (0, 1): 2, (0, 0): F(1, 2)})
    b = BiPoly(K12, {(1, 0): 1, (0, 1): -K12.zeta(), (0, 0): F(1, 3)})
    for p, q in ((a, b), (b, a), (a, BiPoly.variable(K12, "y")),
                 (BiPoly.variable(K12, "y"), a)):
        with pytest.raises(ValueError):
            p * q


def test_pollard_rho_failure_is_a_polartree_error(monkeypatch):
    # a gcd that always returns n makes every rho attempt fail
    monkeypatch.setattr(exactalg.math, "gcd", lambda a, n: n)
    with pytest.raises(PolartreeError) as e:
        exactalg._factorize(91)
    assert isinstance(e.value, InternalInconsistency)


@pytest.mark.parametrize("n, coeffs, roots, unresolved", [
    # z^2 + z + 1 does not split over Q; its roots zeta^8 = -zeta^2 and
    # zeta^4 come from the rotation search
    (12, (1, 1, 1), ["-zeta^2", "-1 + zeta^2"], 0),
    # psi = (u - 1)(u - 2) at u = z^3: the cube roots of 1 in the field, in
    # the order of their least j; the cube roots of 2 stay unresolved
    (12, (2, 0, 0, -3, 0, 0, 1), ["1", "-zeta^2", "-1 + zeta^2"], 3),
    (4, (2, 0, 0, -3, 0, 0, 1), ["1"], 5),
    (12, (1, 0, 0, 0, 1), [], 4),    # z^4 + 1: primitive 8th roots of unity
    (4, (-4, 0, 0, 0, 1), [], 4),    # z^4 - 4: +-sqrt(2), +-i*sqrt(2)
])
def test_roots_in_field_pins(n, coeffs, roots, unresolved):
    p = P(*coeffs, field=CycloField(n))
    found, rest = roots_in_field(p)
    assert [str(r) for r, _ in found] == roots
    assert all(m == 1 for _, m in found)
    assert rest.degree() == unresolved and rest.var == "z"
    assert rest * kernel_references.located_product(found, p) == p.monic()


def test_norm_inverse_of_a_unit_and_a_non_unit():
    z = K12.zeta()
    u = K12.one + z                      # a unit of Z[zeta_12]: its norm is 1
    assert u.inverse() * u == K12.one
    assert all(c.denominator == 1 for c in u.inverse().coords)
    a = (K12.rational(2) + z) / 3        # norm of 2 + zeta_12 is 13
    assert a.inverse() * a == K12.one
    assert a.inverse().den == 13
