"""Exact arithmetic over cyclotomic-rational numbers and polynomials.

A run lives in one field: every element, polynomial and series of a run
is over Q(zeta_N) for one conductor N, and the pipeline restarts the whole
run when N must grow.  Elements of one field combine with each other and
with ``int`` and ``Fraction`` operands; combining two elements, or
multiplying two polynomials, of different fields raises ``ValueError``,
and an element equals no element of another field and no int or Fraction.

An element is a tuple of phi(N) integer numerators over one positive integer
denominator, in the power basis 1, zeta, ..., zeta^(phi(N)-1), kept fully
reduced modulo the N-th cyclotomic polynomial and in lowest terms
(gcd(den, *num) = 1), so equal elements have equal representations.  The
cyclotomic polynomial is monic with integer coefficients, so products
reduce in Z.  ``fractions.Fraction`` appears only where an element meets
the outside: building one from rationals, and reading or printing its
coordinates.  All arithmetic is exact; there is no floating point
anywhere in this module.

Univariate polynomials (:class:`UniPoly`) are dense coefficient tuples over
the field.  Bivariate polynomials (:class:`BiPoly`) are sparse term maps
``(x_exponent, y_exponent) -> coefficient``; y exponents may be negative
(Laurent input, which only the parser gates).
"""

from __future__ import annotations

import math
import sys
from array import array
from fractions import Fraction
from functools import lru_cache
from operator import add, sub
from typing import Iterable, Sequence

from .errors import (
    DivisionByZero,
    FieldTooSmall,
    InternalInconsistency,
    ZeroPolynomial,
)

Rat = Fraction
_gcd = math.gcd
_ZERO = Rat(0)
_MIXED = "cannot mix elements of different cyclotomic fields"


def _euler_phi(n: int) -> int:
    out = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


@lru_cache(maxsize=None)
def _cyclotomic_int_coeffs(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, ascending."""
    # x^n - 1 divided by the cyclotomic polynomials of the proper divisors.
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d:
            continue
        div = _cyclotomic_int_coeffs(d)
        quot = [0] * (len(poly) - len(div) + 1)
        rem = list(poly)
        for k in range(len(rem) - len(div), -1, -1):
            c = rem[k + len(div) - 1]
            if c:
                quot[k] = c
                for i, dc in enumerate(div):
                    rem[k + i] -= c * dc
        assert not any(rem), "cyclotomic division must be exact"
        poly = quot
    return tuple(poly)


class CycloField:
    """The field Q(zeta_N), with cached reduction data for the power basis."""

    _cache: dict[int, "CycloField"] = {}

    def __new__(cls, conductor: int) -> "CycloField":
        if conductor < 1:
            raise ValueError("conductor must be a positive integer")
        inst = cls._cache.get(conductor)
        if inst is None:
            inst = super().__new__(cls)
            inst._init(conductor)
            cls._cache[conductor] = inst
        return inst

    def _init(self, conductor: int) -> None:
        self.conductor = conductor
        self.degree = d = _euler_phi(conductor)
        self._modulus = _cyclotomic_int_coeffs(conductor)
        # zeta^d = sum of h * zeta^i over these (i, h): the nonzero terms only
        self._head = tuple((i, -c) for i, c in enumerate(self._modulus[:d]) if c)
        # the exponents k of the Galois automorphisms zeta -> zeta^k other than 1
        self._units = tuple(k for k in range(2, conductor) if math.gcd(k, conductor) == 1)
        self._zeros = (0,) * (d - 1)
        self.zero = CycloRational(self, (0,) * d, 1)
        self.one = CycloRational(self, (1,) + self._zeros, 1)

    def rational(self, value: Rat | int) -> CycloRational:
        if isinstance(value, int):
            return CycloRational(self, (value,) + self._zeros, 1)
        r = Rat(value)
        return CycloRational(self, (r.numerator,) + self._zeros, r.denominator)

    def zeta(self, power: int = 1) -> CycloRational:
        """zeta_N ** power."""
        power %= self.conductor
        if self.conductor == 1:
            return self.one
        raw = [0] * self.conductor
        raw[power] = 1
        return self._reduce(raw, 1)

    def zeta_of_order(self, order: int) -> CycloRational:
        """A primitive root of unity of the given order, if present.

        For odd N the field equals Q(zeta_2N), so orders dividing 2N are
        available there as well.
        """
        if order >= 1 and self.conductor % order == 0:
            return self.zeta(self.conductor // order)
        n = self.conductor
        if order >= 1 and n % 2 == 1 and (2 * n) % order == 0:
            doubled = -self.zeta((n + 1) // 2)  # a primitive 2N-th root
            return doubled ** (2 * n // order)
        raise FieldTooSmall(
            f"no primitive {order}-th root of unity in Q(zeta_{self.conductor})"
        )

    def _fold(self, raw: list[int]) -> list[int]:
        """A power-basis numerator list of any length (consumed), reduced
        modulo the cyclotomic polynomial to its phi(N) coordinates."""
        d = self.degree
        if len(raw) <= d:
            return raw + [0] * (d - len(raw))
        head = self._head
        for k in range(len(raw) - 1, d - 1, -1):
            c = raw[k]
            if c:
                base = k - d
                for i, h in head:
                    raw[base + i] += c * h
        return raw[:d]

    def _reduce(self, raw: list[int], den: int) -> CycloRational:
        """The element raw / den, for a power-basis numerator list of any
        length (consumed) and a nonzero denominator."""
        return _canon(self, tuple(self._fold(raw)), den)

    def __repr__(self) -> str:
        return f"CycloField({self.conductor})"


def coeff_term(cs: str, mono: str) -> str:
    """One rendered term: coefficient text ``cs`` times the monomial ``mono``.

    An empty ``mono`` is a constant term.  A compound coefficient (one with
    an inner sign or a space) is parenthesized; 1 and -1 are left implicit.
    """
    compound = "+" in cs[1:] or "-" in cs[1:] or " " in cs
    if not mono:
        return f"({cs})" if compound else cs
    if cs == "1":
        return mono
    if cs == "-1":
        return f"-{mono}"
    return f"({cs})*{mono}" if compound else f"{cs}*{mono}"


def join_terms(parts) -> str:
    """Rendered terms joined by " + " / " - "; "0" when there are none."""
    parts = list(parts)
    if not parts:
        return "0"
    return parts[0] + "".join(
        f" - {p[1:]}" if p.startswith("-") else f" + {p}" for p in parts[1:]
    )


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product of two integer coefficient lists, unreduced."""
    raw = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                if v:
                    raw[i + j] += u * v
    return raw


def _power(base, n: int, one):
    """base ** n for n >= 0 by repeated squaring; ``one`` is base ** 0."""
    out = None
    while n:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if n:
            base = base * base
    return one if out is None else out


def _canon(field: CycloField, num: tuple[int, ...], den: int) -> "CycloRational":
    """The element num / den (den nonzero) in lowest terms with den > 0."""
    g = _gcd(den, *num)
    if den < 0:
        g = -g
    if g != 1:
        num = tuple([u // g for u in num])
        den //= g
    return CycloRational(field, num, den)


class CycloRational:
    """An element of Q(zeta_N): numerators ``num`` over ``den`` in the power
    basis, in lowest terms with ``den > 0``.  Immutable.

    Build elements with :meth:`CycloField.rational` or
    :meth:`CycloField.zeta`; the constructor takes an already canonical
    numerator tuple and denominator.  One field per run: ``+ - * /`` take
    an element of the same field, an ``int`` or a ``Fraction``, and an
    element of another field raises ``ValueError``.  ``==`` and ``hash``
    compare elements of one field by representation; any other operand is
    unequal.
    """

    __slots__ = ("field", "num", "den", "_hash", "_coords")

    def __init__(self, field: CycloField, num: tuple[int, ...], den: int):
        self.field = field
        self.num = num
        self.den = den
        self._hash: int | None = None
        self._coords: tuple[Rat, ...] | None = None

    def _scaled(self, n: int, d: int) -> "CycloRational":
        """self * (n/d) for a rational in lowest terms with d > 0."""
        if not n:
            return self.field.zero
        den = self.den
        g = _gcd(n, den)
        if g != 1:
            n //= g
            den //= g
        num = self.num
        if d != 1:
            g = _gcd(d, *num)
            if g != 1:
                d //= g
                num = [u // g for u in num]
            den *= d
        return CycloRational(self.field, tuple([u * n for u in num]), den)

    # -- predicates --------------------------------------------------------
    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Rat | None:
        return Rat(self.num[0], self.den) if self.is_rational() else None

    @property
    def coords(self) -> tuple[Rat, ...]:
        """The power-basis coordinates as fractions (built once, on demand)."""
        if self._coords is None:
            den = self.den
            self._coords = tuple([Rat(u, den) if u else _ZERO for u in self.num])
        return self._coords

    # -- arithmetic ---------------------------------------------------------
    def _plus(self, other, op):
        """self + other (op = operator.add) or self - other (op = operator.sub)."""
        if type(other) is not CycloRational:
            if isinstance(other, int):
                # gcd(den, num[0] +- other * den, num[1:]) = gcd(den, num) = 1
                return CycloRational(self.field, (op(self.num[0], other * self.den),)
                                     + self.num[1:], self.den)
            if not isinstance(other, Fraction):
                return NotImplemented
            other = self.field.rational(other)
        elif other.field is not self.field:
            raise ValueError(_MIXED)
        da, db = self.den, other.den
        if da == db:
            num = tuple(map(op, self.num, other.num))
            return CycloRational(self.field, num, 1) if da == 1 else _canon(self.field, num, da)
        g = _gcd(da, db)
        ma, mb = db // g, da // g
        num = tuple([op(u * ma, v * mb) for u, v in zip(self.num, other.num)])
        if g == 1:
            # coprime denominators: the result is already in lowest terms
            return CycloRational(self.field, num, da * db)
        return _canon(self.field, num, da * ma)

    def __add__(self, other):
        return self._plus(other, add)

    __radd__ = __add__

    def __neg__(self):
        return CycloRational(self.field, tuple([-u for u in self.num]), self.den)

    def __sub__(self, other):
        return self._plus(other, sub)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if type(other) is not CycloRational:
            if isinstance(other, (int, Fraction)):
                return self._scaled(other.numerator, other.denominator)
            return NotImplemented
        if other.field is not self.field:
            raise ValueError(_MIXED)
        a, b = self.num, other.num
        if not any(b[1:]):
            return self._scaled(b[0], other.den)
        if not any(a[1:]):
            return other._scaled(a[0], self.den)
        return self.field._reduce(_convolve(a, b), self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycloRational":
        if self.is_zero():
            raise DivisionByZero("division by zero field element")
        num = self.num
        if not any(num[1:]):
            n, d = (self.den, num[0]) if num[0] > 0 else (-self.den, -num[0])
            return CycloRational(self.field, (n,) + self.field._zeros, d)
        # (num / den)^-1 = den * adj / norm: adj is the product of the
        # conjugates sigma_k(num), zeta -> zeta^k for the units k != 1 of
        # Z/N, so num * adj is the norm of num, a nonzero rational integer
        field = self.field
        n = field.conductor
        adj = None
        for k in field._units:
            raw = [0] * n
            for i, u in enumerate(num):
                raw[i * k % n] += u
            conj = field._fold(raw)
            adj = conj if adj is None else field._fold(_convolve(adj, conj))
        norm = field._fold(_convolve(num, adj))[0]
        return _canon(field, tuple([u * self.den for u in adj]), norm)

    def __truediv__(self, other):
        if type(other) is CycloRational:
            return self * other.inverse()
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            raise DivisionByZero("division by zero field element")
        n, d = other.numerator, other.denominator
        return self._scaled(d, n) if n > 0 else self._scaled(-d, -n)

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return _power(self.inverse(), -n, self.field.one)
        return _power(self, n, self.field.one)

    # -- comparisons ---------------------------------------------------------
    def __eq__(self, other) -> bool:
        if type(other) is not CycloRational or other.field is not self.field:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def sort_key(self) -> tuple[Rat, ...]:
        return self.coords

    # -- rendering -------------------------------------------------------------
    def __str__(self) -> str:
        return join_terms(
            coeff_term(str(c), "" if i == 0 else "zeta" if i == 1 else f"zeta^{i}")
            for i, c in enumerate(self.coords) if c
        )

    def __repr__(self) -> str:
        return f"<{self} in Q(zeta_{self.field.conductor})>"


# ---------------------------------------------------------------------------
# univariate polynomials over the field
# ---------------------------------------------------------------------------


class UniPoly:
    """Dense univariate polynomial over Q(zeta_N), coefficients ascending."""

    __slots__ = ("field", "coeffs", "var")

    def __init__(self, field: CycloField, coeffs: Iterable[CycloRational | Rat | int], var: str = "z"):
        norm: list[CycloRational] = []
        for c in coeffs:
            if not isinstance(c, CycloRational):
                c = field.rational(c)
            norm.append(c)
        while norm and norm[-1].is_zero():
            norm.pop()
        self.field = field
        self.coeffs = tuple(norm)
        self.var = var

    @classmethod
    def zero(cls, field: CycloField, var: str = "z") -> "UniPoly":
        return cls(field, (), var)

    @classmethod
    def constant(cls, field: CycloField, value, var: str = "z") -> "UniPoly":
        return cls(field, (value,), var)

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def leading(self) -> CycloRational:
        if self.is_zero():
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, k: int) -> CycloRational:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.field.zero

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(self.field, (self[i] + other[i] for i in range(n)), self.var)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(self.field, (self[i] - other[i] for i in range(n)), self.var)

    def __neg__(self) -> "UniPoly":
        return UniPoly(self.field, (-c for c in self.coeffs), self.var)

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, (int, Fraction, CycloRational)):
            return UniPoly(self.field, (c * other for c in self.coeffs), self.var)
        if self.is_zero() or other.is_zero():
            return UniPoly.zero(self.field, self.var)
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return UniPoly(self.field, out, self.var)

    __rmul__ = __mul__

    def __divmod__(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero():
            raise ZeroPolynomial("division by the zero polynomial")
        rem = list(self.coeffs)
        dd = other.degree()
        lead_inv = other.leading().inverse()
        q = [self.field.zero] * max(len(rem) - dd, 0)
        while len(rem) - 1 >= dd:
            c = rem[-1]
            if c.is_zero():
                rem.pop()
                continue
            k = len(rem) - 1 - dd
            factor = c * lead_inv
            q[k] = factor
            for i in range(dd + 1):
                rem[k + i] = rem[k + i] - factor * other.coeffs[i]
            rem.pop()
        return UniPoly(self.field, q, self.var), UniPoly(self.field, rem, self.var)

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[1]

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, n, UniPoly.constant(self.field, 1, self.var))

    def derivative(self) -> "UniPoly":
        return UniPoly(self.field, (c * k for k, c in enumerate(self.coeffs) if k), self.var)

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        inv = self.leading().inverse()
        return self * inv

    def evaluate(self, point: CycloRational) -> CycloRational:
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def compose_scale(self, factor: CycloRational) -> "UniPoly":
        """p(factor * var)."""
        out = []
        power = self.field.one
        for c in self.coeffs:
            out.append(c * power)
            power = power * factor
        return UniPoly(self.field, out, self.var)

    def compose_shift(self, c: CycloRational) -> "UniPoly":
        """p(var + c), by :func:`taylor_shift`."""
        if self.is_zero():
            return self
        row = {i: a for i, a in enumerate(self.coeffs) if not a.is_zero()}
        out = [self.field.zero] * len(self.coeffs)
        for (k, _), b in taylor_shift(self.field, {0: row}, c):
            out[k] = b
        return UniPoly(self.field, out, self.var)

    def coordinate_polys(self) -> list[list[int]]:
        """The integer coordinate polynomials, in the field's power basis, of
        this polynomial times the lcm of its coefficient denominators."""
        den = math.lcm(*(c.den for c in self.coeffs))
        scaled = [[u * (den // c.den) for u in c.num] for c in self.coeffs]
        return [list(col) for col in zip(*scaled)]

    def __str__(self) -> str:
        # the constant term is written bare, even when it is compound
        return join_terms(
            str(self[k]) if k == 0 else
            coeff_term(str(self[k]), self.var if k == 1 else f"{self.var}^{k}")
            for k in range(self.degree(), -1, -1) if not self[k].is_zero()
        )

    def __repr__(self) -> str:
        return f"UniPoly({self})"


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd over the field."""
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()


# the prime of the squarefree certificate; below 2^30, so that a residue is
# one digit of a Python int
_CERTIFICATE_PRIME = 1073741789


def _squarefree_mod_prime(p: UniPoly) -> bool:
    """Whether p has rational coefficients and, cleared of denominators,
    a leading coefficient prime to P = _CERTIFICATE_PRIME and no common
    factor with its derivative modulo P.  True proves p squarefree over Q;
    False proves nothing."""
    P = _CERTIFICATE_PRIME
    coeffs = p.coeffs
    if any(any(c.num[1:]) for c in coeffs):
        return False
    den = math.lcm(*[c.den for c in coeffs])
    a = [c.num[0] * (den // c.den) % P for c in coeffs]
    if not a[-1]:
        return False
    b = [k * u % P for k, u in enumerate(a)][1:]
    # Euclid in GF(P); a keeps a nonzero leading entry
    while True:
        while b and not b[-1]:
            b.pop()
        if not b:
            return len(a) == 1
        inv = pow(b[-1], -1, P)
        db = len(b) - 1
        while len(a) > db:
            f = a.pop() * inv % P
            if f:
                s = len(a) - db
                for i in range(db):
                    a[s + i] = (a[s + i] - f * b[i]) % P
        a, b = b, a


def squarefree_decompose(p: UniPoly) -> list[tuple[UniPoly, int]]:
    """Yun decomposition: pairwise-coprime squarefree factors with multiplicities.

    The product of factor**multiplicity equals ``p`` up to a constant.

    A rational input is first certified squarefree modulo one fixed prime
    P: clear its denominators, and if P does not divide the leading
    coefficient and gcd(p mod P, p' mod P) = 1 in GF(P), the answer is
    [(p.monic(), 1)], as Yun would find.  The certificate is exact: a
    common factor g of p and p' over Q can be taken primitive in Z[x]
    (Gauss), and then lc(g) divides lc(p), so g mod P keeps its degree
    and divides both images.  Every other input (a failed certificate, a
    coefficient outside Q) runs Yun over the field.
    """
    if p.is_zero():
        raise ZeroPolynomial("cannot decompose the zero polynomial")
    if p.degree() == 0:
        return []
    if _squarefree_mod_prime(p):
        return [(p.monic(), 1)]
    d = p.derivative()
    g = poly_gcd(p, d)
    if g.degree() == 0:
        return [(p.monic(), 1)]
    c = p.exact_div(g)
    w = d.exact_div(g) - c.derivative()
    out: list[tuple[UniPoly, int]] = []
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


# -- rational root machinery -------------------------------------------------


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise InternalInconsistency(f"Pollard rho found no factor of the composite {n}")


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    stack = [abs(n)]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out

def _divisors(n: int) -> list[int]:
    fac = _factorize(n)
    out = [1]
    for p, e in fac.items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def _rational_roots(int_coeffs: list[int]) -> list[Rat]:
    """All rational roots of an integer polynomial (ascending coefficients)."""
    while int_coeffs and int_coeffs[-1] == 0:
        int_coeffs.pop()
    if not int_coeffs:
        return []
    roots: list[Rat] = []
    k = 0
    while int_coeffs[k] == 0:
        k += 1
    if k:
        roots.append(Rat(0))
        int_coeffs = int_coeffs[k:]
    if len(int_coeffs) <= 1:
        return roots

    def vanishes(p: int, q: int) -> bool:
        # q^n times the value at p/q, by Horner on the homogenized polynomial
        acc, qk = 0, 1
        for c in reversed(int_coeffs):
            acc = acc * p + c * qk
            qk *= q
        return acc == 0

    for p in _divisors(int_coeffs[0]):
        for q in _divisors(int_coeffs[-1]):
            if math.gcd(p, q) != 1:
                continue
            if vanishes(p, q):
                roots.append(Rat(p, q))
            if vanishes(-p, q):
                roots.append(Rat(-p, q))
    return roots


def _rational_gcd_roots(coord_polys: list[list[int]]) -> list[Rat]:
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


def _rational_root(a: Rat, e: int) -> Rat | None:
    """The rational e-th root of a >= 0, if there is one."""

    def iroot(v: int) -> int | None:
        lo, hi = 0, 1 << ((v.bit_length() + e - 1) // e + 1)
        while lo < hi:
            mid = (lo + hi) // 2
            if mid**e < v:
                lo = mid + 1
            else:
                hi = mid
        return lo if lo**e == v else None

    p, q = iroot(a.numerator), iroot(a.denominator)
    return None if p is None or q is None else Rat(p, q)


def rational_radical(w: Rat, e: int, conductor: int) -> tuple[list[tuple[int, Rat]], int] | None:
    """The solutions t*zeta^j (t rational) of z^e = w in Q(zeta_conductor),
    for a nonzero rational w.

    None when |w| has no rational e-th root r.  Otherwise the pairs (j, t),
    t = +-r, each solution once at its least j, and the conductor that
    holds all e solutions: lcm(conductor, 2e) for w < 0 and e even,
    lcm(conductor, e) otherwise.
    """
    r = _rational_root(abs(w), e)
    if r is None:
        return None
    n = conductor
    sign = 1 if w > 0 else -1
    odd = e % 2
    pairs = []
    # (t zeta^j)^e = w needs zeta^(je) = +-1: je = 0 or n/2 modulo n; for
    # even n, t zeta^j = -t zeta^(j + n/2), so j < n/2 reaches every solution
    for j in range(n // 2 if n % 2 == 0 else n):
        k = j * e % n
        if k and 2 * k != n:
            continue
        unit = 1 if k == 0 else -1
        for s in (1, -1):
            if unit * (s if odd else 1) == sign:
                pairs.append((j, r if s > 0 else -r))
    need = 2 * e if sign < 0 and not odd else e
    return pairs, n * need // math.gcd(n, need)


def radical_conductor(chi: UniPoly, conductor: int, max_power: int) -> int | None:
    """The conductor of ``rational_radical(u, k, conductor)`` for the least
    k <= ``max_power`` with z^k = u modulo chi, u a nonzero rational with a
    rational k-th root; None when there is no such k.

    Every root of chi is then a root of z^k = u, so that conductor holds
    them all.  For k <= deg chi the remainder of z^k is rational only when
    chi is the binomial z^k - u.
    """
    d = chi.degree()
    if d < 1:
        return None
    chi = chi.monic()
    field = chi.field
    rem = [field.one] + [field.zero] * (d - 1)  # z^k mod chi, from k = 0
    for k in range(1, max_power + 1):
        top = rem[-1]
        rem = [field.zero] + rem[:-1]
        if not top.is_zero():
            rem = [a - top * b for a, b in zip(rem, chi.coeffs)]
        u = rem[0].as_rational()
        if u and all(a.is_zero() for a in rem[1:]):
            radical = rational_radical(u, k, conductor)
            if radical is not None:
                return radical[1]
    return None


def _root_key(pair: tuple[int, Rat]):
    """The order of in-field roots t*zeta^j, each at its least j."""
    j, t = pair
    return j, abs(t.numerator), t.denominator, t < 0


def _lacunary_roots(f: UniPoly) -> list[CycloRational] | None:
    """The roots t*zeta^j (t rational) of a monic f = psi(z^e) with e >= 2,
    where psi has rational coefficients, degree at most 2 and only rational
    roots; in the order of :func:`_root_key`.  None for any other f."""
    c = f.coeffs
    d = len(c) - 1
    if c[0].is_zero():
        return None
    e = 0
    for i in range(1, d + 1):
        if not c[i].is_zero():
            e = math.gcd(e, i)
    if e < 2 or d > 2 * e:
        return None
    psi = [c[i].as_rational() for i in range(0, d + 1, e)]
    if any(a is None for a in psi):
        return None
    if len(psi) == 2:
        ws = [-psi[0]]
    else:
        b = psi[1]
        disc = b * b - 4 * psi[0]
        s = _rational_root(disc, 2) if disc >= 0 else None
        if s is None:
            return None
        ws = {(-b + s) / 2, (-b - s) / 2}
    field = f.field
    pairs = []
    for w in ws:
        radical = rational_radical(w, e, field.conductor)
        if radical is not None:
            pairs += radical[0]
    return [field.zeta(j) * t for j, t in sorted(pairs, key=_root_key)]


def _rotation_roots(f: UniPoly, found: list[CycloRational]) -> None:
    """Append to ``found`` the roots t*zeta^j (t rational) of f it lacks:
    the rational roots of f(zeta^j z) for j = 0, 1, ... in turn, in the
    order of :func:`_root_key`, until at most one root of f is missing."""
    field = f.field
    n = field.conductor
    # for even n, the roots of f(-zeta^j z) are those of f(zeta^j z), negated
    for j in range(n // 2 if n % 2 == 0 else n):
        if len(found) >= f.degree() - 1:
            return
        zj = field.zeta(j)
        rotated = f.compose_scale(zj) if j else f
        pairs = [(j, t) for t in _rational_gcd_roots(rotated.coordinate_polys())]
        for _j, t in sorted(pairs, key=_root_key):
            root = zj * t
            if root not in found:
                found.append(root)


def roots_in_field(
    p: UniPoly, extra_candidates: Iterable[CycloRational] = ()
) -> tuple[list[tuple[CycloRational, int]], UniPoly]:
    """Roots of ``p`` that lie in the working field, with multiplicities.

    Returns ``(roots, rest)``: ``rest`` is the monic factor of ``p`` left
    once every located root is divided out with its multiplicity, so that
    ``rest`` times the product of (z - r)^m over ``roots`` is ``p.monic()``.
    Its degree counts the roots (with multiplicity) outside the reach of
    the search: the caller-supplied candidate points (elements of p's
    field), the roots ``t * zeta^j`` with t rational, and a last root once
    all others are known.  Those roots are reported as unresolved rather
    than approximated.

    The roots come in one order.  For each squarefree factor f, in
    :func:`squarefree_decompose` order: the candidate points that are roots
    of f, in candidate order; then the other roots ``t * zeta^j``, each at
    its least j, by (j, |numerator t|, denominator t, t < 0); then, if
    exactly one root of f is left, that root, from the sum of the roots of
    f.  A linear p is solved directly; f = psi(z^e) with psi of degree at
    most 2 splitting over Q has its roots in closed form; any other f is
    searched through its rotations f(zeta^j z).
    """
    if p.is_zero():
        raise ZeroPolynomial("zero polynomial has every point as a root")
    field = p.field
    one = UniPoly(field, (field.one,), p.var)
    if p.degree() == 1:
        return [(-(p[0] / p[1]), 1)], one
    candidates = list(extra_candidates)
    roots: list[tuple[CycloRational, int]] = []
    rest = None
    for f, mult in squarefree_decompose(p):
        d = f.degree()
        found: list[CycloRational] = []
        for cand in candidates:
            if len(found) >= d - 1:
                break
            if cand not in found and f.evaluate(cand).is_zero():
                found.append(cand)
        if len(found) < d - 1:
            lacunary = _lacunary_roots(f)
            if lacunary is None:
                _rotation_roots(f, found)
            else:
                found += [r for r in lacunary if r not in found]
        if len(found) == d - 1:
            found.append(-f[d - 1] - sum(found))  # f is monic
        roots += [(r, mult) for r in found]
        if len(found) < d:
            for r in found:
                f = f.exact_div(UniPoly(field, (-r, field.one), p.var))
            f = f**mult
            rest = f if rest is None else rest * f
    return roots, one if rest is None else rest


# ---------------------------------------------------------------------------
# packed integers (Kronecker substitution)
# ---------------------------------------------------------------------------
#
# A polynomial in (x, y^(1/d), zeta) over one common denominator is packed
# into one Python int: every power of zeta, left unreduced, has a slot of
# ``bits`` bits, each monomial in x and y a cell of Z consecutive slots, Z
# the highest zeta index used plus one.  A slot holds a signed digit, so the
# packed value is the polynomial evaluated at zeta = 2^bits and at powers of
# 2^(bits*Z) for x and y^(1/d), and products and sums of packed values are
# exact.  The digits of a result can be read back when an l1 height bound
# puts every one of them below 2^(bits - 1) in absolute value.


def _slot_bits(bound: int) -> int:
    """Bits per slot for signed digits of absolute value at most ``bound``:
    the magnitude and a sign bit, rounded up to 8, 16, 32 or 64 bits, or to
    a multiple of 64, so that the slots read back as machine words."""
    need = bound.bit_length() + 1
    for bits in (8, 16, 32):
        if need <= bits:
            return bits
    return -(-need // 64) * 64


def _packed(cells, bits: int) -> int:
    """The sum of digits[k] * 2^(pos + k*bits) over the (pos, digits) cells."""
    out = 0
    for pos, digits in cells:
        for u in digits:
            if u:
                out += u << pos
            pos += bits
    return out


# array typecodes of unsigned 1-, 2-, 4- and 8-byte words
_WORD = {array(code).itemsize: code for code in "QLIHB"}


def _cells(packed: int, count: int, bits: int, z: int) -> list[tuple[int, list[int]]]:
    """The nonzero cells of z slots among the lowest ``count`` cells of
    ``packed``, lowest first, as (index, signed digits).

    Every digit is raised by 2^(bits - 1), so that no slot borrows from the
    next, and the slots are read back as machine words.
    """
    nb = bits // 8
    half = 1 << (bits - 1)
    slots = count * z
    bias = int.from_bytes((bytes(nb - 1) + b"\x80") * slots, "little")
    raw = (packed + bias).to_bytes(nb * slots, "little")
    if nb > 8:
        digits = [int.from_bytes(raw[k:k + nb], "little") - half for k in range(0, len(raw), nb)]
    else:
        words = array(_WORD[nb], raw)
        if sys.byteorder == "big":
            words.byteswap()
        digits = [u - half for u in words.tolist()]
    return [(c, digits[c * z:c * z + z])
            for c in dict.fromkeys([k // z for k, u in enumerate(digits) if u])]


def _integer_digits(coeffs: Sequence[CycloRational]) -> tuple[int, list[tuple[int, ...]]]:
    """The coefficients over their least common denominator: that
    denominator, and each numerator's digits without trailing zeros."""
    den = math.lcm(*[c.den for c in coeffs])
    out = []
    for c in coeffs:
        num = c.num
        m = den // c.den
        if not any(num[1:]):
            out.append((num[0] * m,))
            continue
        k = len(num)
        while not num[k - 1]:
            k -= 1
        out.append(tuple([u * m for u in num[:k]]))
    return den, out


class _Integers:
    """A :class:`BiPoly`'s coefficients as integer digits over one common
    denominator ``den``: ``rows`` maps each x-exponent i to its (j, digits)
    terms, ``row_l1`` to the sum of the absolute digits of that row.
    ``zeta`` is the longest digit tuple and ``l1`` the sum of all absolute
    digits; i and j range over [imin, imax] and [jmin, jmax]."""

    __slots__ = ("den", "rows", "row_l1", "zeta", "l1", "imin", "imax", "jmin", "jmax")

    def __init__(self, poly: "BiPoly"):
        self.den, digits = _integer_digits(list(poly.terms.values()))
        rows: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
        row_l1: dict[int, int] = {}
        for (i, j), ds in zip(poly.terms, digits):
            a = sum(map(abs, ds))
            if i in rows:
                rows[i].append((j, ds))
                row_l1[i] += a
            else:
                rows[i] = [(j, ds)]
                row_l1[i] = a
        js = [j for _, j in poly.terms]
        self.rows = rows
        self.row_l1 = row_l1
        self.zeta = max(map(len, digits), default=1)
        self.l1 = sum(row_l1.values())
        self.imin = min(rows, default=0)
        self.imax = max(rows, default=0)
        self.jmin = min(js, default=0)
        self.jmax = max(js, default=0)


def arc_order(F: "BiPoly", arc: Sequence[tuple[int, CycloRational]], d: int) -> int | None:
    """The least exponent n with a nonzero coefficient of t^n in
    F(A(t), t^d), for the Laurent polynomial A(t) = sum of c * t^n over the
    (n, c) of ``arc`` in increasing n; None when F(A(t), t^d) is zero.

    With A = A_int / D over integers and m = deg_x F, the packed value of
    R = sum_i F_i(t^d) A_int^i D^(m-i) comes from Horner in x with one big
    integer product per x-degree.  Every digit of R is at most
    sum_i |F_i|_1 |A_int|_1^i D^(m-i) in absolute value.  Laurent rows of
    F and a negative leading exponent of A are shifted to non-negative
    slots.  The 2-adic valuation of R falls in the cell of its lowest
    nonzero digits; their unreduced zeta digits are folded in the field,
    and a cell that folds to zero is dropped for the next one.
    """
    ints = F._integers()
    rows = ints.rows
    if not rows:
        return None
    field = F.field
    if any(c.field is not field for _, c in arc):
        raise ValueError(_MIXED)
    den, arc_digits = _integer_digits([c for _, c in arc])
    za = max(map(len, arc_digits), default=1)
    m = ints.imax
    z = ints.zeta + m * (za - 1)
    a_l1 = sum(abs(u) for ds in arc_digits for u in ds)
    bound, dp = 0, 1
    for i in range(m, -1, -1):
        bound = bound * a_l1 + ints.row_l1.get(i, 0) * dp
        dp *= den
    bits = _slot_bits(bound)
    w = bits * z
    row_shift = max(-ints.jmin * d, 0)
    arc_shift = max(-arc[0][0], 0) if arc else 0
    packed_arc = _packed((((n + arc_shift) * w, ds) for (n, _), ds in zip(arc, arc_digits)), bits)
    acc, dp = 0, 1
    for i in range(m, -1, -1):
        acc *= packed_arc
        row = rows.get(i)
        if row:
            shift = row_shift + (m - i) * arc_shift
            acc += dp * _packed((((j * d + shift) * w, ds) for j, ds in row), bits)
        dp *= den
    if not acc:
        return None
    # acc is R times t^(row_shift + m * arc_shift); every cell below the one
    # that holds its lowest set bit is zero
    cell = ((acc & -acc).bit_length() - 1) // w
    base = cell - row_shift - m * arc_shift
    if z <= field.degree:  # digits already reduced: a nonzero cell is nonzero
        return base
    acc >>= cell * w
    for k, digits in _cells(acc, (acc.bit_length() // bits + z) // z, bits, z):
        if any(field._fold(digits)):
            return base + k
    return None


def taylor_shift(field: CycloField, rows: dict[int, dict[int, CycloRational]],
                 c: CycloRational) -> list[tuple[tuple[int, int], CycloRational]]:
    """P_e(c + x) for each polynomial P_e = sum of a_i x^i over the (i, a_i)
    of ``rows[e]``: the nonzero coefficients b_k of every row, as
    ((k, e), b_k).

    With n the largest i of a row, b_n = a_n.  For the others, write
    a_i = A_i / D over one common denominator and c = p / Q with Q > 0.
    B(x) = sum_i A_i Q^(n-i) x^i has integer coefficients and
    B(Q x + p) = D Q^n P_e(c + x), so b_k = [x^k] B(x + p) / (D Q^(n-k)).
    B(x + p) is the classical Taylor shift by Horner's rule: n(n+1)/2
    steps, each one multiplication by p and one addition (von zur Gathen
    and Gerhard, ISSAC 1997).  When c and every a_i are rational, an entry
    is one int.  Otherwise an entry packs its zeta digits, left unreduced,
    into the Z slots of one int (zeta = 2^bits, as in :func:`arc_order`),
    so that one product by the packed p serves every slot.  Every digit of
    B(x + p) is at most sum_i |A_i|_1 Q^(n-i) (1 + |p|_1)^i
    <= |A|_1 max(Q, 1 + |p|_1)^n in absolute value.  The entries of all
    rows are read back from one int, and each b_k is folded and put in
    lowest terms once.
    """
    out = []
    shifted = []  # (e, n, row) for the rows of positive degree
    for e, row in rows.items():
        n = max(row)
        out.append(((n, e), row[n]))
        if n:
            shifted.append((e, n, row))
    if not shifted:
        return out
    den, digits = _integer_digits([a for _, _, row in shifted for a in row.values()])
    q, (pd,) = _integer_digits([c])
    top = max(n for _, n, _ in shifted)
    qpow = [1]
    for _ in range(top):
        qpow.append(qpow[-1] * q)
    z = max(map(len, digits)) + top * (len(pd) - 1)
    if z == 1:
        p = pd[0]
        lift = lambda ds: ds[0]
    else:
        l1 = sum(abs(u) for ds in digits for u in ds)
        bits = _slot_bits(l1 * max(q, sum(map(abs, pd)) + 1) ** top)
        p = _packed(((0, pd),), bits)
        lift = lambda ds: _packed(((0, ds),), bits)
    it = iter(digits)
    entries = []  # (e, n, k, [x^k] B(x + p)) for k < n
    for e, n, row in shifted:
        b = [0] * (n + 1)
        for i in row:
            b[i] = lift(next(it)) * qpow[n - i]
        for i in range(n):
            for k in range(n - 1, i - 1, -1):
                b[k] += p * b[k + 1]
        entries += [(e, n, k, v) for k, v in enumerate(b[:-1])]
    if z == 1:
        zeros = field._zeros
        for e, n, k, v in entries:
            if v:
                d = den * qpow[n - k]
                g = _gcd(v, d)
                out.append(((k, e), CycloRational(field, (v // g,) + zeros, d // g)))
        return out
    w = z * bits
    packed = sum(v << (pos * w) for pos, (_, _, _, v) in enumerate(entries))
    for pos, num in _cells(packed, len(entries), bits, z):
        num = field._fold(num)
        if any(num):
            e, n, k, _ = entries[pos]
            out.append(((k, e), _canon(field, tuple(num), den * qpow[n - k])))
    return out


# ---------------------------------------------------------------------------
# bivariate polynomials
# ---------------------------------------------------------------------------


class BiPoly:
    """Sparse bivariate polynomial ``sum c[i,j] x^i y^j`` over the field.

    Y exponents may be negative; x exponents are always non-negative.  No
    zero coefficients are stored.  ``terms`` is never changed after
    construction, so its integer form is built once, on first use by a
    product or an arc order.
    """

    __slots__ = ("field", "terms", "_ints")

    def __init__(
        self,
        field: CycloField,
        terms: dict[tuple[int, int], CycloRational] | None = None,
    ):
        clean: dict[tuple[int, int], CycloRational] = {}
        for (i, j), c in (terms or {}).items():
            if not isinstance(c, CycloRational):
                c = field.rational(c)
            if c.is_zero():
                continue
            if i < 0:
                raise ValueError("negative x exponent")
            clean[(i, j)] = c
        self.field = field
        self.terms = clean
        self._ints: _Integers | None = None

    # -- constructors -----------------------------------------------------
    @classmethod
    def zero(cls, field: CycloField) -> "BiPoly":
        return cls(field, {})

    @classmethod
    def constant(cls, field: CycloField, value) -> "BiPoly":
        return cls(field, {(0, 0): value})

    @classmethod
    def variable(cls, field: CycloField, name: str) -> "BiPoly":
        if name == "x":
            return cls(field, {(1, 0): field.one})
        if name == "y":
            return cls(field, {(0, 1): field.one})
        raise ValueError(name)

    def is_zero(self) -> bool:
        return not self.terms

    # -- ring operations ----------------------------------------------------
    def __add__(self, other: "BiPoly") -> "BiPoly":
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k)
            out[k] = c if s is None else s + c
        return BiPoly(self.field, out)

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k)
            out[k] = -c if s is None else s - c
        return BiPoly(self.field, out)

    def __neg__(self) -> "BiPoly":
        return BiPoly(self.field, {k: -c for k, c in self.terms.items()})

    def _integers(self) -> _Integers:
        if self._ints is None:
            self._ints = _Integers(self)
        return self._ints

    def __mul__(self, other) -> "BiPoly":
        if isinstance(other, (int, Fraction, CycloRational)):
            if not isinstance(other, CycloRational):
                other = self.field.rational(other)
            if other.is_zero():
                return BiPoly.zero(self.field)
            return BiPoly(self.field, {k: c * other for k, c in self.terms.items()})
        a, b = self.terms, other.terms
        if len(b) == 1:
            ((i2, j2), c2), = b.items()
            terms = {(i + i2, j + j2): c * c2 for (i, j), c in a.items()}
        elif len(a) == 1:
            ((i1, j1), c1), = a.items()
            terms = {(i1 + i, j1 + j): c1 * c for (i, j), c in b.items()}
        elif a and b:
            terms = self._packed_product(other)
        else:
            terms = {}
        return BiPoly(self.field, terms)

    def _packed_product(self, other: "BiPoly") -> dict[tuple[int, int], CycloRational]:
        """The terms of self * other from one product of packed integers.

        Cells run over x, then y, then the unreduced zeta slots, wide
        enough for the product; each digit is at most |a|_1 |b|_1.  Each
        nonzero cell is folded and put over the product of the two
        denominators.
        """
        field = self.field
        if other.field is not field:
            raise ValueError(_MIXED)
        fa, fb = self._integers(), other._integers()
        z = fa.zeta + fb.zeta - 1
        ny = fa.jmax - fa.jmin + fb.jmax - fb.jmin + 1
        nx = fa.imax - fa.imin + fb.imax - fb.imin + 1
        bits = _slot_bits(fa.l1 * fb.l1)
        w = bits * z

        def pack(f: _Integers) -> int:
            return _packed(((((i - f.imin) * ny + j - f.jmin) * w, ds)
                            for i, row in f.rows.items() for j, ds in row), bits)

        den = fa.den * fb.den
        i0, j0 = fa.imin + fb.imin, fa.jmin + fb.jmin
        out: dict[tuple[int, int], CycloRational] = {}
        for k, digits in _cells(pack(fa) * pack(fb), nx * ny, bits, z):
            num = field._fold(digits)
            if any(num):
                i, j = divmod(k, ny)
                out[(i0 + i, j0 + j)] = _canon(field, tuple(num), den)
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, n, BiPoly.constant(self.field, 1))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    # -- calculus -------------------------------------------------------------
    def diff_x(self) -> "BiPoly":
        return BiPoly(self.field,
                      {(i - 1, j): c * i for (i, j), c in self.terms.items() if i})

    def diff_y(self) -> "BiPoly":
        return BiPoly(self.field,
                      {(i, j - 1): c * j for (i, j), c in self.terms.items() if j})

    # -- structure ---------------------------------------------------------------
    def x_degree(self) -> int:
        return max((i for (i, _) in self.terms), default=-1)

    def y_content(self) -> int:
        """Largest E with y^E dividing the polynomial (min j over terms)."""
        if self.is_zero():
            raise ZeroPolynomial("zero polynomial has no y-content")
        return min(j for (_, j) in self.terms)

    def shift_y(self, e: int) -> "BiPoly":
        """Multiply by y^e (e may be negative)."""
        return BiPoly(self.field, {(i, j + e): c for (i, j), c in self.terms.items()})

    def x_order_at_origin(self) -> int:
        """Order in x of p(x, 0); requires some term with y-exponent 0."""
        pure = [i for (i, j) in self.terms if j == 0]
        if not pure:
            raise ValueError("polynomial vanishes identically on y = 0")
        return min(pure)

    def at_y(self, y0: int | Rat) -> UniPoly:
        """F(x, y0) as a polynomial in x, for a rational y0 (nonzero when a
        y-exponent is negative)."""
        cols: dict[int, CycloRational] = {}
        for (i, j), c in self.terms.items():
            v = c * (y0**j if j >= 0 else Rat(y0) ** j)
            cols[i] = v + cols[i] if i in cols else v
        zero = self.field.zero
        n = max(cols, default=-1)
        return UniPoly(self.field, [cols.get(k, zero) for k in range(n + 1)], "x")

    @classmethod
    def from_x_coefficients(cls, field: CycloField, cols: Sequence[UniPoly]) -> "BiPoly":
        terms: dict[tuple[int, int], CycloRational] = {}
        for i, poly in enumerate(cols):
            for j, c in enumerate(poly.coeffs):
                if not c.is_zero():
                    terms[(i, j)] = c
        return cls(field, terms)

    def substitute_shear(self, c: CycloRational) -> "BiPoly":
        """Substitute y -> y + c*x (generic-coordinates shear)."""
        if any(j < 0 for (_, j) in self.terms):
            raise ValueError("cannot shear a Laurent polynomial")
        x = BiPoly.variable(self.field, "x")
        y = BiPoly.variable(self.field, "y")
        ycx = y + x * c
        out = BiPoly.zero(self.field)
        powers: dict[int, BiPoly] = {0: BiPoly.constant(self.field, 1)}

        def ypow(j: int) -> BiPoly:
            if j not in powers:
                powers[j] = ypow(j - 1) * ycx
            return powers[j]

        for (i, j), coef in self.terms.items():
            term = ypow(j) * coef
            if i:
                term = term * BiPoly(self.field, {(i, 0): self.field.one})
            out = out + term
        return out

    def substitute_x_scale(self, s: int) -> "BiPoly":
        """Substitute x -> x * y^(-s); the result may be Laurent."""
        return BiPoly(self.field, {(i, j - i * s): c for (i, j), c in self.terms.items()})

    # -- rendering ---------------------------------------------------------------
    def sorted_terms(self) -> list[tuple[tuple[int, int], CycloRational]]:
        return sorted(self.terms.items(), key=lambda t: (-t[0][0], t[0][1]))

    def __str__(self) -> str:
        parts = []
        for (i, j), c in self.sorted_terms():
            mono = []
            if i:
                mono.append("x" if i == 1 else f"x^{i}")
            if j:
                mono.append("y" if j == 1 else (f"y^{j}" if j > 0 else f"y^({j})"))
            parts.append(coeff_term(str(c), "*".join(mono)))
        return join_terms(parts)

    def __repr__(self) -> str:
        return f"BiPoly({self})"
