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
from functools import lru_cache, reduce
from itertools import zip_longest
from operator import add, sub, truediv
from typing import Iterable, Sequence

from .errors import (
    DivisionByZero,
    FieldTooSmall,
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


def unity_conductor(n: int, d: int) -> int:
    """The least multiple M of n for which Q(zeta_M) holds the d-th roots
    of unity, that is for which d divides lcm(2, M): an odd M gives the
    same field as 2M."""
    return math.lcm(n, d // 2 if d % 4 == 2 else d)


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
        n = self.conductor
        if order < 1 or unity_conductor(n, order) != n:
            raise FieldTooSmall(f"no primitive {order}-th root of unity in Q(zeta_{n})")
        if n % order == 0:
            return self.zeta(n // order)
        doubled = -self.zeta((n + 1) // 2)  # a primitive 2N-th root, N odd
        return doubled ** (2 * n // order)

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
        num = self.num
        if not any(num[1:]):
            # num / den is in lowest terms with den > 0, as Fraction prints it
            return str(num[0]) if self.den == 1 else f"{num[0]}/{self.den}"
        return join_terms(
            coeff_term(str(c), "" if i == 0 else "zeta" if i == 1 else f"zeta^{i}")
            for i, c in enumerate(self.coords) if c
        )


# ---------------------------------------------------------------------------
# univariate polynomials over the field
# ---------------------------------------------------------------------------


class UniPoly:
    """Dense univariate polynomial over Q(zeta_N), coefficients ascending,
    printed in the variable z."""

    __slots__ = ("field", "coeffs", "_digits")

    def __init__(self, field: CycloField, coeffs: Iterable[CycloRational | Rat | int]):
        norm: list[CycloRational] = []
        for c in coeffs:
            if not isinstance(c, CycloRational):
                c = field.rational(c)
            norm.append(c)
        while norm and norm[-1].is_zero():
            norm.pop()
        self.field = field
        self.coeffs = tuple(norm)
        self._digits: list[tuple[int, ...]] | None = None

    @classmethod
    def zero(cls, field: CycloField) -> "UniPoly":
        return cls(field, ())

    @classmethod
    def constant(cls, field: CycloField, value) -> "UniPoly":
        return cls(field, (value,))

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
        return UniPoly(self.field, (self[i] + other[i] for i in range(n)))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(self.field, (self[i] - other[i] for i in range(n)))

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, (int, Fraction, CycloRational)):
            return UniPoly(self.field, (c * other for c in self.coeffs))
        if self.is_zero() or other.is_zero():
            return UniPoly.zero(self.field)
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return UniPoly(self.field, out)

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
        return UniPoly(self.field, q), UniPoly(self.field, rem)

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
        return _power(self, n, UniPoly.constant(self.field, 1))

    def derivative(self) -> "UniPoly":
        return UniPoly(self.field, (c * k for k, c in enumerate(self.coeffs) if k))

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        inv = self.leading().inverse()
        return self * inv

    def vanishes_at(self, point: CycloRational) -> bool:
        """Whether this polynomial is zero at ``point``: Horner in exact
        integers (:func:`_horner_digits`) over the coefficients' common
        denominator, their digits built once per polynomial, and the point's
        numerator digits and denominator; no field element is built."""
        if point.field is not self.field:
            raise ValueError(_MIXED)
        if not self.coeffs:
            return True
        if self._digits is None:
            self._digits = _integer_digits(self.coeffs)[1]
        den, (num,) = _integer_digits([point])
        return not any(_horner_digits(self.field, self._digits, num, den))

    def compose_scale(self, factor: CycloRational) -> "UniPoly":
        """p(factor * z)."""
        out = []
        power = self.field.one
        for c in self.coeffs:
            out.append(c * power)
            power = power * factor
        return UniPoly(self.field, out)

    def compose_shift(self, c: CycloRational) -> "UniPoly":
        """p(z + c), by :func:`taylor_shift`."""
        if self.is_zero():
            return self
        row = {i: a for i, a in enumerate(self.coeffs) if not a.is_zero()}
        out = [self.field.zero] * len(self.coeffs)
        for (k, _), b in taylor_shift(self.field, {0: row}, c):
            out[k] = b
        return UniPoly(self.field, out)

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
            coeff_term(str(self[k]), "z" if k == 1 else f"z^{k}")
            for k in range(self.degree(), -1, -1) if not self[k].is_zero()
        )


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
    is squarefree modulo P = _CERTIFICATE_PRIME (:func:`_squarefree_mod`).
    True proves p squarefree over Q; False proves nothing."""
    coeffs = p.coeffs
    if any(any(c.num[1:]) for c in coeffs):
        return False
    den = math.lcm(*[c.den for c in coeffs])
    return _squarefree_mod([c.num[0] * (den // c.den) for c in coeffs], _CERTIFICATE_PRIME)


def _images_mod_prime(G: "BiPoly", n: int, points: int):
    """(y0, lead, :func:`_yun_mod` of the image) for each y0 in 1..points
    where G(x, y0) modulo P = _CERTIFICATE_PRIME keeps x-degree n, from G's
    integer form (y-content 0); none when a coefficient is outside Q."""
    ints = G._integers()
    if ints.zeta > 1:
        return
    P = _CERTIFICATE_PRIME
    terms = [(i, j, ds[0] % P) for i, row in ints.rows.items() for j, ds in row]
    for y0 in range(1, points + 1):
        powers = [1]
        for _ in range(ints.jmax):
            powers.append(powers[-1] * y0 % P)
        image = [0] * (n + 1)
        for i, j, u in terms:
            image[i] += u * powers[j]
        image = [u % P for u in image]
        if image[n]:
            yield y0, image[n], _yun_mod(image, P)


# polynomials in GF(P)[x] are lists of residues, ascending; "trimmed" ones
# end in a nonzero entry, and the zero polynomial is []
def _trimmed(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _divide_mod(a: list[int], b: list[int], P: int) -> list[int]:
    """The quotient of a by a trimmed nonzero b; a is left holding the
    trimmed remainder."""
    inv, db = pow(b[-1], -1, P), len(b) - 1
    q = [0] * max(len(a) - db, 0)
    for s in range(len(q) - 1, -1, -1):
        f = q[s] = a.pop() * inv % P
        if f:
            for i in range(db):
                a[s + i] = (a[s + i] - f * b[i]) % P
    _trimmed(a)
    return q


def _gcd_mod(a: list[int], b: list[int], P: int) -> list[int]:
    """The monic gcd of trimmed a and b, a nonzero: Euclid in GF(P)."""
    a, b = list(a), list(b)
    while b:
        _divide_mod(a, b, P)
        a, b = b, a
    inv = pow(a[-1], -1, P)
    return [u * inv % P for u in a]


def _squarefree_mod(coeffs: Sequence[int], P: int) -> bool:
    """Whether the integer polynomial with ascending ``coeffs`` keeps its degree
    modulo the prime P and is coprime to its derivative in GF(P)."""
    a = [c % P for c in coeffs]
    d = _trimmed([k * u % P for k, u in enumerate(a)][1:])
    return bool(a[-1]) and len(_gcd_mod(a, d, P)) == 1


def _yun_mod(a: list[int], P: int) -> list[tuple[list[int], int]]:
    """Yun's decomposition in GF(P)[x] of a trimmed a of degree 1 to P - 1:
    monic, pairwise coprime, squarefree factors with multiplicities."""
    d = _trimmed([k * u % P for k, u in enumerate(a)][1:])
    g = _gcd_mod(a, d, P)
    if len(g) == 1:
        return [(_gcd_mod(a, [], P), 1)]
    c, w = _divide_mod(list(a), g, P), _divide_mod(d, g, P)
    fs = []
    while len(c) > 1:
        dc = [k * u for k, u in enumerate(c)][1:]
        w = _trimmed([(u - v) % P for u, v in zip_longest(w, dc, fillvalue=0)])
        fs.append(_gcd_mod(c, w, P))
        c, w = _divide_mod(c, fs[-1], P), _divide_mod(w, fs[-1], P)
    return [(f, i) for i, f in enumerate(fs, 1) if len(f) > 1]


def _rational_mod(u: int, P: int) -> Rat | None:
    """The a/b = u modulo P with |a|, b <= sqrt(P/2), or None if there is none:
    Wang's rational reconstruction, Euclid on P and u to a remainder that small."""
    bound = math.isqrt(P // 2)
    r0, r1, t0, t1 = P, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return Rat(r1, t1) if abs(t1) <= bound and math.gcd(r1, t1) == 1 else None


def _interpolate(ys: list[int], values: list, div=truediv) -> list:
    """The coefficients of the polynomial of degree below len(ys) that takes
    values[k] at ys[k]: Newton's divided differences, div(u, d) being u / d."""
    c = list(values)
    for j in range(1, len(ys)):
        for k in range(len(ys) - 1, j - 1, -1):
            c[k] = div(c[k] - c[k - 1], ys[k] - ys[k - j])
    p = [c[-1]]
    for k in range(len(ys) - 2, -1, -1):  # p = p * (y - ys[k]) + c[k]
        p = [c[k] - p[0] * ys[k]] + [a - b * ys[k] for a, b in zip(p, p[1:])] + [p[-1]]
    return p


def _lift_mod_prime(ys: list[int], values: list[list[int]]) -> list[list[Rat]] | None:
    """A component's x-coefficients, interpolated from their values mod P at ys,
    made primitive in GF(P)[y], scaled so that the lowest y-term of the last
    is 1 and lifted to Q by :func:`_rational_mod`; None if one does not lift."""
    P = _CERTIFICATE_PRIME
    inv = [0] + [pow(d, -1, P) for d in range(1, ys[-1] - ys[0] + 1)]
    cols = [_trimmed([u % P for u in _interpolate(ys, v, lambda u, d: u * inv[d] % P)])
            for v in values]
    content = reduce(lambda c, col: _gcd_mod(c, col, P), cols, cols[-1])
    cols = [_divide_mod(col, content, P) for col in cols]
    unit = pow(next(u for u in cols[-1] if u), -1, P)
    cols = [[_rational_mod(u * unit % P, P) for u in col] for col in cols]
    return None if any(None in col for col in cols) else cols


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


# -- rational roots ------------------------------------------------------------


def _primes():
    """2, 3, 5, 7, ... in turn."""
    found: list[int] = []
    n = 1
    while True:
        n += 1
        if all(n % p for p in found):
            found.append(n)
            yield n


def _rational_roots(int_coeffs: list[int]) -> list[Rat]:
    """All rational roots of an integer polynomial (ascending coefficients),
    each once, by (|numerator|, denominator, positive before negative).

    The root 0 is taken out first.  The rest g, of degree n and leading
    coefficient l, is rescaled to the monic h(y) = l^(n-1) g(y/l), whose
    roots are y = l*a/b for the roots a/b of g: integers with
    |y| <= |l g(0)|, since a divides g(0) and b divides l.  Modulo the least prime p for which h
    is squarefree, every root of h is simple and lifts by Newton's
    iteration to its unique root modulo p^k > 2|l g(0)|; the symmetric
    residues that are exact roots of h are its integer roots (Loos's
    p-adic rational-zero method, SIAM J. Comput. 12, 1983).  Lifting needs
    simple roots, so a g that the certificate modulo ``_CERTIFICATE_PRIME``
    does not prove squarefree is first divided by gcd(g, g') over Q.
    """
    g = list(int_coeffs)
    while g and g[-1] == 0:
        g.pop()
    if not g:
        return []
    k = 0
    while g[k] == 0:
        k += 1
    roots = [Rat(0)] if k else []
    g = g[k:]
    if len(g) <= 1:
        return roots
    if not _squarefree_mod(g, _CERTIFICATE_PRIME):
        G = UniPoly(CycloField(1), g)
        G = G.exact_div(poly_gcd(G, G.derivative()))
        den = math.lcm(*(c.den for c in G.coeffs))
        g = [c.num[0] * (den // c.den) for c in G.coeffs]
    n, lead = len(g) - 1, g[-1]
    h = [c * lead ** (n - 1 - i) for i, c in enumerate(g[:-1])] + [1]
    dh = [i * c for i, c in enumerate(h)][1:]
    bound = 2 * abs(lead * g[0])

    def value(poly: list[int], y: int, m: int) -> int:
        acc = 0
        for c in reversed(poly):
            acc = (acc * y + c) % m
        return acc

    p = next(p for p in _primes() if _squarefree_mod(h, p))
    for r in range(p):
        if value(h, r, p):
            continue
        y, m = r, p
        while m <= bound:
            m *= m
            y = (y - value(h, y, m) * pow(value(dh, y, m), -1, m)) % m
        if 2 * y > m:
            y -= m
        if not sum(c * y**i for i, c in enumerate(h)):
            roots.append(Rat(y, lead))
    return sorted(roots, key=lambda r: (abs(r.numerator), r.denominator, r < 0))


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
    holds all e solutions: :func:`unity_conductor` of the 2e-th roots of
    unity for w < 0 and e even, of the e-th roots otherwise.
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
    return pairs, unity_conductor(n, need)


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
        # a rational root of f(zeta^j z) is a rational root of each of its
        # coordinate polynomials, so of the first nonzero one
        first = next(p for p in rotated.coordinate_polys() if any(p))
        for t in _rational_roots(first):
            root = zj * t
            if root not in found and rotated.vanishes_at(field.rational(t)):
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
    one = UniPoly(field, (field.one,))
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
            if cand not in found and f.vanishes_at(cand):
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
                f = f.exact_div(UniPoly(field, (-r, field.one)))
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
    """A polynomial's coefficients as integer digits over one common
    denominator ``den``: ``rows`` maps each x-exponent i to its (j, digits)
    terms, ``row_l1`` to the sum of the absolute digits of that row.
    ``zeta`` is the longest digit tuple and ``l1`` the sum of all absolute
    digits; i and j range over [imin, imax] and [jmin, jmax].  ``packed``
    keeps, for each layout (bits, z, d) of :func:`arc_order`, every row
    packed in that layout, so that each layout is built once."""

    __slots__ = ("den", "rows", "row_l1", "zeta", "l1", "imin", "imax", "jmin", "jmax",
                 "packed")

    def __init__(self, den: int, rows: dict[int, list[tuple[int, tuple[int, ...]]]]):
        self.den = den
        self.rows = rows
        self.row_l1 = row_l1 = {i: sum([abs(u) for _, ds in row for u in ds])
                                for i, row in rows.items()}
        self.zeta = max([len(ds) for row in rows.values() for _, ds in row], default=1)
        self.l1 = sum(row_l1.values())
        js = [j for row in rows.values() for j, _ in row]
        self.imin = min(rows, default=0)
        self.imax = max(rows, default=0)
        self.jmin = min(js, default=0)
        self.jmax = max(js, default=0)
        self.packed: dict[tuple[int, int, int], dict[int, int]] = {}

    @classmethod
    def of(cls, poly: "BiPoly") -> "_Integers":
        den, digits = _integer_digits(list(poly.terms.values()))
        rows: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
        for (i, j), ds in zip(poly.terms, digits):
            if i in rows:
                rows[i].append((j, ds))
            else:
                rows[i] = [(j, ds)]
        return cls(den, rows)

    def diff_x(self) -> "_Integers":
        """The integer form of the x-derivative: each digit times its
        x-exponent, over the same denominator."""
        return _Integers(self.den, {i - 1: [(j, tuple([u * i for u in ds])) for j, ds in row]
                                    for i, row in self.rows.items() if i})

    def diff_y(self) -> "_Integers":
        """The integer form of the y-derivative, as :meth:`diff_x`."""
        rows = {}
        for i, row in self.rows.items():
            row = [(j - 1, tuple([u * j for u in ds])) for j, ds in row if j]
            if row:
                rows[i] = row
        return _Integers(self.den, rows)


def _packed_sum(field: CycloField, products) -> dict[tuple[int, int], CycloRational]:
    """The terms of the sum of s * A * B over the (s, A, B) of
    ``products`` (integer forms of nonzero polynomials), from one packed
    integer.

    Every product shares one layout: cells run over x, then y, then the
    unreduced zeta slots, wide enough for every product.  Over the lcm L
    of the products' denominators, product k is scaled by
    c_k = s_k L / (den A_k den B_k), so each digit is at most the sum of
    |c_k| |A_k|_1 |B_k|_1.  A is packed from its own least exponents and B
    from the sum's least exponents less A's, so every product lands in
    place.  The sum is read back once; each nonzero cell is folded and put
    over L.
    """
    den = math.lcm(*[a.den * b.den for _, a, b in products])
    scaled = [(s * (den // (a.den * b.den)), a, b) for s, a, b in products]
    z = max(a.zeta + b.zeta - 1 for _, a, b in products)
    i0 = min(a.imin + b.imin for _, a, b in products)
    j0 = min(a.jmin + b.jmin for _, a, b in products)
    ny = max(a.jmax + b.jmax for _, a, b in products) - j0 + 1
    nx = max(a.imax + b.imax for _, a, b in products) - i0 + 1
    bits = _slot_bits(sum(abs(c) * a.l1 * b.l1 for c, a, b in scaled))
    w = bits * z

    def pack(f: _Integers, io: int, jo: int) -> int:
        return _packed(((((i - io) * ny + j - jo) * w, ds)
                        for i, row in f.rows.items() for j, ds in row), bits)

    total = 0
    for c, a, b in scaled:
        total += c * pack(a, a.imin, a.jmin) * pack(b, i0 - a.imin, j0 - a.jmin)
    out: dict[tuple[int, int], CycloRational] = {}
    for k, digits in _cells(total, nx * ny, bits, z):
        num = field._fold(digits)
        if any(num):
            i, j = divmod(k, ny)
            out[(i0 + i, j0 + j)] = _canon(field, tuple(num), den)
    return out


def _horner_digits(field: CycloField, coeffs, point: Sequence[int], scale: int) -> list[int]:
    """The power-basis digits of sum_i coeffs[i] point^i scale^(m-i),
    m = len(coeffs) - 1, for integer digit vectors ``coeffs`` (None for a
    zero coefficient; the last one not None) and ``point``: Horner in exact
    integers, each product folded modulo the cyclotomic polynomial.  For
    a polynomial with coefficients a_i / D at the point p / scale, the
    value times D scale^m; a rational point is a length-one vector, and
    then every product is a scalar one."""
    acc: list[int] = []
    sp = 1
    scalar = point[0] if len(point) == 1 else None
    for c in reversed(coeffs):
        if acc:
            if scalar is None:
                acc = field._fold(_convolve(acc, point))
            else:
                acc = [u * scalar for u in acc]
        if c is not None:
            if len(c) > len(acc):
                acc += [0] * (len(c) - len(acc))
            for k, u in enumerate(c):
                acc[k] += u * sp
        sp *= scale
    return acc


def vanishes_at_two(F: "BiPoly", arc: Sequence[tuple[int, CycloRational]], d: int) -> bool:
    """Whether F(A(2), 2^d) = 0, for the Laurent polynomial A(t) of
    :func:`arc_order`: the value of F(A(t), t^d) at t = 2, so that False
    proves F(A(t), t^d) nonzero.

    Exact integer work on F's integer rows: each row at y = 2^d, times
    2^r for Laurent rows, is a sum of shifted digits; A(2) is X / (D 2^s)
    over the arc's common denominator D, with s the negated least negative
    exponent; and Horner in x (:func:`_horner_digits`) runs on the digit
    vectors with scale D 2^s.
    """
    ints = F._integers()
    if not ints.rows:
        return True
    field = F.field
    if any(c.field is not field for _, c in arc):
        raise ValueError(_MIXED)
    shift = max(-ints.jmin * d, 0)
    coeffs: list[list[int] | None] = [None] * (ints.imax + 1)
    for i, row in ints.rows.items():
        r = [0] * max([len(ds) for _, ds in row])
        for j, ds in row:
            e = j * d + shift
            for k, u in enumerate(ds):
                r[k] += u << e
        coeffs[i] = r
    den, arc_digits = _integer_digits([c for _, c in arc])
    s = max(-arc[0][0], 0) if arc else 0
    x = [0] * max(map(len, arc_digits), default=1)
    for (n, _), ds in zip(arc, arc_digits):
        for k, u in enumerate(ds):
            x[k] += u << (n + s)
    return not any(_horner_digits(field, coeffs, x, den << s))


def arc_order(F: "BiPoly", arc: Sequence[tuple[int, CycloRational]], d: int) -> int | None:
    """The least exponent n with a nonzero coefficient of t^n in
    F(A(t), t^d), for the Laurent polynomial A(t) = sum of c * t^n over the
    (n, c) of ``arc`` in increasing n; None when F(A(t), t^d) is zero.

    With A = A_int / D over integers and m = deg_x F, the packed value of
    R = sum_i F_i(t^d) A_int^i D^(m-i) comes from Horner in x with one big
    integer product per x-degree.  Every digit of R is at most
    sum_i |F_i|_1 |A_int|_1^i D^(m-i) in absolute value.  Laurent rows of
    F and a negative leading exponent of A are shifted to non-negative
    slots.  F's rows are packed once per layout (bits, z, d) and kept on
    its integer form, and each Horner step shifts the kept row by the
    arc's shift instead of packing it again.  The 2-adic valuation of R
    falls in the cell of its lowest nonzero digits; their unreduced zeta
    digits are folded in the field, and a cell that folds to zero is
    dropped for the next one.
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
    layout = (bits, z, d)
    packed_rows = ints.packed.get(layout)
    if packed_rows is None:
        packed_rows = ints.packed[layout] = {
            i: _packed((((j * d + row_shift) * w, ds) for j, ds in row), bits)
            for i, row in rows.items()
        }
    step = arc_shift * w
    acc, dp = 0, 1
    for i in range(m, -1, -1):
        acc *= packed_arc
        row = packed_rows.get(i)
        if row is not None:
            acc += dp * (row << (m - i) * step)
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

    def over(self, field: CycloField) -> "BiPoly":
        """This polynomial over ``field``; only one over Q changes field."""
        if field is self.field:
            return self
        if not all(c.is_rational() for c in self.terms.values()):
            raise ValueError(f"{self} has a coefficient that is not rational")
        return BiPoly(field, {k: field.rational(c.as_rational()) for k, c in self.terms.items()})

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
            self._ints = _Integers.of(self)
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
            if other.field is not self.field:
                raise ValueError(_MIXED)
            terms = _packed_sum(self.field, [(1, self._integers(), other._integers())])
        else:
            terms = {}
        return BiPoly(self.field, terms)

    def jacobian(self, other: "BiPoly") -> "BiPoly":
        """The Jacobian determinant self_y other_x - self_x other_y, as one
        packed sum of its two products (:func:`_packed_sum`).  The
        derivatives' digits come from the two integer forms, each digit
        times its exponent; no derivative polynomial is built."""
        if other.field is not self.field:
            raise ValueError(_MIXED)
        a, b = self._integers(), other._integers()
        products = [(s, p, q) for s, p, q in ((1, a.diff_y(), b.diff_x()),
                                              (-1, a.diff_x(), b.diff_y()))
                    if p.rows and q.rows]
        return BiPoly(self.field, _packed_sum(self.field, products) if products else {})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, n, BiPoly.constant(self.field, 1))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.terms == other.terms

    # -- calculus -------------------------------------------------------------
    def diff_x(self) -> "BiPoly":
        return BiPoly(self.field,
                      {(i - 1, j): c * i for (i, j), c in self.terms.items() if i})

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
        return UniPoly(self.field, [cols.get(k, zero) for k in range(n + 1)])

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
