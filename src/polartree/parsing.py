"""Expression parser for exact bivariate polynomials.

Grammar: integers, rationals a/b, the variables x and y, the symbol zeta
(a primitive root of unity of the session field's order), +, -, *, ^ and
parentheses.  Exponents are integer literals; negative exponents are only
legal on y, and only when the caller asks for Laurent input, as the
``reduce`` command does.  Multiplication is always explicit.

Every product and power is checked before it is expanded: no intermediate
result, and so no parsed germ, may have x-degree or |y-exponent| above
``MAX_GERM_DEGREE``.  The worked examples and the benchmark inputs reach at
most x-degree 8 and y-degree 34; the cap keeps a short input such as
``(x+y)^100000`` from asking for an expansion that would not finish, and
ends it with a limitation (exit 3) instead.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ExprSyntaxError, LimitationError, NegativeExponentWithoutLaurent
from .exactalg import BiPoly, CycloField

MAX_GERM_DEGREE = 256

# the largest degree phi(N) of a working field Q(zeta_N).  Every fixture and
# benchmark pair works in degree 8 or less; at degree 64 (N = 240) one field
# inverse takes about 20 ms, and it grows about as phi(N)^3.
MAX_FIELD_DEGREE = 64


def _degrees(p: BiPoly) -> tuple[int, int]:
    """(x-degree, largest |y-exponent|) of a polynomial; (0, 0) for zero."""
    return (max((i for i, _ in p.terms), default=0),
            max((abs(j) for _, j in p.terms), default=0))


def _check_degrees(x_deg: int, y_deg: int, tok) -> None:
    for name, deg in (("x-degree", x_deg), ("y-degree", y_deg)):
        if deg > MAX_GERM_DEGREE:
            raise LimitationError(
                f"{tok[2]}:{tok[3]}: {name} {deg} exceeds the germ degree cap "
                f"{MAX_GERM_DEGREE}")


class _Tokens:
    def __init__(self, text: str):
        self.items: list[tuple[str, str, int, int]] = []
        line, col = 1, 1
        i = 0
        while i < len(text):
            ch = text[i]
            if ch == "\n":
                line += 1
                col = 1
                i += 1
                continue
            if ch.isspace():
                col += 1
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.items.append(("int", text[i:j], line, col))
                col += j - i
                i = j
                continue
            if ch.isalpha():
                j = i
                while j < len(text) and text[j].isalpha():
                    j += 1
                word = text[i:j]
                if word not in ("x", "y", "zeta"):
                    raise ExprSyntaxError(f"unknown symbol {word!r}", line, col)
                self.items.append(("sym", word, line, col))
                col += j - i
                i = j
                continue
            if ch in "+-*/^()":
                self.items.append((ch, ch, line, col))
                col += 1
                i += 1
                continue
            raise ExprSyntaxError(f"unexpected character {ch!r}", line, col)
        self.items.append(("end", "", line, col))
        self.pos = 0

    def peek(self) -> tuple[str, str, int, int]:
        return self.items[self.pos]

    def take(self, kind: str | None = None):
        tok = self.items[self.pos]
        if kind is not None and tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind}, found {tok[1]!r}", tok[2], tok[3])
        self.pos += 1
        return tok


class _Parser:
    def __init__(self, text: str, field: CycloField, laurent: bool):
        self.toks = _Tokens(text)
        self.field = field
        self.laurent = laurent

    def parse(self) -> BiPoly:
        out = self.expr()
        tok = self.toks.peek()
        if tok[0] != "end":
            raise ExprSyntaxError(f"trailing input {tok[1]!r}", tok[2], tok[3])
        return out

    def expr(self) -> BiPoly:
        if self.toks.peek()[0] in ("+", "-"):
            sign = self.toks.take()[0]
            acc = self.term()
            if sign == "-":
                acc = -acc
        else:
            acc = self.term()
        while self.toks.peek()[0] in ("+", "-"):
            op = self.toks.take()[0]
            rhs = self.term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def term(self) -> BiPoly:
        acc = self.power()
        while self.toks.peek()[0] == "*":
            tok = self.toks.take()
            rhs = self.power()
            (ax, ay), (bx, by) = _degrees(acc), _degrees(rhs)
            _check_degrees(ax + bx, ay + by, tok)
            acc = acc * rhs
        return acc

    def power(self) -> BiPoly:
        base_tok = self.toks.peek()
        base = self.atom()
        if self.toks.peek()[0] != "^":
            return base
        self.toks.take()
        neg = False
        tok = self.toks.peek()
        if tok[0] == "(":
            self.toks.take()
            if self.toks.peek()[0] == "-":
                self.toks.take()
                neg = True
            etok = self.toks.take("int")
            self.toks.take(")")
        else:
            if tok[0] == "-":
                self.toks.take()
                neg = True
            etok = self.toks.take("int")
        e = int(etok[1])
        if not neg:
            bx, by = _degrees(base)
            _check_degrees(e * bx, e * by, etok)
            return base**e
        # negative exponents: only the bare variable y, only on Laurent input
        if base.terms != {(0, 1): self.field.one}:
            raise ExprSyntaxError(
                "negative exponents are only allowed on y", etok[2], etok[3]
            )
        if not self.laurent:
            raise NegativeExponentWithoutLaurent(
                f"{etok[2]}:{etok[3]}: y^-{e} is Laurent input, which only the "
                f"reduce command accepts"
            )
        _check_degrees(0, e, etok)
        return BiPoly(self.field, {(0, -e): self.field.one})

    def atom(self) -> BiPoly:
        tok = self.toks.take()
        kind, val, line, col = tok
        if kind == "int":
            num = int(val)
            if self.toks.peek()[0] == "/":
                self.toks.take()
                den_tok = self.toks.take("int")
                den = int(den_tok[1])
                if den == 0:
                    raise ExprSyntaxError("zero denominator", den_tok[2], den_tok[3])
                return BiPoly.constant(self.field, Fraction(num, den))
            return BiPoly.constant(self.field, num)
        if kind == "sym":
            if val == "zeta":
                return BiPoly.constant(self.field, self.field.zeta())
            return BiPoly.variable(self.field, val)
        if kind == "(":
            inner = self.expr()
            self.toks.take(")")
            return inner
        raise ExprSyntaxError(f"unexpected {val!r}", line, col)


def parse_expression(text: str, field: CycloField, laurent: bool = False) -> BiPoly:
    """Parse an expression into an exact bivariate polynomial; negative
    exponents on y are refused unless ``laurent`` is set."""
    return _Parser(text, field, laurent).parse()


def expression_mentions_zeta(text: str) -> bool:
    return "zeta" in text
