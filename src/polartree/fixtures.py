"""The worked-example corpus shipped with the package.

Each fixture names an exact input pair (as expression text, so the session
field can be chosen freely) together with the flags it needs.  The pairs at
degenerate parameters are kept alongside their well-behaved versions; see
the test suite for what each one demonstrates.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Fixture:
    name: str
    f: str
    g: str
    laurent: bool = False         # Laurent input, for the reduce command only
    shift_s: int | None = None    # meromorphic reduction exponent
    note: str = ""


def _ex11(e: int, E: int, A: int, B: int) -> tuple[str, str]:
    f = (f"(x+y)*(x-y^{e+1}+{A}*y^{E+1})*(x+y^{e+1}+{B}*y^{E+1})"
         .replace("+-", "-"))
    g = (f"(x-y)*(x-y^{e+1}-{A}*y^{E+1})*(x+y^{e+1}-{B}*y^{E+1})"
         .replace("--", "+"))
    return f, g


_G1 = "(x^2*y - 2/3*x*y^3 + 1/5*y^5)"
_G2 = "(x^4*y - 2/3*x^2*y^3 + 1/5*y^5)"

FIXTURES: dict[str, Fixture] = {}


def _add(fx: Fixture) -> None:
    FIXTURES[fx.name] = fx


_add(Fixture("sec2", "x", "x^2 - y^2",
             note="single bar of height 1; no polar roots at all"))

_f, _g = _ex11(2, 3, 1, 1)
_add(Fixture("ex11", _f, _g,
             note="three-level tree with a collinear middle bar; two polar "
                  "roots climb it, two are bounded"))
_f, _g = _ex11(2, 3, 1, -1)
_add(Fixture("ex11-neg", _f, _g,
             note="opposite-coefficient variant: one climber, three bounded"))
_f, _g = _ex11(1, 2, 1, 1)
_add(Fixture("ex11-degenerate", _f, _g,
             note="boundary parameters (E = 2e): all four polar roots reach "
                  "the middle height"))

_add(Fixture(
    "ex61",
    "(x^2 - y^16)*((x-y)^2 - y^18)",
    "(x + y^9)*(x + y)",
    note="collinear support point; three roots bounded between bars",
))
_add(Fixture(
    "ex61-e9",
    "(x^2 - y^16)*((x-y)^2 - y^18)",
    "(x + y^10)*(x + y)",
    note="same tree as ex61, different leave heights",
))

_add(Fixture("ex82", "x^3 - y^4", "y",
             note="one-function cusp; both polar roots leave at the double "
                  "pure zero"))
_add(Fixture("ex82-prime", "x^3 - y^4 - 3*x*y^5", "y",
             note="same tree as ex82, polar pair splits as x^2 - y^5"))
_add(Fixture("ex82-second", "x^3 - y^4 - 3*x*y^6", "y",
             note="same tree as ex82, polar pair splits as x^2 - y^6"))
_add(Fixture("cusp34", "x^3 - y^4", "y", note="alias of ex82"))

_add(Fixture("ex91", f"x^2 - {_G1}^2", f"x - 2*{_G1}",
             note="collinear ground bar; two of three polar roots leave at "
                  "height 2"))
_add(Fixture("ex91-second", f"x^2 - {_G2}^2", f"x - 2*{_G2}",
             note="same tree as ex91 with five generic polar roots"))

_add(Fixture(
    "merle2pair",
    "x^4 - 2*x^2*y^3 - 4*x*y^5 + y^6 - y^7",
    "y",
    note="irreducible two-characteristic-pair germ against the axis",
))

_add(Fixture(
    "fig2",
    "(x+y)*(x-y^2+y^3)*(x+y^2+y^3)*(x-y^2-2*y^3-y^4)*(x-2*y-y^2)*(x-2*y+y^2)",
    "(x-y)*(x-y^2-y^3)*(x+y^2-y^3)*(x-y^2-2*y^3+y^4)*(x+2*y-y^2)*(x+2*y+y^2)",
    note="deep repair chain: a mixed bar over the collinear one, plus two "
         "extra basic bars",
))

_add(Fixture(
    "mero83",
    "x^4 - y^(-2)*x^2 + 1",
    "x^2 - y^(-1)*x",
    laurent=True,
    shift_s=2,
    note="meromorphic pair; reduction leaves a collinear bar with both "
         "generic orders zero and no cover below it",
))


def get_fixture(name: str) -> Fixture:
    try:
        return FIXTURES[name]
    except KeyError:
        raise KeyError(
            f"unknown fixture {name!r}; available: {', '.join(sorted(FIXTURES))}"
        )
