"""Expression parsing and the command-line surface."""

import json
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from polartree import (
    BiPoly,
    CycloField,
    ExprSyntaxError,
    LimitationError,
    NegativeExponentWithoutLaurent,
    PolartreeError,
    analyze_polys,
    parse_expression,
)
from polartree.cli import run
from polartree.parsing import MAX_GERM_DEGREE
from polartree.pipeline import MAX_FIELD_DEGREE

ROOT = Path(__file__).resolve().parents[1]

K4 = CycloField(4)
K12 = CycloField(12)


def test_parse_three_factor_product():
    text = "(x+y)*(x - y^2 + y^3)*(x + y^2 + y^3)"
    x = BiPoly.variable(K4, "x")
    y = BiPoly.variable(K4, "y")
    expected = (x + y) * (x - y**2 + y**3) * (x + y**2 + y**3)
    assert parse_expression(text, K4) == expected


def test_parse_simple():
    x = BiPoly.variable(K4, "x")
    y = BiPoly.variable(K4, "y")
    assert parse_expression("x^3 - y^4", K4) == x**3 - y**4
    assert len(parse_expression("x^3 - y^4", K4).terms) == 2


def test_parse_rationals_and_zeta():
    p = parse_expression("1/2*x + zeta*y", K12)
    assert p.terms[(1, 0)] == K12.rational(F(1, 2))
    assert p.terms[(0, 1)] == K12.zeta()


def test_parse_negative_exponent_needs_laurent():
    with pytest.raises(NegativeExponentWithoutLaurent, match="reduce command"):
        parse_expression("y^-1", K4)
    with pytest.raises(ExprSyntaxError):
        parse_expression("x^-1", K4, laurent=True)
    p = parse_expression("y^(-2)*x", K4, laurent=True)
    assert p.terms == {(1, -2): K4.one}


def test_analyze_polys_refuses_laurent_input():
    # a Laurent polynomial is no germ; only reduce brings it to one
    f = parse_expression("x - y^(-1)", K4, True)
    g = parse_expression("x-y", K4)
    for a, b, name in ((f, g, "f"), (g, f, "g")):
        with pytest.raises(NegativeExponentWithoutLaurent,
                           match=f"^{name}: y\\^-1 is Laurent input, which only "
                                 "the reduce command accepts$"):
            analyze_polys(a, b)


def test_parse_errors_carry_position():
    with pytest.raises(ExprSyntaxError) as e:
        parse_expression("x + $", K4)
    assert "1:5" in str(e.value)


@pytest.mark.parametrize("text, where", [
    ("x - 2\u00b2*y", "1:6"), ("x^\u00b2", "1:3"), ("y^\u0663", "1:3")])
def test_parse_accepts_ascii_digits_only(text, where):
    # str.isdigit() holds for superscripts and other scripts' digits
    with pytest.raises(ExprSyntaxError) as e:
        parse_expression(text, K4)
    assert str(e.value).startswith(f"{where}: unexpected character")


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.text(alphabet="xyzeta0123456789\u00b2\u00b9\u0663+-*/^() \n", max_size=12))
def test_parse_expression_returns_or_raises_a_polartree_error(text):
    try:
        parse_expression(text, K4, laurent=True)
    except PolartreeError:
        pass


def test_roundtrip_parse_serialize():
    for text in (
        "x^3 - y^4",
        "(x+y)*(x - y^2 + y^3)*(x + y^2 + y^3)",
        "x^2 - (x^2*y - 2/3*x*y^3 + 1/5*y^5)^2",
    ):
        p = parse_expression(text, K4)
        assert parse_expression(str(p), K4) == p


def _cli(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_verify_pass(capsys):
    code, out, _err = _cli(capsys, "verify", "--fixture", "sec2")
    assert code == 0
    assert "verification: PASS" in out


@pytest.mark.parametrize("g", ["x-y+y^2", "x+x^2-y+y^3", "x+x^2-y+x^3"])
def test_cli_verify_sample_arc_avoids_a_root(capsys, g):
    # on the ground bar (height 0) the sample arc 0 + 1*y is the exact root
    # of f = x - y, whose order is infinite; the arcs with a = 2, 3 are used
    code, out, err = _cli(capsys, "verify", "--f", "x-y", "--g", g)
    assert code == 0 and err == ""
    assert "verification: PASS" in out
    assert "arc between heights (1)" not in out
    assert "arc between heights (2)" in out and "arc between heights (3)" in out


def test_germ_stage_doubles_while_a_contact_is_hidden(capsys):
    # the roots agree up to y^9 and differ at y^10: from the start depth
    # ydeg + 2 = 4 the contact is still hidden at 8, and shows at 16; the
    # oracle then expands J to max_contact + 2 = 12
    argv = ("--f", "x+x^2-y", "--g", "x+x^2-y+x^10")
    code, out, err = _cli(capsys, "roots", *argv)
    assert code == 0 and err == ""
    series = [line for line in out.splitlines() if line.startswith("  ")]
    assert len(series) == 2 and all(s.endswith(" + O(y^16)") for s in series)
    code, out, err = _cli(capsys, "verify", *argv)
    assert code == 0 and err == ""
    assert out.startswith("field: Q(zeta_4)   truncation: O(y^12)\n")


def test_germ_stage_settles_at_max_contact_plus_two(capsys):
    # contact 4 is resolved at the start depth ydeg + 2 = 5, which is below
    # max_contact + 2 = 6: the germs are expanded once more, to 6
    code, out, err = _cli(capsys, "roots", "--f", "x+x^2-y", "--g", "x-y+y^2-2*y^3")
    assert code == 0 and err == ""
    assert out.splitlines()[1] == "  y - y^2 + 2*y^3 - 5*y^4 + 14*y^5 + O(y^6)"
    assert out.splitlines()[3] == "  y - y^2 + 2*y^3"


def test_cli_tree_markers(capsys):
    code, out, _err = _cli(capsys, "tree", "--fixture", "ex11")
    assert code == 0
    assert "∘" in out and "×" in out


def test_cli_analyze_shows_rational_function(capsys):
    code, out, _err = _cli(capsys, "analyze", "--fixture", "sec2")
    assert code == 0
    assert "M(z) = 2 / ((z + 1)z(z - 1))" in out and "m=0" in out


def test_cli_determinism(capsys):
    code1, out1, _ = _cli(capsys, "verify", "--fixture", "ex11", "--json")
    code2, out2, _ = _cli(capsys, "verify", "--fixture", "ex11", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["verification"]["passed"] is True
    assert doc["format_version"] == 1
    _code, human1, _ = _cli(capsys, "analyze", "--fixture", "fig2")
    _code, human2, _ = _cli(capsys, "analyze", "--fixture", "fig2")
    assert human1 == human2


def test_cli_input_error(capsys):
    code, _out, err = _cli(capsys, "verify", "--f", "x +", "--g", "y")
    assert code == 2 and "error" in err
    code, _out, err = _cli(capsys, "verify", "--fixture", "nope")
    assert code == 2


def test_cli_field_limitation(capsys):
    # pinning the field below the needed conductor must exit 3
    code, _out, err = _cli(capsys, "verify", "--fixture", "ex82", "--field", "4")
    assert code == 3 and "limitation" in err


def test_cli_pinned_field_names_what_the_first_polygons_need(capsys):
    # f needs the cube roots of unity (slope 2/3), g the fifth (slope 3/5):
    # both are asked for at once, before either germ is expanded
    code, out, err = _cli(capsys, "verify", "--f", "x^3-y^2", "--g", "x^5-y^3",
                          "--field", "4")
    assert (code, out) == (3, "")
    assert err == "limitation: working field must contain the 60-th roots of unity\n"
    # a slope at or past a pinned depth is never expanded: at depth 5/8 only
    # the fifth roots of unity are asked for
    code, _out, err = _cli(capsys, "roots", "--f", "x^3-y^2", "--g", "x^5-y^3",
                           "--field", "4", "--trunc", "5/8")
    assert (code, err) == (3, "limitation: working field must contain the 20-th "
                           "roots of unity\n")


@pytest.mark.parametrize("field", ["1", "3"])
def test_cli_odd_pinned_field_holds_the_square_roots_of_unity(capsys, field):
    # Q(zeta_N) holds -1 for every N, so slope 1/2 needs no larger field
    code, out, err = _cli(capsys, "verify", "--f", "x^2-y", "--g", "x", "--field", field)
    assert (code, err) == (0, "")
    assert out.startswith(f"field: Q(zeta_{field}) ")


def test_cli_odd_pinned_field_holds_the_sixth_roots_of_unity(capsys):
    # Q(zeta_3) = Q(zeta_6), so slope 1/2 asks for no larger field and the
    # run ends on the edge polynomial, as it does in Q(zeta_6)
    for field in ("3", "6"):
        code, out, err = _cli(capsys, "verify", "--f", "x^2-2*y", "--g", "x",
                              "--field", field)
        assert (code, out) == (3, "")
        assert err == ("limitation: edge coefficient polynomial z^2 - 2 has no "
                       f"root in Q(zeta_{field})\n")


def test_field_ruled_out_by_the_first_polygons_expands_nothing(monkeypatch):
    from polartree import analyze_pair, npsolve

    fields = []

    def recording(F):
        fields.append(F.field.conductor)
        return split(F)

    split = npsolve.multiplicity_split
    monkeypatch.setattr(npsolve, "multiplicity_split", recording)
    run = analyze_pair("x^3-y^2", "x^5-y^3")
    assert run.field.conductor == 60
    assert set(fields) == {60}


# z^2 + z + 1 has no root in Q(zeta_4), but x^3 - y^10 asks for Q(zeta_12),
# where it does: the germ bundle must not end the field search
BUNDLE_F, BUNDLE_G = "(x^2+x*y+y^2)*(x^3-y^10)", "x-2*y"


def test_cli_germ_bundle_waits_for_the_field_search(capsys):
    code, out, err = _cli(capsys, "verify", "--f", BUNDLE_F, "--g", BUNDLE_G)
    assert (code, err) == (0, "")
    assert out.startswith("field: Q(zeta_12) ")
    assert "verification: PASS" in out


def test_germ_bundle_waits_for_the_field_search():
    from polartree import analyze_pair

    run = analyze_pair(BUNDLE_F, BUNDLE_G)
    assert run.field.conductor == 12


def test_cli_germ_bundle_in_the_settled_field_exits_3(capsys):
    code, out, err = _cli(capsys, "verify", "--f", "x^2-5/2*y^8", "--g", "x")
    assert (code, out) == (3, "")
    assert err == ("limitation: edge coefficient polynomial z^2 - 5/2 "
                   "has no root in Q(zeta_4)\n")
    code, out, err = _cli(capsys, "verify", "--f", BUNDLE_F, "--g", BUNDLE_G,
                          "--field", "4")
    assert (code, out) == (3, "")
    assert err == "limitation: working field must contain the 12-th roots of unity\n"


@pytest.mark.parametrize("f", ["x^2+x*y+y^2", "x^4+x^2*y^2+y^4"])
def test_cli_roots_of_unity_bundle_restarts_the_field(capsys, f):
    # z^3 = 1 modulo z^2 + z + 1, and z^6 = 1 modulo z^4 + z^2 + 1: the
    # germ bundle's coefficients are roots of unity that Q(zeta_12) holds
    code, out, err = _cli(capsys, "verify", "--f", f, "--g", "x-2*y")
    assert (code, err) == (0, "")
    assert out.startswith("field: Q(zeta_12) ")
    assert "verification: PASS (17 checks, 0 failures)" in out
    code, out, err = _cli(capsys, "verify", "--f", f, "--g", "x-2*y", "--field", "4")
    assert (code, out) == (3, "")
    assert err == "limitation: working field must contain the 12-th roots of unity\n"


def test_bundle_refusal_scans_the_conductor_cap_once(monkeypatch):
    from types import SimpleNamespace

    from polartree import UniPoly, UnresolvedBranch, pipeline

    calls = []
    phi = pipeline._euler_phi
    monkeypatch.setattr(pipeline, "_euler_phi", lambda n: calls.append(n) or phi(n))
    pipeline._largest_conductor.cache_clear()
    bundle = SimpleNamespace(coeff_poly=UniPoly(K4, [F(-5, 2), 0, 1]), count=2)
    counts = []
    for _ in range(2):
        with pytest.raises(UnresolvedBranch):
            pipeline._refuse_germ_bundles([bundle], 4)
        counts.append(len(calls))
    assert counts[0] > 0 and counts[1] == counts[0]
    assert pipeline._largest_conductor(MAX_FIELD_DEGREE) == 240


def test_germ_bundle_in_the_settled_field_is_unresolved():
    from polartree import UnresolvedBranch, analyze_pair

    with pytest.raises(UnresolvedBranch) as e:
        analyze_pair("x^2-5/2*y^8", "x")
    assert e.value.count == 2


def test_cli_compare(capsys):
    code, out, _err = _cli(
        capsys, "compare", "--fixture", "ex61", "--fixture2", "ex61-e9"
    )
    assert code == 0
    assert "mero_equivalent" in out


def test_cli_compare_explicit_expressions(capsys):
    code, out, _err = _cli(
        capsys, "compare", "--f", "x^2 - y^3", "--g", "y",
        "--f2", "x^2 - y^3 - y^4", "--g2", "y",
    )
    assert code == 0
    assert "verdict:" in out


def test_cli_unresolvable_input_roots(capsys):
    # sqrt(2) is not reachable by the in-field root search
    code, _out, err = _cli(capsys, "verify", "--f", "x^2 - 2*y^2", "--g", "y")
    assert code == 3 and "limitation" in err


def test_cli_generic_with_pinned_shift(capsys):
    code, out, _err = _cli(
        capsys, "generic", "--f", "y^2 - x^3", "--g", "y - x^2", "--shift", "1"
    )
    assert code == 0
    assert "shift c = 1" in out


def test_cli_reduce(capsys):
    code, out, _err = _cli(capsys, "reduce", "--fixture", "mero83")
    assert code == 0
    assert "x^4 - x^2*y^2 + y^8" in out
    assert "collinear points without a cover" in out
    assert "jacobian correspondence identity: holds" in out


def test_cli_reduce_auto_s_keeps_every_root(capsys):
    code, out, _err = _cli(capsys, "reduce", "--f", "x^4 - y^(-2)*x^2 + 1",
                           "--g", "x^2 - y^(-1)*x")
    assert code == 0
    assert "substitution exponent s = 2" in out


HOLOMORPHIC_COMMANDS = ("verify", "analyze", "roots", "tree", "factor", "compare",
                        "generic")


@pytest.mark.parametrize("command", HOLOMORPHIC_COMMANDS)
@pytest.mark.parametrize("given", [("--f", "x - y^(-1)", "--g", "x-y"),
                                   ("--fixture", "mero83")])
def test_cli_laurent_input_only_for_reduce(capsys, command, given):
    second = ("--fixture2", "sec2") if command == "compare" else ()
    code, out, err = _cli(capsys, command, *given, *second)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "reduce command" in err and "Traceback" not in err


def test_cli_reduce_takes_laurent_text_without_a_flag(capsys):
    code, out, err = _cli(capsys, "reduce", "--f", "x - y^(-1)", "--g", "x-y")
    assert code == 0 and err == ""
    assert out.startswith("substitution exponent s = ")


def test_cli_laurent_flag_is_gone(capsys):
    for command in HOLOMORPHIC_COMMANDS + ("reduce",):
        with pytest.raises(SystemExit) as e:
            run([command, "--fixture", "sec2", "--laurent"])
        assert e.value.code == 2
        assert "unrecognized arguments: --laurent" in capsys.readouterr().err


def test_cli_fractional_exponent_in_a_limitation(capsys):
    code, out, err = _cli(capsys, "verify", "--f", "x-y", "--g", "x+y", "--trunc", "1/3")
    assert code == 3 and out == ""
    assert err == ("limitation: contact order unresolved: series agree up to "
                   "O(y^(1/3))\n")


def test_cli_reduce_s_too_small_exits_2(capsys):
    code, out, err = _cli(capsys, "reduce", "--fixture", "mero83", "--s", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "need s >= 2" in err and "Traceback" not in err


@pytest.mark.parametrize("f, g", [
    ("(x^3+y^2-y^4)", "(x^3+y^2-y^4)*(x^2-y^5)"),
    ("(x^3+y^2-y^4)^2", "x"),
])
def test_cli_repeated_component_through_origin_exits_2(capsys, f, g):
    code, out, err = _cli(capsys, "verify", "--f", f, "--g", g)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "(x^3 + y^2 - y^4)^2 through the origin" in err


@pytest.mark.parametrize("f, g", [
    ("(x+y)^100000", "x"),
    ("(x+y)^400", "x"),
    ("x^2-y^3", "(1+x)^3000"),
])
def test_cli_degree_cap_exits_3_at_once(capsys, f, g):
    t0 = time.perf_counter()
    code, out, err = _cli(capsys, "verify", "--f", f, "--g", g)
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and out == ""
    assert err.startswith("limitation: ") and err.count("\n") == 1
    assert f"germ degree cap {MAX_GERM_DEGREE}" in err


def test_cli_pinned_field_over_the_cap_exits_2_at_once():
    # building Q(zeta_30030) alone took more than 30 s before the cap
    argv = ["verify", "--f", "x^2-y^3", "--g", "x-y", "--field", "30030"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "polartree.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=20)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == (
        "error: field conductor 30030 gives Q(zeta_30030) of degree 5760, "
        f"above the field degree cap {MAX_FIELD_DEGREE}\n")


# (2^61 - 1)(2^89 - 1), and the strong pseudoprime 1287836182261 *
# 2575672364521: the rational edge roots must not depend on factoring them
LARGE_ROOTS = [
    ("(x - 1427247692705959880439315947500961989719490561*y)*(x^2 + y^2 + x*y)",
     "x - y", ["1427247692705959880439315947500961989719490561*y"]),
    ("(x - 1287836182261*y)*(x - 2575672364521*y)*(x^2 + x*y + y^2)",
     "x - 2*y", ["1287836182261*y", "2575672364521*y"]),
]


@pytest.mark.parametrize("f, g, rational", LARGE_ROOTS, ids=["semiprime", "pseudoprime"])
def test_cli_edge_roots_with_large_prime_factors(f, g, rational):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    outs = []
    for command in ("roots", "verify"):
        done = subprocess.run([sys.executable, "-m", "polartree.cli", command,
                               "--f", f, "--g", g], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        outs.append(done.stdout)
    roots, verified = outs
    assert all(f"  {r}\n" in roots for r in rational)
    assert "field: Q(zeta_12) " in verified
    assert "verification: PASS (17 checks, 0 failures)" in verified


def test_field_degree_cap_boundary(capsys):
    # phi(240) = 64 is at the cap, phi(241) = 240 above it
    assert _cli(capsys, "verify", "--f", "x^2-y^3", "--g", "x-y", "--field", "240")[0] == 0
    code, out, err = _cli(capsys, "verify", "--f", "x^2-y^3", "--g", "x-y", "--field", "241")
    assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_cli_field_enlargement_past_the_cap_exits_3(capsys):
    # the edge of slope 1/67 asks for Q(zeta_268), of degree 132
    code, out, err = _cli(capsys, "verify", "--f", "x^67-y", "--g", "x-y")
    assert code == 3 and out == ""
    assert err == ("limitation: the expansion needs Q(zeta_268) of degree 132, "
                   f"above the field degree cap {MAX_FIELD_DEGREE}\n")


def test_field_restarts_end_at_the_degree_cap():
    # each restart asks for twice the conductor: Q(zeta_4) up to Q(zeta_128)
    # are tried, and Q(zeta_256), of degree 128, is refused
    from polartree import NeedsLargerField, Options, pipeline

    tried = []

    def attempt(f, g):
        tried.append(f.field.conductor)
        raise NeedsLargerField(2 * f.field.conductor)

    with pytest.raises(LimitationError) as e:
        pipeline._in_field(Options(), "x", "y", attempt)
    assert tried == [4, 8, 16, 32, 64, 128]
    assert str(e.value) == ("the expansion needs Q(zeta_256) of degree 128, "
                            f"above the field degree cap {MAX_FIELD_DEGREE}")


def _bundle_on_a_tree_point(field):
    """A bundle y + c*y^2 + ..., c a root of z: its coefficient at the branch
    point may equal the 0 that the exact root y has there."""
    from polartree import ExpandedRoot, PuiseuxSeries, UniPoly

    return ExpandedRoot(PuiseuxSeries(field, [(F(1), 1)], F(2)), 1,
                        branch_exp=F(2), coeff_poly=UniPoly(field, [0, 1]))


def test_bundle_that_may_meet_a_root_has_an_undetermined_contact():
    from polartree import PuiseuxSeries, TruncationTooShort

    root = PuiseuxSeries(K4, [(F(1), 1)])
    with pytest.raises(TruncationTooShort, match="may coincide with a tree point"):
        _bundle_on_a_tree_point(K4).contact_with(root)


def test_cli_undetermined_placement_exits_3(capsys, monkeypatch):
    # every Jacobian expansion yields the bundle, which climbs to the root
    # x = y of f and cannot be told apart from it at any depth
    from polartree import Expansion, jacoracle

    monkeypatch.setattr(jacoracle, "expand_roots", lambda J, depth, extra_candidates:
                        Expansion([_bundle_on_a_tree_point(J.field)], 0, 1))
    code, out, err = _cli(capsys, "verify", "--f", "x-y", "--g", "x+y")
    assert code == 3 and out == ""
    assert err.startswith("limitation: placement still unresolved at truncation ")
    assert err.endswith("unresolved branch coefficient may coincide with a tree point\n")


@pytest.mark.parametrize("value", ["1/2", "-1/2"])
def test_cli_abbreviated_flag_is_a_usage_error(capsys, value):
    # --tru is not --trunc: an abbreviation is refused whatever its value
    for command in ("verify", "reduce"):
        with pytest.raises(SystemExit) as e:
            run([command, "--f", "x-y", "--g", "x+y", "--tru", value])
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: --tru {value}" in captured.err


def test_degree_cap_covers_products_and_poles():
    parse_expression(f"x^{MAX_GERM_DEGREE}*y^{MAX_GERM_DEGREE}", K4)
    for text in (f"x^{MAX_GERM_DEGREE}*x", f"(x*y)^{MAX_GERM_DEGREE + 1}",
                 f"x^3 - y^(-{MAX_GERM_DEGREE + 1})"):
        with pytest.raises(LimitationError):
            parse_expression(text, K4, laurent=True)


def test_cli_shared_unit_factor_still_passes(capsys):
    code, out, _err = _cli(capsys, "verify", "--f", "(x-y)*(1+x)", "--g", "(x+y)*(1+x)")
    assert code == 0 and "verification: PASS" in out


def test_cli_generic(capsys):
    code, out, _err = _cli(capsys, "generic", "--fixture", "ex91")
    assert code == 0
    assert "m = 3" in out


def test_cli_roots_json(capsys):
    code, out, _err = _cli(capsys, "roots", "--fixture", "ex82", "--json",
                           "--field", "12")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["roots"]["f"]) == 3
    assert doc["E2"] == 1


def test_cli_rejects_multiple_roots(capsys):
    code, _out, err = _cli(capsys, "verify", "--f", "(x-y)^2", "--g", "x+y")
    assert code == 2
    code, _out, err = _cli(capsys, "verify", "--f", "x-y", "--g", "(x-y)*(x+y)")
    assert code == 2


def test_cli_pinned_truncation_too_small(capsys):
    code, _out, err = _cli(
        capsys, "verify", "--fixture", "ex61", "--trunc", "2"
    )
    assert code == 3 and "limitation" in err


def test_cli_zeta_requires_field(capsys):
    code, _out, err = _cli(capsys, "verify", "--f", "x^2 - zeta^2*y^2", "--g", "y")
    assert code == 2
    code, _out, _err = _cli(
        capsys, "verify", "--f", "x^2 - zeta^2*y^2", "--g", "y", "--field", "4"
    )
    assert code == 0


@pytest.mark.parametrize("argv", [
    ("verify", "--fixture", "sec2", "--trunc", "abc"),
    ("generic", "--fixture", "ex91", "--shift", "q"),
    ("reduce", "--fixture", "mero83", "--s", "q"),
    ("verify", "--fixture", "sec2", "--field", "-3"),
    ("verify", "--fixture", "ex11-neg", "--field", "0"),
])
def test_cli_bad_flag_value_exits_2(capsys, argv):
    code, out, err = _cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, flag, value", [
    (("verify", "--g", "x"), "--f", "-x+y^2"),
    (("roots", "--f", "x^2-y^3"), "--g", "-x+y"),
    (("compare", "--f", "x^2-y^3", "--g", "x", "--g2", "x"), "--f2", "-x^2+y^3"),
    (("generic", "--f", "x^2-y^3", "--g", "x^3-y^2"), "--shift", "-1/2"),
])
def test_cli_flag_value_may_start_with_a_minus(capsys, argv, flag, value):
    # argparse alone reads -x+y^2 or -1/2 after a flag as an unknown option
    spaced = _cli(capsys, *argv, flag, value)
    assert spaced[0] == 0
    assert _cli(capsys, *argv, f"{flag}={value}")[:2] == spaced[:2]


@pytest.mark.parametrize("argv", [
    ("verify", "--f", "--g", "x"),  # an option is never taken as a value
    ("generic", "--fixture", "sec2", "--trunc", "1"),  # generic expands nothing
])
def test_cli_usage_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        run(list(argv))
    assert exit_info.value.code == 2
    assert capsys.readouterr().out == ""


def test_field_below_one_is_an_input_error():
    from polartree import InputError, Options, analyze_pair

    with pytest.raises(InputError):
        analyze_pair("x", "y", Options(field=0))


@pytest.mark.parametrize("argv", [
    ("verify", "--f", "x-y", "--g", "x+y", "--trunc", "0"),
    ("verify", "--f", "x-y", "--g", "x+y", "--trunc=-1"),
    ("reduce", "--fixture", "mero83", "--trunc", "0"),
    ("verify", "--f", "x-y", "--g", "x+y", "--trunc", "-1/2"),
])
def test_cli_nonpositive_trunc_exits_2(capsys, argv):
    # a depth of zero or less truncates every root away: bad input, not a
    # limitation (it used to exit 3 with "series agree up to O(y^0)")
    code, out, err = _cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: truncation depth must be positive")
    assert err.count("\n") == 1


def test_nonpositive_trunc_is_an_input_error():
    from polartree import InputError, Options, analyze_pair

    for t in (F(0), F(-1), F(-1, 2)):
        with pytest.raises(InputError):
            analyze_pair("x-y", "x+y", Options(trunc=t))


def test_cli_reduce_picks_its_field(capsys):
    # the reduced roots need the cube roots of unity: Q(zeta_12)
    argv = ("reduce", "--f", "x^3 - y^(-2)", "--g", "x")
    code, out, _err = _cli(capsys, *argv)
    assert code == 0
    assert _cli(capsys, *argv, "--field", "12") == (0, out, "")


def test_cli_bundle_under_pinned_truncation_exits_3(capsys):
    # both f-roots read y + O(y^3): the bundle enters the tree as two roots
    # whose contact the pinned depth cannot resolve
    argv = ("verify", "--f", "(x-y-y^5)*(x-y+y^5)", "--g", "x")
    code, out, err = _cli(capsys, *argv, "--trunc", "3")
    assert (code, out) == (3, "")
    assert err == ("limitation: contact order unresolved: "
                   "series agree up to O(y^3)\n")
    code, out, _err = _cli(capsys, *argv, "--trunc", "8")
    assert code == 0 and "[2,0] at 1" in out and "verification: PASS" in out


def _readme_commands():
    """The ``polartree ...`` commands of the README's sh blocks, as argv."""
    blocks = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("polartree ")]


README_COMMANDS = _readme_commands()


def test_readme_lists_its_examples():
    assert [argv[0] for argv in README_COMMANDS] == [
        "verify", "tree", "factor", "compare", "reduce"]


@pytest.mark.parametrize("argv", README_COMMANDS, ids=lambda argv: argv[0])
def test_readme_example_exits_0(capsys, argv):
    assert run(argv) == 0
    assert capsys.readouterr().err == ""
