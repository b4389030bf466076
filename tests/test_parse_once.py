"""Each input text is parsed once per command, field restarts included.

``pipeline._in_field`` parses f and g once, over Q unless the field is
pinned, and hands every field attempt the parsed pair re-embedded in that
field (``BiPoly.over``).  These tests count the parses of runs that
restart, check that a restarted run equals the run pinned at its final
conductor, and pin the order of the checks made before anything is
parsed.
"""

import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest

from polartree import cli, pipeline
from polartree.cli import run as cli_run
from polartree.exactalg import BiPoly, CycloField
from polartree.fixtures import FIXTURES, get_fixture
from polartree.pipeline import Options, analyze_pair, render_run, run_document

# the corpus fixtures whose automatic field restarts: four at the first
# Newton polygons, and ex11-neg from the Jacobian (Q(zeta_4) -> Q(zeta_12))
RESTARTING_FIXTURES = ("cusp34", "ex11-neg", "ex82", "ex82-prime", "ex82-second")
# the reduced pair of x^2 - 1/y and x^3 - y restarts from Q(zeta_4) to Q(zeta_12)
REDUCE_ARGV = ["reduce", "--f", "x^2 - y^(-1)", "--g", "x^3-y"]


def _ramified_set(index):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [(f, g) for _id, f, g in workloads.pool_set("ramified", index, FIXTURES)]


@pytest.fixture
def counted(monkeypatch):
    """Count the parses and the field attempts that ``pipeline`` makes."""
    calls = {"parses": 0, "attempts": []}
    parse, analyze = pipeline.parse_expression, pipeline.analyze_polys

    def parsing(*args, **kwargs):
        calls["parses"] += 1
        return parse(*args, **kwargs)

    def attempt(f, g, options=None):
        calls["attempts"].append(f.field.conductor)
        return analyze(f, g, options)

    monkeypatch.setattr(pipeline, "parse_expression", parsing)
    monkeypatch.setattr(pipeline, "analyze_polys", attempt)
    return calls


def test_a_jacobian_restart_parses_each_text_once(counted):
    fx = get_fixture("ex11-neg")
    assert analyze_pair(fx.f, fx.g).field.conductor == 12
    assert counted == {"parses": 2, "attempts": [4, 12]}


def test_a_first_polygons_restart_parses_each_text_once(counted):
    assert analyze_pair("x^3 - y^10", "x").field.conductor == 12
    assert counted == {"parses": 2, "attempts": [4, 12]}


def test_a_restarting_reduce_parses_each_text_once(counted, monkeypatch, capsys):
    fields = []
    germ_stage = pipeline._germ_stage

    def recording(f, g, *args):
        fields.append(f.field.conductor)
        return germ_stage(f, g, *args)

    # the reduce command calls the germ stage through its own import
    monkeypatch.setattr(cli, "_germ_stage", recording)
    assert cli_run(REDUCE_ARGV) == 0
    assert counted["parses"] == 2
    assert fields == [4, 12]


def test_over_embeds_rational_coefficients_and_refuses_the_others():
    K1, K4, K12 = CycloField(1), CycloField(4), CycloField(12)
    x, y = BiPoly.variable(K1, "x"), BiPoly.variable(K1, "y")
    p = x**2 * BiPoly.constant(K1, 3) - y**3 * BiPoly.constant(K1, Fraction(1, 2))
    assert p.over(K1) is p
    assert str(p.over(K12)) == str(p)
    assert p.over(K12) == p.over(K4).over(K12)
    with pytest.raises(ValueError):
        BiPoly.constant(K4, K4.zeta()).over(K12)


def _auto_and_pinned(f, g):
    auto = analyze_pair(f, g)
    pinned = analyze_pair(f, g, Options(field=auto.field.conductor))
    return auto, pinned


@pytest.mark.parametrize("name", RESTARTING_FIXTURES)
def test_a_restarted_fixture_equals_its_pinned_run(name):
    fx = get_fixture(name)
    auto, pinned = _auto_and_pinned(fx.f, fx.g)
    assert auto.field.conductor != 4
    assert json.dumps(run_document(auto)) == json.dumps(run_document(pinned))
    assert render_run(auto) == render_run(pinned)


def test_a_restarted_ramified_pair_equals_its_pinned_run():
    for f, g in _ramified_set(0):
        auto, pinned = _auto_and_pinned(f, g)
        assert auto.field.conductor != 4, (f, g)
        assert json.dumps(run_document(auto)) == json.dumps(run_document(pinned)), (f, g)
        assert render_run(auto) == render_run(pinned), (f, g)


def test_a_restarted_reduce_equals_its_pinned_run(capsys):
    assert cli_run(REDUCE_ARGV + ["--json"]) == 0
    auto = capsys.readouterr()
    assert cli_run(REDUCE_ARGV + ["--json", "--field", "12"]) == 0
    assert capsys.readouterr() == auto


def test_the_degree_cap_comes_before_parsing(capsys):
    code = cli_run(["verify", "--f", "x+$", "--g", "x", "--field", "30030"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: field conductor 30030 gives Q(zeta_30030)")


def test_the_zeta_gate_comes_before_parsing(capsys):
    code = cli_run(["verify", "--f", "x+$", "--g", "zeta*x"])
    assert (code, capsys.readouterr().err) == (
        2, "error: input using zeta needs an explicit --field\n")
