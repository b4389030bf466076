"""The benchmark tracer still finds every name it patches.

``perfbench/tracing.py`` wraps call sites such as ``jacoracle.order_along_arc``
and methods such as ``PuiseuxSeries.__mul__`` by name, so renaming or
deleting one of them breaks the traced benchmark.  Installing the tracer on
the package and running one fixture shows that every name still exists, that
the arc-order span is recorded, and that ``uninstall`` puts every original
back.
"""

import importlib.util
from pathlib import Path

import polartree
from polartree import get_fixture
from polartree.pipeline import analyze_pair


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_installs_records_and_restores():
    tracer = _load_tracing().Tracer(polartree)
    tracer.install()
    patched = list(tracer._originals)
    try:
        fx = get_fixture("sec2")
        assert analyze_pair(fx.f, fx.g).verification.passed
    finally:
        tracer.uninstall()
    assert "puiseux.order_along_arc" in {span[0] for span in tracer.spans}
    assert patched
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr}"
