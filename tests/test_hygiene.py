"""Source hygiene: every name and every stored attribute the package
defines is used by a program path.

No linter ships with the project, so the name checks read the syntax trees
with ``ast``.  The trees searched are every module under ``src/polartree/``
except ``__init__.py`` (a re-export is no use) and every module under
``perfbench/``; ``tests/`` is not searched, because code that only tests
call belongs in ``tests/kernel_references.py``.  Docstrings, comments and
string constants are not references.

- A function or class defined in the package counts as used only when a
  ``Name``, an ``Attribute`` or an import names it in the searched trees;
  a method only when an ``Attribute`` does, so that a local variable
  ``order`` does not count as a call of a method ``order``.  Dunder
  methods are exempt: the interpreter calls them by protocol.
- A dataclass field, a ``__slots__`` entry or a ``self.x = ...``
  attribute counts as read only when an ``Attribute`` load of that name
  appears in the searched trees.

The name checks go by name alone, so a write-only field that shares its
name with a read one would pass them.  The check by class closes that gap
for the modules in ``BY_CLASS``: it replaces ``__getattribute__`` on every
non-exception class they define, runs the corpus pool, ramified pool set 1 (the only run
that reads ``ArcTrace.leave_poly`` and ``BarAnalysis.mero_unresolved_poly``)
and the CLI commands of ``tests/test_cli_golden.py``, and requires each
stored attribute to be read on an instance of its own class (or a subclass)
by a function in ``src/polartree/`` other than ``__repr__``.  ``fixtures.py``
stays under the name checks alone: a ``Fixture`` is catalogue data, whose
``note`` is written for the reader and whose ``laurent`` flag only the
benchmark's corpus filter and the tests read, not the package.
No check sees a field that is read but always equals another one, as a
``predicted_unresolved`` that repeated ``mero_unresolved`` did.
"""

import ast
import contextlib
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from polartree import FIXTURES, analyze_pair, render_run, run_document
from polartree.cli import run as cli_run

from test_cli_golden import GOLDEN

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "polartree"
SEARCHED = ("src", "perfbench")
BY_CLASS = ("exactalg", "puiseux", "npsolve", "treemodel", "baranalysis",
            "jacoracle", "factorrep", "parsing", "pipeline")


def _modules(paths) -> list[ast.Module]:
    return [ast.parse(path.read_text(), str(path)) for path in paths]


def _package() -> list[ast.Module]:
    return _modules(sorted(PACKAGE.glob("*.py")))


def _searched() -> list[ast.Module]:
    return _modules(path for top in SEARCHED for path in sorted((ROOT / top).rglob("*.py"))
                    if path != PACKAGE / "__init__.py")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _references(trees) -> tuple[Counter, Counter, Counter]:
    """(names, attributes, loads): every name a Name, an Attribute or an
    import uses, every name an Attribute uses, and every name an Attribute
    load uses."""
    names: Counter = Counter()
    attributes: Counter = Counter()
    loads: Counter = Counter()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names[node.id] += 1
            elif isinstance(node, ast.Attribute):
                names[node.attr] += 1
                attributes[node.attr] += 1
                if isinstance(node.ctx, ast.Load):
                    loads[node.attr] += 1
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    names[alias.name.rsplit(".", 1)[-1]] += 1
    return names, attributes, loads


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        if isinstance(dec, ast.Call):
            dec = dec.func
        if isinstance(dec, ast.Name) and dec.id == "dataclass":
            return True
    return False


def _stored_attributes(trees) -> set[tuple[str, str]]:
    """(class, attribute) for every dataclass field, ``__slots__`` entry
    and ``self.x = ...`` target in a method."""
    out = set()
    for tree in trees:
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if (_is_dataclass(cls) and isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)):
                    out.add((cls.name, stmt.target.id))
                elif (isinstance(stmt, ast.Assign)
                      and any(isinstance(t, ast.Name) and t.id == "__slots__"
                              for t in stmt.targets)):
                    out.update((cls.name, elt.value) for elt in ast.walk(stmt.value)
                               if isinstance(elt, ast.Constant) and isinstance(elt.value, str))
                elif isinstance(stmt, ast.FunctionDef):
                    for node in ast.walk(stmt):
                        targets = (node.targets if isinstance(node, ast.Assign) else
                                   [node.target] if isinstance(node, ast.AnnAssign) else [])
                        out.update((cls.name, t.attr) for t in targets
                                   if isinstance(t, ast.Attribute)
                                   and isinstance(t.value, ast.Name) and t.value.id == "self")
    return out


def _definitions(trees) -> tuple[set[str], set[str]]:
    """(functions and classes, methods) defined, dunders left out."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    methods = {
        stmt.name for tree in trees for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for stmt in cls.body if isinstance(stmt, defs[:2])
    }
    others = {
        node.name for tree in trees for node in ast.walk(tree) if isinstance(node, defs)
    } - methods
    return ({n for n in others if not _is_dunder(n)},
            {n for n in methods if not _is_dunder(n)})


def test_every_defined_name_is_referenced():
    names, attributes, _loads = _references(_searched())
    others, methods = _definitions(_package())
    unused = sorted([n for n in others if not names[n]] + [n for n in methods if not attributes[n]])
    assert unused == [], f"defined but never referenced: {unused}"


def test_every_stored_attribute_is_read():
    _names, _attributes, loads = _references(_searched())
    unread = sorted(f"{cls}.{attr}" for cls, attr in _stored_attributes(_package())
                    if not _is_dunder(attr) and not loads[attr])
    assert unread == [], f"stored but never read: {unread}"


# -- reads by class ------------------------------------------------------------


def _classes() -> list[type]:
    """Every non-exception class that a ``BY_CLASS`` module defines."""
    out = []
    for name in BY_CLASS:
        module = importlib.import_module(f"polartree.{name}")
        out += [obj for obj in vars(module).values()
                if isinstance(obj, type) and obj.__module__ == module.__name__
                and not issubclass(obj, BaseException)]
    return out


def _stored_by_class() -> list[tuple[type, str]]:
    """(class, attribute) for every stored attribute of a ``BY_CLASS`` class."""
    out = []
    for name in BY_CLASS:
        module = importlib.import_module(f"polartree.{name}")
        trees = _modules([PACKAGE / f"{name}.py"])
        out += [(getattr(module, cls), attr) for cls, attr in _stored_attributes(trees)
                if not _is_dunder(attr)]
    return out


def _workload_pairs() -> list[tuple[str, str]]:
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    sets = workloads.corpus_set(FIXTURES) + workloads.pool_set("ramified", 1, FIXTURES)
    return [(f, g) for _id, f, g in sets]


def _recorded_reads(classes, work) -> set[tuple[type, str]]:
    """(type of the instance, attribute) for every attribute that a function
    in ``src/polartree/`` other than ``__repr__`` reads while ``work()`` runs."""
    reads: set[tuple[type, str]] = set()
    package = str(PACKAGE)

    def recorder(original):
        def __getattribute__(self, name):
            key = (type(self), name)
            if key not in reads:
                code = sys._getframe(1).f_code
                if code.co_filename.startswith(package) and code.co_name != "__repr__":
                    reads.add(key)
            return original(self, name)
        return __getattribute__

    patched = []
    try:
        for cls in classes:
            patched.append((cls, cls.__dict__.get("__getattribute__")))
            cls.__getattribute__ = recorder(cls.__getattribute__)
        work()
    finally:
        for cls, original in reversed(patched):
            if original is None:
                del cls.__getattribute__
            else:
                cls.__getattribute__ = original
    return reads


def _run_programs() -> None:
    for f, g in _workload_pairs():
        run = analyze_pair(f, g)
        run_document(run)
        render_run(run)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv, code, _digest in GOLDEN:
            assert cli_run(argv.split()) == code, argv


def _unread_by_class() -> list[str]:
    reads = _recorded_reads(_classes(), _run_programs)
    return sorted(f"{cls.__name__}.{attr}" for cls, attr in _stored_by_class()
                  if not any(name == attr and issubclass(t, cls) for t, name in reads))


def test_every_stored_attribute_is_read_on_its_class():
    # a fresh interpreter: a field or a cache that an earlier test built
    # would hide the reads made while building it
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    unread = json.loads(done.stdout.splitlines()[-1])
    assert unread == [], f"stored but never read on its class: {unread}"


if __name__ == "__main__":
    print(json.dumps(_unread_by_class()))
