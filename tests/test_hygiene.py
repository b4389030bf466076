"""Source hygiene: every name and every stored attribute the package
defines is used by a program path.

No linter ships with the project, so this check reads the syntax trees
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

Both checks go by name alone, so they cannot see everything.  A field
hides behind any attribute of the same name that is read: a write-only
``Expansion.target`` would pass, because ``_Expander.target`` is read.  Nor
can they see a field that is read but always equals another one, as a
``predicted_unresolved`` that repeated ``mero_unresolved`` did.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "polartree"
SEARCHED = ("src", "perfbench")


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
