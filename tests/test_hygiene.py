"""Source hygiene: every name the package defines is used by a program path.

No linter ships with the project, so this check uses only ``ast`` and
``re``.  Each function, method and class defined under ``src/polartree/``
must appear by name at least once beyond its own definitions, somewhere in
``src/`` or in ``perfbench/``.  A re-export from ``__init__.py`` does not
count, and neither does a reference from ``tests/``: code that only tests
call belongs in ``tests/kernel_references.py``.  Dunder methods are exempt,
because the interpreter calls them by protocol.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "polartree"
SEARCHED = ("src", "perfbench")


def _definitions() -> Counter:
    """How many times each non-dunder name is defined in the package."""
    out: Counter = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    out[name] += 1
    return out


def _word_counts() -> Counter:
    out: Counter = Counter()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path != PACKAGE / "__init__.py":
                out.update(re.findall(r"\w+", path.read_text()))
    return out


def test_every_defined_name_is_referenced():
    words = _word_counts()
    unused = sorted(
        name for name, defs in _definitions().items() if words[name] <= defs
    )
    assert unused == [], f"defined but never referenced: {unused}"
