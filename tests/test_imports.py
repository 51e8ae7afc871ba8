"""Every name a library module imports is used in that module, and every
module-level private helper is used somewhere in the package.

`__init__.py` is exempt from the import scan: its imports are the
package's re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kostka_forge"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_scan_sees_an_unused_import():
    source = "import os\nfrom .qt import ExactScalar, QTPolynomial as P\nx = P\n"
    assert unused_imports(source) == [(1, "os"), (2, "ExactScalar")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == [], f"unused imports in {path.name}"


def dead_private_helpers(sources):
    """(module, name) for each module-level `def _name` in sources (module
    name -> text) that no other top-level statement of any module refers
    to by Name, Attribute or import alias."""
    statements, helpers = [], []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.update((node.name, node.asname))
            statements.append((stmt, names))
            if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("_"):
                if not stmt.name.startswith("__"):
                    helpers.append((module, stmt))
    return sorted(
        (module, helper.name)
        for module, helper in helpers
        if not any(helper.name in names for stmt, names in statements if stmt is not helper)
    )


def test_the_scan_sees_a_dead_helper():
    sources = {
        "a.py": "def _used(): pass\ndef _by_attribute(): pass\ndef _imported(): pass\n"
        "def _dead(): pass\ndef _recursive(): return _recursive()\ndef __getattr__(n): pass\n"
        "x = _used\n",
        "b.py": "from .a import _imported\nfrom . import a\ny = a._by_attribute\n",
    }
    assert dead_private_helpers(sources) == [("a.py", "_dead"), ("a.py", "_recursive")]


def test_no_dead_private_helpers():
    assert dead_private_helpers(SOURCES) == []
