"""Every name a library module imports is used in that module, every
module-level private helper is used somewhere in the package, only
`qt.py` reads the Kronecker layout, only `weights.py` raises
`NotAPartition`, and the classical oracles in `symfunc.py` import no
operator code.

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


def layout_reads(source):
    """Line numbers where source reads an attribute named B or Q: the
    Kronecker codec's digit width and q-span."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in ("B", "Q")
    )


def test_the_scan_sees_a_layout_read():
    source = "def w(v, codec):\n    B = 64\n    return v << codec.B * (1 + codec.Q)\n"
    assert layout_reads(source) == [3, 3]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "qt.py"], ids=lambda p: p.name)
def test_only_qt_reads_the_kronecker_layout(path):
    # packed words shift and bound their digits through Kronecker.times,
    # one_minus_t and holds
    assert layout_reads(path.read_text()) == [], f"{path.name} reads Kronecker.B or .Q"


def raises_of(source, error):
    """Line numbers where source raises the exception class named error,
    called or bare, by name or as an attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", None) == error or getattr(exc, "attr", None) == error:
                lines.append(node.lineno)
    return sorted(lines)


def test_the_scan_sees_a_raise():
    source = (
        "def f(lam):\n    raise NotAPartition(f'{lam}')\n"
        "def g():\n    raise errors.NotAPartition\n"
        "def h():\n    raise NotInSpan('x')\n    raise\n"
    )
    assert raises_of(source, "NotAPartition") == [2, 4]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "weights.py"], ids=lambda p: p.name)
def test_only_weights_raises_not_a_partition(path):
    # the partition precondition has one owner, weights._require_partition
    assert raises_of(path.read_text(), "NotAPartition") == [], f"{path.name} raises NotAPartition"


def package_imports(source):
    """The kostka_forge modules that source imports from, by bare name:
    `from .x import f`, `from . import x`, `import kostka_forge.x` and
    `from kostka_forge.x import f` all give x."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level and not module:
                out.update(alias.name for alias in node.names)
            elif node.level or module.startswith("kostka_forge."):
                out.add(module.split(".")[-1])
            elif module == "kostka_forge":
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names if a.name.startswith("kostka_forge."))
    return out


def test_the_scan_sees_each_form_of_import():
    source = (
        "import math\nfrom fractions import Fraction\nfrom .qt import ExactScalar\n"
        "from . import hecke, jack as j\nimport kostka_forge.verify\n"
        "from kostka_forge.macdonald import t_monomial\nfrom kostka_forge import zpoly\n"
        "def f():\n    from .weights import pad\n"
    )
    assert package_imports(source) == {"qt", "hecke", "jack", "verify", "macdonald", "zpoly", "weights"}


def test_classical_oracles_import_no_operator_code():
    # symfunc cross-checks the Hecke machinery, so it shares none of it
    assert package_imports(SOURCES["symfunc.py"]) & {"hecke", "macdonald", "jack", "verify"} == set()
