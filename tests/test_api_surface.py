"""Every public name in the package has a caller outside the tests.

A public top-level function or class of ``src/treecrf``, or a public
method or property of any of its classes, must be named somewhere other
than its own definition: in the package, in ``perfbench/`` or in
``README.md``.  Names are matched by identifier (a name, an attribute, a
word of a string constant or of the README), so a method counts as used
when anything of the same name is; re-exports in ``__init__.py`` and
docstrings do not count as a use.  Code that only tests reach is deleted,
not kept public.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "treecrf"

# Brute-force references that tests compare the package against.
ALLOWED = {"oracle.enumerate_full_trees", "oracle.is_compatible"}


def _public_definitions():
    """``(path, node, "module.qualified_name")`` of every public definition."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield path, node, f"{path.stem}.{node.name}"
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield path, item, f"{path.stem}.{node.name}.{item.name}"


def _identifiers(path, skip=range(0)):
    """Identifiers a Python file uses, leaving out the lines in ``skip`` and
    docstrings (a string that is a statement of its own)."""
    used = set()
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    }
    for node in ast.walk(tree):
        if getattr(node, "lineno", None) in skip or id(node) in docstrings:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias) and path.name != "__init__.py":
            used.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(re.findall(r"\w+", node.value))
    return used


def test_every_public_name_has_a_caller_outside_the_tests():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    elsewhere = {path: _identifiers(path) for path in files}
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    unused = []
    for path, node, qualified in _public_definitions():
        if qualified in ALLOWED:
            continue
        own = range(node.lineno, node.end_lineno + 1)
        if node.name in readme or any(
            node.name in (_identifiers(f, own) if f == path else used)
            for f, used in elsewhere.items()
        ):
            continue
        unused.append(qualified)
    assert unused == [], f"public but called only by tests: {unused}"


def test_the_allowed_exceptions_exist():
    defined = {qualified for _, _, qualified in _public_definitions()}
    assert ALLOWED <= defined
