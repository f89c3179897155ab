"""Every public name in the package has a caller outside the tests.

A public top-level function or class of ``src/treecrf``, or a public
method or property of any of its classes, must be named somewhere other
than its own definition: in the package, in ``perfbench/`` or in
``README.md``.  Names are matched by identifier (a name, an attribute, a
word of a string constant or of the README), so a method counts as used
when anything of the same name is; re-exports in ``__init__.py`` and
docstrings do not count as a use.  Code that only tests reach is deleted,
not kept public.

A private top-level function, class or constant (one leading underscore)
must likewise be named in the package or in ``perfbench/`` outside its own
definition, so that a refactor leaves no orphan helper behind.

No module of the package imports a test library: a test breaks the code
it checks from the outside.
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


def _private_definitions():
    """``(path, node, name)`` of every private top-level function, class or
    constant (a name bound by a top-level assignment)."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                bound = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [
                    name.id
                    for target in bound
                    for name in ast.walk(target)
                    if isinstance(name, ast.Name)
                ]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    yield path, node, name


def _identifiers_of_the_code():
    """:func:`_identifiers` of every file of the package and of ``perfbench/``."""
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return {path: _identifiers(path) for path in files}


def _named_elsewhere(name, path, node, code):
    """Whether ``name`` is used in the code outside the lines of ``node``."""
    own = range(node.lineno, node.end_lineno + 1)
    return any(
        name in (_identifiers(f, own) if f == path else used)
        for f, used in code.items()
    )


def test_every_public_name_has_a_caller_outside_the_tests():
    code = _identifiers_of_the_code()
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    unused = [
        qualified
        for path, node, qualified in _public_definitions()
        if qualified not in ALLOWED
        and node.name not in readme
        and not _named_elsewhere(node.name, path, node, code)
    ]
    assert unused == [], f"public but called only by tests: {unused}"


def test_the_allowed_exceptions_exist():
    defined = {qualified for _, _, qualified in _public_definitions()}
    assert ALLOWED <= defined


def test_every_private_name_is_used_in_the_package():
    code = _identifiers_of_the_code()
    definitions = list(_private_definitions())
    assert definitions
    unused = [
        f"{path.stem}.{name}"
        for path, node, name in definitions
        if not _named_elsewhere(name, path, node, code)
    ]
    assert unused == [], f"private but named only by its own definition: {unused}"


def test_no_module_imports_a_test_library():
    test_libraries = {"unittest", "pytest", "hypothesis"}
    imports = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            imports += [
                f"{path.stem}: {name}"
                for name in names
                if name.partition(".")[0] in test_libraries
            ]
    assert imports == [], f"test libraries imported by the package: {imports}"
