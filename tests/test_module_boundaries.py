"""Boundaries between planegaze modules, checked on their source text.

No planegaze module imports another module's private (``_``-prefixed)
names: a private helper that two modules need is promoted to a public name
in one of them, so each module's ``_`` names can change without reading the
rest of the package.

No error class is dead: each leaf class in ``errors.py`` is named by the
package outside ``errors.py`` and by a test.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "planegaze"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_imports(source: str, module: str) -> list[str]:
    """``module.name`` for each private name ``module`` takes from another planegaze module."""
    found, aliases = [], {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            package = node.level > 0 or (node.module or "").split(".")[0] == "planegaze"
            if not package:
                continue
            source_module = (node.module or "").split(".")[-1]
            for alias in node.names:
                if source_module in ("", "planegaze"):  # from . import camera: a module, reached by attribute
                    aliases[alias.asname or alias.name] = alias.name
                elif source_module != module and _private(alias.name):
                    found.append(f"{source_module}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("planegaze.") and alias.asname:
                    aliases[alias.asname] = alias.name.split(".")[-1]
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases
                and aliases[node.value.id] != module and _private(node.attr)):
            found.append(f"{aliases[node.value.id]}.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_private_names_cross_modules(path):
    assert private_imports(path.read_text(encoding="utf-8"), path.stem) == []


@pytest.mark.parametrize("source, expected", [
    ("from .calibration import _project_param", ["calibration._project_param"]),
    ("from planegaze.camera import project_points, _pixels as px", ["camera._pixels"]),
    ("from . import optimize\noptimize._view_slots(1)", ["optimize._view_slots"]),
    ("import planegaze.grid as g\ng._x", ["grid._x"]),
    ("from .plane import _helper", []),  # a module's own names
    ("from .geometry import unit, __doc__\nfrom numpy import _core", []),
])
def test_private_imports_are_found(source, expected):
    assert private_imports(source, "plane") == expected


def leaf_classes(source: str) -> list[str]:
    """The classes ``source`` defines at top level that no class there derives from."""
    classes = [node for node in ast.parse(source).body if isinstance(node, ast.ClassDef)]
    bases = {base.id for node in classes for base in node.bases if isinstance(base, ast.Name)}
    return [node.name for node in classes if node.name not in bases]


def names_in(source: str) -> set[str]:
    """Identifiers ``source`` uses, imports or reaches by attribute, and its whole-string constants.

    A string counts because the batch stages report a failure by its error
    class's name (``"NotInvertibleError"``) instead of raising it.
    """
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def names_in_files(paths) -> set[str]:
    return set().union(*(names_in(path.read_text(encoding="utf-8")) for path in paths))


@pytest.mark.parametrize("name", leaf_classes((PACKAGE / "errors.py").read_text(encoding="utf-8")))
def test_every_leaf_error_is_used_and_tested(name):
    assert name in names_in_files(p for p in PACKAGE.glob("*.py") if p.name != "errors.py"), "no module names it"
    assert name in names_in_files(TESTS.glob("*.py")), "no test names it"


def test_leaf_classes_and_names_are_found():
    source = "class A(Exception): pass\nclass B(A): pass\nclass C(A): pass\nclass D(B): pass\n"
    assert leaf_classes(source) == ["C", "D"]
    names = names_in('"""Raises G in prose."""\nfrom .errors import C as c\nerrors.D\nx = "E"\ny = "F or G"')
    assert {"C", "D", "E", "errors", "x"} <= names and not {"F", "G", "c"} & names
