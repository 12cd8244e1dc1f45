"""No planegaze module imports another module's private (``_``-prefixed) names.

A private helper that two modules need is promoted to a public name in one
of them, so each module's ``_`` names can change without reading the rest
of the package.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "planegaze"


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
