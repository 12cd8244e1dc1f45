"""The names that ``perfbench/tracer.py`` wraps still exist in the package.

The tracer patches planegaze from outside, by name: a renamed function, a
report writer that ``cli`` no longer binds, or a solver that takes its
arguments differently would break a traced benchmark run while every other
test passes. This test reads the tracer's tables with ``ast`` and changes
nothing under ``perfbench/``.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
PACKAGE = ROOT / "src" / "planegaze"


def tracer_constant(name: str):
    """The literal value the tracer module assigns to ``name``."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} assigns no {name}")


@pytest.mark.parametrize("module, function", tracer_constant("WRAPPED"))
def test_wrapped_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"planegaze.{module}"), function, None))


@pytest.mark.parametrize("name", tracer_constant("REPORT_WRITERS"))
def test_cli_binds_report_writer(name):
    assert callable(getattr(importlib.import_module("planegaze.cli"), name, None))


def test_solver_takes_model_positionally_and_plus_by_keyword():
    """The tracer's stand-in is ``solve(model, x0, *, plus=None, **kwargs)``: the solver and
    every call of it in the package must fit that shape."""
    from planegaze.optimize import levenberg_marquardt

    P = inspect.Parameter
    params = inspect.signature(levenberg_marquardt).parameters
    assert [p.kind in (P.POSITIONAL_ONLY, P.POSITIONAL_OR_KEYWORD) for p in list(params.values())[:2]] == [True, True]
    assert params["plus"].kind in (P.KEYWORD_ONLY, P.POSITIONAL_OR_KEYWORD)

    calls = [
        (path.name, node)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "levenberg_marquardt"
    ]
    assert calls
    for where, call in calls:
        assert len(call.args) == 2 and not any(isinstance(a, ast.Starred) for a in call.args), where
        assert "plus" in [k.arg for k in call.keywords], where
