"""The names that ``perfbench/tracer.py`` wraps still exist in the package, and are still called.

The tracer patches planegaze from outside, by name: a renamed function, a
report writer that ``cli`` no longer binds, or a solver that takes its
arguments differently would break a traced benchmark run while every other
test passes. So would a refactor that stops calling a function whose span
the benchmark's catalogue (``perfbench/layers.py``) requires of a workload.
These tests read the tracer's tables with ``ast``, or load the tracer and
catalogue as they are, and change nothing under ``perfbench/``.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from planegaze import cli

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
    """The tracer's stand-in takes the model and x0 by position and ``plus``, the retraction it
    counts, by keyword: the solver and every call of it in the package must fit that shape,
    and every call passes ``plus``, which the solver requires."""
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


def perfbench_module(name: str):
    """``perfbench/<name>.py`` loaded under its own module name, off ``sys.path``."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_inputs(tmp_path_factory):
    """A small noisy dataset, written before any tracer is installed."""
    data = tmp_path_factory.mktemp("bench") / "data"
    argv = ["synth", "--out", data, "--frames", 12, "--calib-views", 5, "--seed", 17,
            "--corner-noise", 0.2, "--gaze-noise", 10]
    assert cli.main(list(map(str, argv))) == 0
    return data


def tiny_commands(workload: str, data: Path, out: Path) -> list[list]:
    """In-process stand-ins for one step of each benchmark workload, on small inputs."""
    if workload == "eval-shared-faces":
        return [["evaluate", "--manifest", data / "manifest.json", "--out", out / "report"]]
    if workload == "calib-rig":
        return [
            ["calibrate", "--corners", data / "corners.csv", "--grid", data / "grid.json",
             "--image-size", "1280x720", "--out", out / "estimate"],
            ["plane-pose", "--corners", data / "plane_corners.csv", "--grid", data / "grid.json",
             "--intrinsics", out / "estimate" / "intrinsics_left.json", "--out", out / "estimate" / "plane.json"],
        ]
    return [["synth", "--out", out / "synth", "--frames", 6, "--calib-views", 2, "--seed", 3, "--corner-noise", 0.2,
             "--face-noise", 1.0, "--gaze-noise", 10, "--gaze-bias", 2.0, -1.0]]


@pytest.mark.parametrize("workload", ["eval-shared-faces", "calib-rig", "synth-write"])
def test_traced_workload_enters_every_catalogued_span(workload, bench_inputs, tmp_path):
    """Every span whose ``.s``, ``.self_s`` or ``.calls`` metric the catalogue requires of a
    workload is entered by a small run of that workload's commands, and the benchmark's own
    coverage check finds nothing missing."""
    layers = perfbench_module("layers")
    tracer = perfbench_module("tracer").Tracer()
    tracer.install()
    try:
        for argv in tiny_commands(workload, bench_inputs, tmp_path):
            tracer.begin_command()
            assert cli.main(["--threads", "1", *map(str, argv)]) == 0
    finally:
        tracer.uninstall()
    table = tracer.span_table()
    required = {name.rpartition(".")[0] for name, _, _, needed in layers.CATALOGUE
                if workload in needed and name.rpartition(".")[2] in ("s", "self_s", "calls")}
    assert sorted(span for span in required if table.get(span, {}).get("calls", 0) == 0) == []
    assert layers.uncovered(workload, layers.layer_values(tracer, table, 0.0)) == []
