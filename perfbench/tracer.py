"""Span tracer for the planegaze benchmark.

Wraps public functions of the ``planegaze`` modules from outside the
package: every module-level name bound to a wrapped function is replaced,
so a caller that imported the name directly (``from .formats import
read_faces``) also goes through the wrapper. One span is kept per wrapped
call (name, start, end, parent span, CLI command id) in flat arrays; counts
are recorded at the same boundaries. Nothing here changes what a wrapped
function computes.
"""

from __future__ import annotations

import array
import importlib
import json
import os
import pkgutil
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

# (module, function) pairs wrapped under the span name "<module>.<function>";
# the CLI command handlers are renamed to "cli.<subcommand>".
WRAPPED = (
    ("cli", "main"),
    ("cli", "cmd_evaluate"),
    ("cli", "cmd_calibrate"),
    ("cli", "cmd_plane_pose"),
    ("cli", "cmd_synth"),
    ("evaluation", "evaluate_manifest"),
    ("evaluation", "evaluate_method"),
    ("triangulation", "head_point"),
    ("triangulation", "triangulate_midpoint"),
    ("camera", "undistort_pixels"),
    ("camera", "project_points"),
    ("pipeline", "correct_gaze_to_camera_frame"),
    ("pipeline", "gaze_point_on_surface"),
    ("pipeline", "ground_truth_direction"),
    ("metrics", "evaluate_frame"),
    ("metrics", "summarize"),
    ("metrics", "error_cdf"),
    ("metrics", "yaw_pitch_histogram"),
    ("geometry", "require_rotation"),
    ("geometry", "rotation_from_axis_angle"),
    ("formats", "read_manifest"),
    ("formats", "read_faces"),
    ("formats", "read_predictions"),
    ("formats", "read_corners"),
    ("formats", "read_plane_corners"),
    ("formats", "read_grid_config"),
    ("formats", "read_intrinsics"),
    ("formats", "read_stereo"),
    ("formats", "read_plane_pose"),
    ("formats", "sha256_file"),
    ("formats", "write_dataset"),
    ("synthetic", "generate_scene"),
    ("synthetic", "perturb"),
    ("calibration", "calibrate_camera"),
    ("calibration", "refine_calibration"),
    ("calibration", "calibrate_stereo"),
    ("calibration", "estimate_homography"),
    ("optimize", "levenberg_marquardt"),
    ("plane", "estimate_plane_pose"),
)

# Readers whose first argument is a path; its size is added to bytes_read.
READERS = frozenset(
    f"formats.{fn}" for mod, fn in WRAPPED if mod == "formats" and fn != "write_dataset"
)

# The four files of an evaluate report bundle, wrapped only where cli.py
# looks them up (write_json is also used by other formats writers).
REPORT_WRITERS = ("write_summary_csv", "write_cdf_csv", "write_hist_csv", "write_json")


def span_name(module: str, function: str) -> str:
    return f"{module}.{function.removeprefix('cmd_')}"


def tree_bytes(path: Path) -> int:
    path = Path(path)
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_idx: dict[str, int] = {}
        self.parent = array.array("q")
        self.command = array.array("q")
        self.name = array.array("l")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counts: Counter = Counter()
        self.lm_calls: list[tuple[int, int, int]] = []  # (parameters, residual evals, iterations)
        self.command_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def begin_command(self) -> None:
        self.command_id += 1

    def _index(self, name: str) -> int:
        if name not in self._name_idx:
            self._name_idx[name] = len(self.names)
            self.names.append(name)
        return self._name_idx[name]

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` recording one span per call; ``after(args, result)`` adds counts."""
        idx = self._index(name)
        stack, parent, command, names, start, end = (
            self._stack, self.parent, self.command, self.name, self.start, self.end
        )
        counts = self.counts
        failed_key = name + ".failed"

        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1] if stack else -1)
            command.append(self.command_id)
            names.append(idx)
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[sid] = perf_counter()
                stack.pop()
                counts[failed_key] += 1
                raise
            end[sid] = perf_counter()
            stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # --- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target on each planegaze module name that is bound to it."""
        import planegaze

        for info in pkgutil.iter_modules(planegaze.__path__):
            importlib.import_module(f"planegaze.{info.name}")
        modules = [m for k, m in sys.modules.items() if k == "planegaze" or k.startswith("planegaze.")]

        for mod_name, fn_name in WRAPPED:
            original = getattr(sys.modules[f"planegaze.{mod_name}"], fn_name)
            name = span_name(mod_name, fn_name)
            wrapper = self._make_wrapper(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

        cli = sys.modules["planegaze.cli"]
        for fn_name in REPORT_WRITERS:
            self._patch(cli, fn_name, self.wrap("formats.report_write", getattr(cli, fn_name)))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _patch(self, mod, attr, wrapper) -> None:
        self._patched.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, wrapper)

    def _make_wrapper(self, name: str, original):
        counts = self.counts
        if name == "optimize.levenberg_marquardt":
            return self._wrap_lm(original)
        if name.startswith("cli.") and name != "cli.main":
            def after(args, result):
                counts["formats.bytes_written"] += tree_bytes(args[0].out)
        elif name in READERS:
            def after(args, result):
                counts["formats.bytes_read"] += os.path.getsize(args[0])
        elif name == "camera.undistort_pixels":
            def after(args, result):
                counts["camera.undistort_pixels.points"] += result.size // 2
        elif name == "camera.project_points":
            def after(args, result):
                counts["camera.project_points.points"] += result.size // 2
        elif name == "evaluation.evaluate_manifest":
            def after(args, result):
                counts["evaluation.frames"] += len(args[0].frames)
        elif name == "evaluation.evaluate_method":
            def after(args, result):
                counts["evaluation.frames_attempted"] += len(args[0].frames)
                counts["evaluation.frames_skipped"] += len(result.skipped)
        else:
            after = None
        return self.wrap(name, original, after)

    def _wrap_lm(self, original):
        """LM solver span; the residual and retraction callables get spans of their own."""
        self._index("optimize.residual")
        self._index("optimize.retraction")
        counts = self.counts

        def count_eval(args, result):
            counts["optimize.residual_evals"] += 1

        def solve(residual, x0, *, plus=None, **kwargs):
            before = counts["optimize.residual_evals"]
            residual = self.wrap("optimize.residual", residual, count_eval)
            if plus is not None:
                plus = self.wrap("optimize.retraction", plus)
            try:
                result = original(residual, x0, plus=plus, **kwargs)
            except Exception as exc:
                best = getattr(exc, "best", None)
                if best is not None:
                    self._record_lm(len(x0), before, best.iterations)
                raise
            self._record_lm(len(x0), before, result.iterations)
            return result

        return self.wrap("optimize.levenberg_marquardt", solve)

    def _record_lm(self, n_params: int, evals_before: int, iterations: int) -> None:
        self.counts["optimize.lm_iterations"] += iterations
        evals = self.counts["optimize.residual_evals"] - evals_before
        self.lm_calls.append((int(n_params), evals, int(iterations)))

    # --- reduction ---------------------------------------------------------

    def span_table(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds."""
        n = len(self.start)
        child = [0.0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        table = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for sid in range(n):
            row = table[self.names[self.name[sid]]]
            dur = self.end[sid] - self.start[sid]
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - child[sid]
        return table

    def write(self, path: Path, extra: dict) -> None:
        """Write every span, the counts and the LM calls as one JSON file."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            **extra,
            "span_fields": ["id", "parent", "command", "name", "start_s", "end_s"],
            "names": self.names,
            "spans": [
                [sid, self.parent[sid], self.command[sid], self.name[sid], self.start[sid], self.end[sid]]
                for sid in range(len(self.start))
            ],
            "counts": dict(self.counts),
            "lm_calls": self.lm_calls,
        }
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")
        os.replace(tmp, path)
