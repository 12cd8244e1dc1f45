"""One benchmark workload in its own process: prepare its inputs, or run it.

``run.py`` starts this script twice per benchmark run, with BLAS and OpenMP
pinned in the environment: once with ``--phase prep`` to write the inputs
under ``--dir``, then with ``--phase run`` to drive the planegaze CLI over
them in a closed loop with one client (each command starts after the
previous one returns), every command with ``--threads 1``. The number of
steps is fixed by ``--seconds`` and the workload's nominal step time, so a
seed always gets the same work and the same failures. Between steps the run
phase times fresh interpreters importing planegaze (``setup_s``). It prints
one JSON line with its samples, correctness verdict and, for ``--trace 1``,
the per-layer metrics of one traced round.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import planegaze  # noqa: E402
from planegaze import cli  # noqa: E402

from layers import CALIB, EVAL, SYNTH, layer_values, uncovered  # noqa: E402
from probe import at_reference_speed, probe  # noqa: E402
from tracer import Tracer  # noqa: E402

FOLDED_NORMAL_MEAN_DEG = 10.0 * math.sqrt(2.0 / math.pi)  # mean |N(0, 10 deg)|
SETUP_SPAWNS = 9  # fresh-interpreter set-ups per untraced run, spread over its steps
CAP_FACTOR = 1.6  # a run on a host this much slower than nominal stops early
# prints the set-up's wall time and the mean of the host probes around it
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, {here!r}); from probe import probe; p = probe(); "
    "t = time.perf_counter(); import planegaze.cli; planegaze.cli.build_parser(); "
    "t = time.perf_counter() - t; print(t, (p + probe()) / 2)"
).format(here=str(Path(__file__).resolve().parent))


class Sample(NamedTuple):
    seconds: float  # wall time of the CLI command(s) of one step
    ops: int
    failed: int
    probe_s: float = 0.0  # mean of the host probes just before and after the step


class Workload:
    """Inputs live under ``work``; ``step(i)`` runs and checks one unit of work.

    ``nominal_step_s`` is one step's wall time on the 2-vCPU VM the
    benchmark was written on, in its slow state; it sizes a run, so the work
    (and every count) is fixed by the seed and --seconds.
    """

    nominal_step_s = 1.0
    trace_steps = 1  # steps in one traced (and one overhead-baseline) round

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.tracer: Tracer | None = None
        self.verified = 0  # command outputs checked
        self.wrong = 0  # of those, outputs that failed the check

    def cli(self, *argv) -> tuple[float, int]:
        """Run one planegaze command in process; returns (wall seconds, exit code)."""
        argv = ["--threads", "1", *map(str, argv)]
        if self.tracer is not None:
            self.tracer.begin_command()
        out = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = -1
        seconds = perf_counter() - start
        if code != 0:
            print(f"planegaze {' '.join(argv)} exited {code}\n{out.getvalue()}", file=sys.stderr)
        return seconds, code

    def prep_cli(self, *argv) -> None:
        _, code = self.cli(*argv)
        if code != 0:
            raise SystemExit(f"input generation failed: planegaze {' '.join(map(str, argv))}")

    def prep(self) -> None:
        pass

    def step(self, i: int) -> Sample:
        raise NotImplementedError

    def steps_for(self, seconds: float) -> int:
        """Steps that take about ``seconds`` nominally."""
        return max(1, round(seconds / self.nominal_step_s))

    def run_check(self) -> bool:
        """Were the outputs produced correct? If not, every attempted op counts as failed.

        A command that exits non-zero fails its own ops but leaves nothing to check.
        """
        return self.verified > 0 and self.wrong == 0


class EvalSharedFaces(Workload):
    name = EVAL
    frames = 1000
    nominal_step_s = 2.4
    # both conventions x both head sources, all four sharing one faces.csv
    methods = (
        ("offset-eyes", "camera_offset", "eye_midpoint"),
        ("offset-bbox", "camera_offset", "bbox_center"),
        ("absolute-eyes", "absolute", "eye_midpoint"),
        ("absolute-bbox", "absolute", "bbox_center"),
    )

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.data = work / "data"
        self.report = work / "report"

    def prep(self):
        scene = self.work / "scene.json"
        scene.write_text(json.dumps({
            "schema": "planegaze-scene-v1",
            "methods": [
                {"name": n, "convention": c, "head_source": h} for n, c, h in self.methods
            ],
        }), encoding="utf-8")
        self.prep_cli(
            "synth", "--out", self.data, "--frames", self.frames, "--calib-views", 4,
            "--seed", self.seed, "--gaze-noise", 10, "--scene", scene,
        )

    def step(self, i):
        seconds, code = self.cli(
            "evaluate", "--manifest", self.data / "manifest.json", "--out", self.report
        )
        ops = self.frames * len(self.methods)
        if code != 0:
            return Sample(seconds, ops, ops)
        return Sample(seconds, ops, self.failed_frames())

    def failed_frames(self) -> int:
        """Acceptance criterion 5 per method: skipped frames fail, a failed method fails whole."""
        lines = (self.report / "summary.csv").read_text(encoding="utf-8").splitlines()
        rows = list(csv.DictReader(line for line in lines if line and not line.startswith("#")))
        overall = {r["method"]: r for r in rows if r["tag_filter"] == ""}
        failed = 0
        for name, _, _ in self.methods:
            row = overall.get(name)
            if row is None:
                failed += self.frames
                self.wrong += 1
                continue
            mean = float(row["mean_angular_deg"])
            median = float(row["median_distance_cm"])
            ok = (
                abs(mean - FOLDED_NORMAL_MEAN_DEG) / FOLDED_NORMAL_MEAN_DEG < 0.10
                and 8.0 <= median <= 30.0
                and int(row["n_frames"]) + int(row["n_skipped"]) == self.frames
            )
            failed += int(row["n_skipped"]) if ok else self.frames
            self.wrong += not ok
        self.verified += 1
        return failed


class CalibRig(Workload):
    name = CALIB
    rigs = 24  # distinct seeded rigs, one per step (cycled if a run has more steps)
    nominal_step_s = 1.4
    trace_steps = 3

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.errors = []  # per step: relative errors of fx, fy (left) and baseline

    def rig_dir(self, k: int) -> Path:
        return self.work / f"rig{k:02d}"

    def prep(self):
        for k in range(self.rigs):
            self.prep_cli(
                "synth", "--out", self.rig_dir(k), "--frames", 0, "--calib-views", 15,
                "--corner-noise", 0.2, "--seed", self.seed * self.rigs + k,
            )

    def step(self, i):
        rig = self.rig_dir(i % self.rigs)
        est = rig / "estimate"
        shutil.rmtree(est, ignore_errors=True)
        t_cal, code = self.cli(
            "calibrate", "--corners", rig / "corners.csv", "--grid", rig / "grid.json",
            "--image-size", "1280x720", "--out", est,
        )
        if code != 0:
            return Sample(t_cal, 1, 1)
        t_plane, code = self.cli(
            "plane-pose", "--corners", rig / "plane_corners.csv", "--grid", rig / "grid.json",
            "--intrinsics", est / "intrinsics_left.json", "--out", est / "plane.json",
        )
        if code != 0:
            return Sample(t_cal + t_plane, 1, 1)
        # synth writes the ground-truth calibration under calib/; the estimate is separate
        truth = json.loads((rig / "calib" / "stereo.json").read_text(encoding="utf-8"))
        got = json.loads((est / "stereo.json").read_text(encoding="utf-8"))
        errors = [
            abs(got["left"][k] - truth["left"][k]) / truth["left"][k] for k in ("fx", "fy")
        ]
        b_true = float(np.linalg.norm(truth["right_from_left"]["translation_m"]))
        b_got = float(np.linalg.norm(got["right_from_left"]["translation_m"]))
        errors.append(abs(b_got - b_true) / b_true)
        self.errors.append(errors)
        return Sample(t_cal + t_plane, 1, 0)

    def run_check(self):
        """Acceptance criterion 2 over the rigs that calibrated: median relative
        error of the left fx, fy and of the stereo baseline below 1%."""
        if not self.errors:
            return False
        return bool(np.all(np.median(np.array(self.errors), axis=0) < 0.01))


class SynthWrite(Workload):
    name = SYNTH
    frames = 1000
    nominal_step_s = 0.9

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.out = work / "synth"
        self.reference = None

    def step(self, i):
        shutil.rmtree(self.out, ignore_errors=True)
        seconds, code = self.cli(
            "synth", "--out", self.out, "--frames", self.frames, "--calib-views", 4,
            "--seed", self.seed, "--corner-noise", 0.2, "--face-noise", 1.0,
            "--gaze-noise", 10, "--gaze-bias", 2.0, -1.0,
        )
        if code != 0:
            return Sample(seconds, self.frames, self.frames)
        digest = tree_digest(self.out)
        if self.reference is None:
            self.reference = digest
        manifest = json.loads((self.out / "manifest.json").read_text(encoding="utf-8"))
        ok = digest == self.reference and len(manifest["frames"]) == self.frames
        self.verified += 1
        self.wrong += not ok
        return Sample(seconds, self.frames, 0 if ok else self.frames)


WORKLOADS = {w.name: w for w in (EvalSharedFaces, CalibRig, SynthWrite)}


def tree_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def os_threads() -> int:
    """Threads of this process as the kernel counts them (BLAS pools included)."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    import threading
    return threading.active_count()


def scaled(sample: Sample) -> float:
    return at_reference_speed(sample.seconds, sample.probe_s)


def measure_setup() -> list[float]:
    """Import planegaze and build the CLI parser in a fresh interpreter:
    [wall seconds, mean of the host probes just before and after]."""
    out = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], stdout=subprocess.PIPE, text=True, check=True
    ).stdout
    return [float(x) for x in out.split()]


def run_steps(wl: Workload, steps: int, setup: list | None = None,
              cap_s: float = math.inf) -> list[Sample]:
    """Run ``steps`` steps back to back, stopping early once ``cap_s``
    seconds have passed. With ``setup``, also time SETUP_SPAWNS
    fresh-interpreter set-ups spread evenly between the steps."""
    start = perf_counter()
    samples = []
    before = probe()
    for i in range(steps):
        sample = wl.step(i)
        after = probe()
        samples.append(sample._replace(probe_s=(before + after) / 2))
        before = after
        if setup is not None:
            due = sum(1 for k in range(SETUP_SPAWNS) if k * steps // SETUP_SPAWNS == i)
            if due:
                setup.extend(measure_setup() for _ in range(due))
                before = probe()
        if perf_counter() - start > cap_s:
            break
    return samples


def run(wl: Workload, seconds: float, trace: bool, trace_file: Path) -> dict:
    result: dict = {}
    if not trace:
        setup: list[float] = []
        samples = run_steps(wl, wl.steps_for(seconds), setup, CAP_FACTOR * seconds)
        result["setup"] = setup
    else:
        # untraced rounds first (the overhead baseline), then one traced round
        # of the same fixed work, so its counts repeat exactly for a seed
        n_rounds = max(1, round(seconds / 2 / (wl.nominal_step_s * wl.trace_steps)))
        rounds = [run_steps(wl, wl.trace_steps) for _ in range(n_rounds)]
        baseline = statistics.median(sum(scaled(s) for s in r) for r in rounds)
        tracer = Tracer()
        tracer.install()
        wl.tracer = tracer
        try:
            traced = run_steps(wl, wl.trace_steps)
        finally:
            wl.tracer = None
            tracer.uninstall()
        samples = [s for r in rounds for s in r] + traced
        table = tracer.span_table()
        overhead = sum(scaled(s) for s in traced) / baseline - 1.0
        values = layer_values(tracer, table, overhead)
        result["layers"] = values
        result["uncovered"] = uncovered(wl.name, values)
        result["span_table"] = table
        tracer.write(trace_file, {"workload": wl.name, "seed": wl.seed})
        result["trace_file"] = str(trace_file.relative_to(ROOT))
    result.update(
        samples=[list(s) for s in samples],
        check_ok=wl.run_check(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        threads=os_threads(),
        python=platform.python_version(),
        numpy=np.__version__,
    )
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--phase", choices=("prep", "run"), required=True)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--dir", type=Path, required=True, help="input directory of this run")
    p.add_argument("--trace-file", type=Path, default=None)
    args = p.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(planegaze.__file__).resolve().parents:
        print(f"planegaze imported from {planegaze.__file__}, not from {src}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.dir, args.seed)
    if args.phase == "prep":
        args.dir.mkdir(parents=True, exist_ok=True)
        wl.prep()
        return 0
    result = run(wl, args.seconds, bool(args.trace), args.trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
