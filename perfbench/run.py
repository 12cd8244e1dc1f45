"""planegaze benchmark: three CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload eval-shared-faces --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the package is imported from
its ``src/`` directory, nothing is installed. This launcher uses only the
standard library. It pins BLAS/OpenMP threads, has ``workload.py`` write
the seeded inputs in one process and drive the CLI over them in another
(timing fresh interpreters importing planegaze, ``setup_s``, between its
steps), and prints every metric by name with its unit. Times are scaled to
the reference speed of the host probe in ``probe.py``; the wall-clock
figures are in the detail line. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced round with ``--trace 1``). See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import CALIB, CATALOGUE, EVAL, SYNTH  # noqa: E402
from probe import at_reference_speed  # noqa: E402

RUN_DIR = ROOT / ".perfbench-run"
BUDGET_S = 170.0  # the whole run, prep and set-up included
BLAS_THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# what one op is, and the name and unit of each workload's headline metric
OPS = {
    EVAL: ("frame x method evaluation", "evaluate_frames_per_s", "frames/s"),
    CALIB: ("calibrated rig (calibrate + plane-pose)", "calibrate_rig_s", "s"),
    SYNTH: ("generated frame", "synth_frames_per_s", "frames/s"),
}
END_TO_END_UNITS = {"ops_per_s": "ops/s", "setup_s": "s", "peak_rss_mb": "MiB"}


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(min(BLAS_THREADS, nproc()))
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Budget:
    def __init__(self, seconds: float):
        self.deadline = perf_counter() + seconds

    def left(self) -> float:
        left = self.deadline - perf_counter()
        if left <= 0:
            raise SystemExit("benchmark exceeded its time budget")
        return left


def check(cmd: list[str], env, budget: Budget) -> str:
    """Run a child to completion; its stdout, or exit on failure.

    The child gets its own process group, so a child killed at the budget
    takes any interpreter it started with it.
    """
    proc = subprocess.Popen(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=budget.left())
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise SystemExit("benchmark exceeded its time budget") from None
        raise
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd[1:3])} failed with exit code {proc.returncode}")
    return out


def timing(samples: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    s = sorted(samples)
    n = len(s)
    out = {"median": statistics.median(s), "n": n}
    if n >= 11:
        q = math.floor(100 * (n - 10) / n)
        out[f"p{q}"] = s[max(1, math.ceil(q * n / 100)) - 1]
    else:
        out["tail"] = "no percentile has ten samples beyond it"
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="planegaze benchmark")
    p.add_argument("--workload", choices=sorted(OPS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0, help="closed-loop measuring time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (ROOT / "src" / "planegaze" / "__init__.py").is_file():
        print(f"no planegaze sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    budget = Budget(BUDGET_S)
    env = child_env()
    work = RUN_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    script = [sys.executable, str(HERE / "workload.py")]
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", str(work)]
    try:
        check(script + ["--phase", "prep", *common], env, budget)
        out = check(
            script + [
                "--phase", "run", *common, "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--trace-file", str(RUN_DIR / "traces" / f"{args.workload}.json"),
            ],
            env, budget,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    res = json.loads(out.strip().splitlines()[-1])

    samples = res["samples"]
    attempted = sum(ops for _, ops, _, _ in samples)
    failed = attempted if not res["check_ok"] else sum(f for _, _, f, _ in samples)
    cores = nproc()
    environment = {
        "python": res["python"],
        "numpy": res["numpy"],
        "nproc": cores,
        "blas_threads": env["OPENBLAS_NUM_THREADS"],
        "omp_threads": env["OMP_NUM_THREADS"],
        "workload_threads": res["threads"],
    }
    if res["threads"] > cores:
        print(f"workload process ran {res['threads']} threads on {cores} cores", file=sys.stderr)
        return 1

    op, headline, headline_unit = OPS[args.workload]
    # every step of a workload does the same number of ops
    rate = statistics.median(
        ops / at_reference_speed(s, probe_s) for s, ops, _, probe_s in samples
    )
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "op": op,
        "ops_attempted": attempted,
        "ops_failed_ratio": failed / attempted,
        "command_wall_s": timing([s for s, _, _, _ in samples]),
        "command_s": timing([at_reference_speed(s, probe_s) for s, _, _, probe_s in samples]),
        "host_probe_s": timing([probe_s for _, _, _, probe_s in samples]),
        headline: {"value": 1 / rate if args.workload == CALIB else rate, "unit": headline_unit},
        "wall_ops_per_s": statistics.median(ops / s for s, ops, _, _ in samples),
        "environment": environment,
    }
    if args.trace:
        if res["uncovered"]:
            print("traced round recorded no calls for: " + ", ".join(res["uncovered"]),
                  file=sys.stderr)
            return 1
        units = {name: unit for name, unit, _, _ in CATALOGUE}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in res["layers"].items()}
        detail["trace_file"] = res["trace_file"]
        detail["tracing_overhead"] = res["layers"]["trace.overhead_ratio"]
        detail["spans"] = res["span_table"]
    else:
        setup = [at_reference_speed(t, probe_s) for t, probe_s in res["setup"]]
        detail["setup_s"] = timing(setup)
        detail["setup_wall_s"] = timing([t for t, _ in res["setup"]])
        values = {
            "ops_per_s": rate,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": res["check_ok"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
