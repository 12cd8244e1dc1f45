#!/usr/bin/env python3
"""Paired benchmark runs: a base commit against the working tree.

    python tools/bench_pairs.py --base HEAD --pairs 10 --seed 7919 --seconds 30

The base commit is exported with ``git archive`` into a temporary directory,
and the working tree's files (tracked, or untracked and not ignored) are
copied next to it, under a name of the same length. Neither copy holds a
``__pycache__``, so both sides start from the same bytecode conditions: a
working tree whose bytecode is already compiled would otherwise import
faster than a fresh export, and read a better ``setup_s`` with no change
to the code. For each workload,
``perfbench/run.py`` then runs ``--pairs`` times on the base tree and as
often on the working tree's copy, one pair after the other; which side
runs first alternates from pair to pair, so a host that drifts in speed
favours neither side. For every end-to-end metric of ``BENCHMARK.json`` it
prints each side's median and quartiles, the change of the medians, and in
how many pairs the working tree was better (a tie counts for neither side).
A metric is marked ``claimable`` when at least ten pairs ran, the working
tree won 9 of 10 of them, and its median is better than the base's by
more than the base's interquartile range. The failed share of each side
is printed too. The exit status is 1, with a ``rejected:`` line per
reason, when any run of the working tree is not ``correct``, its failed
share of operations exceeds the base's, or the median of an end-to-end
metric is worse than the base's by more than that metric's ``bound`` in
``BENCHMARK.json``: each rejects a change whatever its other gains.

Nothing is written inside the repository: perfbench's run directories and
traces stay in the temporary copies, which are removed at the end.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("eval-shared-faces", "calib-rig", "synth-write")


def export(ref: str, dest: Path, root: Path = ROOT) -> Path:
    """The tree of commit ``ref`` of the repository at ``root``, unpacked under ``dest``."""
    tar = subprocess.run(["git", "archive", "--format=tar", ref], cwd=root, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        archive.extractall(dest, **safe)
    return dest


def export_worktree(dest: Path, root: Path = ROOT) -> Path:
    """The working tree at ``root``, copied under ``dest``: every file git tracks or would
    add (untracked and not ignored) that exists, and nothing under a ``__pycache__``."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=root, check=True, capture_output=True, text=True).stdout
    for name in sorted(set(filter(None, listed.split("\0")))):
        src, out = root / name, dest / name
        if "__pycache__" in Path(name).parts or not src.is_file():
            continue
        out.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(src, out)
    return dest


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The final JSON object of one untraced perfbench run on ``tree``."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench failed on {tree} ({workload}), exit {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[int, float, bool, bool]:
    """For paired base runs ``a`` and change runs ``b`` of one metric: the pairs the change
    wins (a tie wins for neither side), the relative change of the medians, whether the
    change is worse than the base by more than ``bound``, and whether a gain is claimable:
    at least ten pairs run, 9 of 10 of them won, with the medians further apart than the
    base's interquartile range."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    (qa1, ma, qa3), (_, mb, _) = quartiles(a), quartiles(b)
    delta = (mb - ma) / ma if ma else float("nan")
    claimable = len(a) >= 10 and wins >= 0.9 * len(a) and sign * (mb - ma) > qa3 - qa1
    return wins, delta, sign * delta < -bound, claimable


def report(workload: str, base: list[dict], change: list[dict], metrics: list[dict]) -> list[str]:
    """Print the workload's table; return the reasons, if any, that the change must not land.

    ``metrics`` are the end-to-end metrics of BENCHMARK.json, each with its
    direction (``better``) and the relative ``bound`` its median may worsen by.
    """
    print(f"\n{workload}: {len(base)} pairs")
    share = {}
    for side, runs in (("base", base), ("change", change)):
        failed, attempted = sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)
        share[side] = failed / attempted if attempted else 0.0
        print(f"  {side:6s} failed {failed}/{attempted} ops, correct in {sum(r['correct'] for r in runs)}/{len(runs)} runs")
    reasons = []
    if not all(r["correct"] for r in change):
        reasons.append(f"{workload}: {sum(not r['correct'] for r in change)} change-side runs are not correct")
    if share["change"] > share["base"]:
        reasons.append(f"{workload}: the change fails {share['change']:.2%} of its ops, the base {share['base']:.2%}")
    print(f"  {'metric':12s} {'base median [q1, q3]':>34s} {'change median [q1, q3]':>34s} {'change':>8s} {'wins':>6s}")
    for metric in metrics:
        name = metric["name"]
        a = [r["metrics"][name]["value"] for r in base]
        b = [r["metrics"][name]["value"] for r in change]
        wins, delta, regressed, claimable = verdict(a, b, metric["better"], metric["bound"])
        (qa1, ma, qa3), (qb1, mb, qb3) = quartiles(a), quartiles(b)
        print(f"  {name:12s} {ma:12.6g} [{qa1:9.6g}, {qa3:9.6g}] {mb:12.6g} [{qb1:9.6g}, {qb3:9.6g}]"
              f" {delta:+8.1%} {wins:3d}/{len(a)}{'  claimable' if claimable else ''}")
        if regressed:
            reasons.append(f"{workload}: {name} median {mb:.6g} is {abs(delta):.1%} worse than the base's {ma:.6g},"
                           f" beyond its bound {metric['bound']:.0%}")
    return reasons


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="paired perfbench runs, base commit against working tree")
    p.add_argument("--base", default="HEAD", help="commit to compare against (default HEAD)")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=7919)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--workload", action="append", choices=WORKLOADS,
                   help="repeat for several; default every workload")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    reasons = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        # directory names of equal length: the length of the path a tree runs from moves peak RSS
        # by about 0.6 MiB, as much as the differences in peak_rss_mb a pair is meant to show
        trees = {"base": export(args.base, Path(tmp) / "base"), "change": export_worktree(Path(tmp) / "work")}
        for workload in args.workload or WORKLOADS:
            runs = {"base": [], "change": []}
            for k in range(args.pairs):
                order = ("base", "change") if k % 2 == 0 else ("change", "base")
                for side in order:
                    runs[side].append(run(trees[side], workload, args.seed, args.seconds))
                values = {side: runs[side][-1]["metrics"]["ops_per_s"]["value"] for side in order}
                print(f"{workload} pair {k + 1}/{args.pairs} ({order[0]} first): ops_per_s "
                      f"base {values['base']:.6g}, change {values['change']:.6g}", file=sys.stderr, flush=True)
            reasons += report(workload, runs["base"], runs["change"], spec["end_to_end"])
    for reason in reasons:
        print(f"rejected: {reason}")
    return 1 if reasons else 0


if __name__ == "__main__":
    raise SystemExit(main())
