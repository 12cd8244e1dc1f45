#!/usr/bin/env python3
"""Paired benchmark runs: a base commit against the working tree.

    python tools/bench_pairs.py --base HEAD --pairs 10 --seed 7919 --seconds 30

The base commit is exported with ``git archive`` into a temporary directory,
and the working tree's files (tracked, or untracked and not ignored) are
copied next to it. Neither copy holds a ``__pycache__``, so both sides start
from the same bytecode conditions: a working tree whose bytecode is already
compiled would otherwise import faster than a fresh export, and read a
better ``setup_s`` with no change to the code. For each workload,
``perfbench/run.py`` then runs ``--pairs`` times on the base tree and as
often on the working tree's copy, one pair after the other. For each run
its tree is renamed to one fixed run directory, and back afterwards, so both
sides run from the same path: the path a tree runs from moves its peak RSS
by tenths of a MiB, as much as a pair is meant to show. Which side
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

Nothing is written inside the repository, apart from the file that
``--record PATH`` names: perfbench's run directories and traces stay in the
temporary copies, which are removed at the end. ``--record`` writes the
pairs' results as JSON (see :func:`record_entry`), with sorted keys and
floats as ``repr`` writes them, so that one ``BENCH_<pr>.json`` per change
diffs cleanly. A record that already exists at PATH for the same commits,
seed and ``--seconds`` keeps its other workloads, so workloads that need
different ``--pairs`` can share one file. With ``--record``, each side also
makes one ``--trace 1`` run per workload, and the record keeps that run's
counts (see :func:`trace_counts`): they do not depend on the host, so they
show what a change did to the work, where the pairs show its speed.
"""

from __future__ import annotations

import argparse
import hashlib
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


def export(ref: str, dest: Path, root: Path) -> Path:
    """The tree of commit ``ref`` of the repository at ``root``, unpacked under ``dest``."""
    tar = subprocess.run(["git", "archive", "--format=tar", ref], cwd=root, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        archive.extractall(dest, **safe)
    return dest


def export_worktree(dest: Path, root: Path) -> Path:
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


CODE = ("src", "perfbench", "BENCHMARK.json")  # what a perfbench run reads of a tree
RUN_DIR = "run"  # the name each tree runs under, beside the trees


def code_digest(tree: Path) -> str:
    """SHA-256 over the relative paths and bytes of the files of ``CODE`` under ``tree``, in path order."""
    digest = hashlib.sha256()
    files = [p for name in CODE for p in ([tree / name] if (tree / name).is_file() else (tree / name).rglob("*"))]
    for path in sorted(p for p in files if p.is_file()):
        digest.update(f"{path.relative_to(tree).as_posix()}\0{path.stat().st_size}\0".encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """The final JSON object of one perfbench run on ``tree``, untraced unless ``trace`` is 1,
    with the host settings (``environment``) of the detail line before it. The run is made
    with ``tree`` renamed to ``RUN_DIR`` beside it, whichever tree it is."""
    here = tree.rename(tree.with_name(RUN_DIR))
    try:
        proc = subprocess.run(
            [sys.executable, str(here / "perfbench" / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=here, capture_output=True, text=True,
        )
    finally:
        here.rename(tree)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench failed on {tree} ({workload}), exit {proc.returncode}:\n{proc.stderr}")
    *_, detail, final = proc.stdout.strip().splitlines()
    return {**json.loads(final), "environment": json.loads(detail)["detail"]["environment"]}


COUNT_UNITS = ("count", "calls/frame", "points/call", "evals/iter")


def trace_counts(traced: dict) -> dict[str, float]:
    """The metrics of a traced run (:func:`run` with ``trace=1``) that count work: those in
    ``COUNT_UNITS``, none in seconds."""
    return {name: m["value"] for name, m in traced["metrics"].items() if m["unit"] in COUNT_UNITS}


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


def failed_share(runs: list[dict]) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def record_entry(base: list[dict], change: list[dict], metrics: list[dict]) -> dict:
    """One workload's pairs as a record: the pair count, each side's failed share and host
    settings, and per end-to-end metric each side's median and quartiles with its value in
    each run (``runs``, in pair order), the relative change of the medians, the pairs the
    change won, and whether it regressed beyond the metric's bound or may claim a gain (the
    rules of :func:`verdict`)."""
    entry = {
        "pairs": len(base),
        "failed_share": {"base": failed_share(base), "change": failed_share(change)},
        "host": {side: runs[0].get("environment") for side, runs in (("base", base), ("change", change))},
        "metrics": {},
    }
    for metric in metrics:
        name = metric["name"]
        a = [r["metrics"][name]["value"] for r in base]
        b = [r["metrics"][name]["value"] for r in change]
        wins, delta, regressed, claimable = verdict(a, b, metric["better"], metric["bound"])
        entry["metrics"][name] = {
            **{side: {**dict(zip(("q1", "median", "q3"), quartiles(v))), "runs": v}
               for side, v in (("base", a), ("change", b))},
            "better": metric["better"], "median_change": delta, "wins": wins, "regressed": regressed,
            "claimable": claimable,
        }
    return entry


def write_record(path: Path, record: dict) -> None:
    """Write ``record``; an existing record for the same commits, seed and seconds keeps its
    other workloads."""
    if path.exists():
        old = json.loads(path.read_text(encoding="utf-8"))
        if {k: v for k, v in old.items() if k != "workloads"} != {k: v for k, v in record.items() if k != "workloads"}:
            raise SystemExit(f"{path} records other commits, seed or seconds; not merged")
        record = {**record, "workloads": {**old["workloads"], **record["workloads"]}}
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def git_sha(ref: str, root: Path) -> str:
    return subprocess.run(["git", "rev-parse", "--verify", f"{ref}^{{commit}}"], cwd=root, check=True,
                          capture_output=True, text=True).stdout.strip()


def report(workload: str, base: list[dict], change: list[dict], metrics: list[dict]) -> tuple[list[str], dict]:
    """Print the workload's table; return the reasons, if any, that the change must not land,
    and the workload's :func:`record_entry`.

    ``metrics`` are the end-to-end metrics of BENCHMARK.json, each with its
    direction (``better``) and the relative ``bound`` its median may worsen by.
    """
    entry = record_entry(base, change, metrics)
    share = entry["failed_share"]
    print(f"\n{workload}: {len(base)} pairs")
    for side, runs in (("base", base), ("change", change)):
        failed, attempted = sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)
        print(f"  {side:6s} failed {failed}/{attempted} ops, correct in {sum(r['correct'] for r in runs)}/{len(runs)} runs")
    reasons = []
    if not all(r["correct"] for r in change):
        reasons.append(f"{workload}: {sum(not r['correct'] for r in change)} change-side runs are not correct")
    if share["change"] > share["base"]:
        reasons.append(f"{workload}: the change fails {share['change']:.2%} of its ops, the base {share['base']:.2%}")
    print(f"  {'metric':12s} {'base median [q1, q3]':>34s} {'change median [q1, q3]':>34s} {'change':>8s} {'wins':>6s}")
    for metric in metrics:
        name = metric["name"]
        m = entry["metrics"][name]
        (qa1, ma, qa3), (qb1, mb, qb3) = ([m[side][k] for k in ("q1", "median", "q3")] for side in ("base", "change"))
        print(f"  {name:12s} {ma:12.6g} [{qa1:9.6g}, {qa3:9.6g}] {mb:12.6g} [{qb1:9.6g}, {qb3:9.6g}]"
              f" {m['median_change']:+8.1%} {m['wins']:3d}/{len(base)}{'  claimable' if m['claimable'] else ''}")
        if m["regressed"]:
            reasons.append(f"{workload}: {name} median {mb:.6g} is {abs(m['median_change']):.1%} worse than the"
                           f" base's {ma:.6g}, beyond its bound {metric['bound']:.0%}")
    return reasons, entry


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="paired perfbench runs, base commit against working tree")
    p.add_argument("--base", default="HEAD", help="commit to compare against (default HEAD)")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=7919)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--workload", action="append", choices=WORKLOADS,
                   help="repeat for several; default every workload")
    p.add_argument("--record", type=Path, default=None, metavar="PATH",
                   help="also write the results as JSON, e.g. BENCH_<pr>.json")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    reasons, entries = [], {}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"base": export(args.base, Path(tmp) / "base", ROOT),
                 "change": export_worktree(Path(tmp) / "work", ROOT)}
        sides = {"base": {"ref": args.base, "sha": git_sha(args.base, ROOT)},
                 "change": {"head": git_sha("HEAD", ROOT), "code_sha256": code_digest(trees["change"])}}
        for workload in args.workload or WORKLOADS:
            runs = {"base": [], "change": []}
            for k in range(args.pairs):
                order = ("base", "change") if k % 2 == 0 else ("change", "base")
                for side in order:
                    runs[side].append(run(trees[side], workload, args.seed, args.seconds))
                values = {side: runs[side][-1]["metrics"]["ops_per_s"]["value"] for side in order}
                print(f"{workload} pair {k + 1}/{args.pairs} ({order[0]} first): ops_per_s "
                      f"base {values['base']:.6g}, change {values['change']:.6g}", file=sys.stderr, flush=True)
            workload_reasons, entries[workload] = report(workload, runs["base"], runs["change"], spec["end_to_end"])
            reasons += workload_reasons
            if args.record is not None:
                entries[workload]["counts"] = {
                    side: trace_counts(run(trees[side], workload, args.seed, args.seconds, trace=1))
                    for side in ("base", "change")
                }
    if args.record is not None:
        write_record(args.record, {**sides, "seed": args.seed, "seconds": args.seconds, "workloads": entries})
    for reason in reasons:
        print(f"rejected: {reason}")
    return 1 if reasons else 0


if __name__ == "__main__":
    raise SystemExit(main())
