#!/usr/bin/env python3
"""Calibration drift of the working tree against a base commit, over calib-rig's rigs.

    python tools/calib_drift.py --base HEAD --seed 7919

The rigs and the commands are calib-rig's own: each tree's
``perfbench/workload.py`` runs in a fresh interpreter, the base tree's
``CalibRig(work, S).prep()`` writes every rig's corners once, for both sides,
and each tree's ``CalibRig.step(k)`` then runs ``calibrate`` and, where that
succeeds, ``plane-pose`` on rig k, as calib-rig's step k does. The trees are
copies, made as ``tools/bench_pairs.py`` makes them: the base commit by ``git
archive``, the working tree's tracked and unignored files without bytecode.

One line per rig gives each side's exit codes (``calibrate/plane-pose``, ``-``
for a command not run) and the largest change, change against base, of what
both sides wrote: relative for fx and fy, for cx and cy (either camera) and for
the stereo baseline; absolute for the stereo translation (m), the distortion
coefficients, the plane pose's rotation entries and translation (m), and its
``rms_px``. A last line gives each column's largest over the rigs. The exit
status is 1 when any rig's exit codes differ between the sides.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import export, export_worktree  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
COLUMNS = ("fx,fy", "cx,cy", "baseline", "t_m", "dist", "plane_R", "plane_t_m", "rms_px")
# argv: perfbench directory, work directory, seed, side, and optionally how many rigs to solve
DRIVER = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from workload import CalibRig

calib, side = CalibRig(Path(sys.argv[2]), int(sys.argv[3])), sys.argv[4]
if side == "base":
    calib.prep()
codes, cli = [], calib.cli

def logged(*argv):
    seconds, code = cli(*argv)
    codes[-1].append(code)
    return seconds, code

calib.cli = logged
for k in range(int(sys.argv[5]) if sys.argv[5:] else calib.rigs):
    codes.append([])
    calib.step(k)
    if (calib.rig_dir(k) / "estimate").exists():
        (calib.rig_dir(k) / "estimate").rename(calib.rig_dir(k) / side)
print(json.dumps(codes))
"""


def calib_rig(tree: Path, work: Path, seed: int, side: str, rigs: int | None) -> list[str]:
    """Run ``tree``'s calib-rig steps on the rigs of ``seed`` under ``work``, the base side
    preparing them first, and keep each rig's outputs in ``<rig>/<side>``; the exit codes
    of each rig's commands, as ``calibrate/plane-pose``."""
    argv = [sys.executable, "-B", "-c", DRIVER, tree / "perfbench", work, seed, side, *([rigs] if rigs else [])]
    done = subprocess.run(list(map(str, argv)), capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"calib-rig failed on the {side} tree, exit {done.returncode}:\n{done.stderr}")
    return ["/".join(map(str, codes + ["-"] * (2 - len(codes)))) for codes in json.loads(done.stdout)]


def _load(path: Path) -> dict | None:
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else None


def drift(base: Path, change: Path) -> list[float]:
    """The largest change of each of ``COLUMNS`` from the outputs in ``base`` to those in ``change``;
    NaN where either side wrote no such output."""
    out = [float("nan")] * len(COLUMNS)

    def largest(a, b):
        return float(np.abs(np.subtract(b, a)).max())

    a, b = _load(base / "stereo.json"), _load(change / "stereo.json")
    if a and b:
        def rel(keys):
            return max(abs(b[cam][k] / a[cam][k] - 1.0) for cam in ("left", "right") for k in keys)
        t = [s["right_from_left"]["translation_m"] for s in (a, b)]
        out[:5] = [rel(("fx", "fy")), rel(("cx", "cy")), abs(np.linalg.norm(t[1]) / np.linalg.norm(t[0]) - 1.0),
                   largest(*t), max(largest(a[cam]["dist"], b[cam]["dist"]) for cam in ("left", "right"))]
    a, b = _load(base / "plane.json"), _load(change / "plane.json")
    if a and b:
        out[5:] = [largest(a["rotation"], b["rotation"]), largest(a["translation_m"], b["translation_m"]),
                   abs(b["rms_px"] - a["rms_px"])]
    return [float(v) for v in out]


def compare(trees: dict[str, Path], seed: int, work: Path, rigs: int | None = None) -> int:
    """Print the drift table of ``trees`` (``base`` and ``change``) over calib-rig's rigs of
    ``seed`` (the first ``rigs`` of them, if given), working under ``work``; 1 when any rig's
    exit codes differ, else 0."""
    codes = {side: calib_rig(tree, work, seed, side, rigs) for side, tree in trees.items()}
    print(f"{'rig':>3s} {'base':>5s} {'change':>6s} " + " ".join(f"{c:>9s}" for c in COLUMNS))
    rows, differ = [], 0
    for k, (a, b) in enumerate(zip(codes["base"], codes["change"])):
        rig = work / f"rig{k:02d}"
        rows.append(drift(rig / "base", rig / "change"))
        differ += a != b
        print(f"{k:3d} {a:>5s} {b:>6s} " + " ".join(f"{v:9.2e}" for v in rows[-1]))
    largest = np.nanmax(np.array(rows), axis=0, initial=0.0)
    print(f"max {'':12s} " + " ".join(f"{v:9.2e}" for v in largest))
    if differ:
        print(f"exit codes differ on {differ} of {len(rows)} rigs")
    return 1 if differ else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="calibration drift, base commit against working tree")
    p.add_argument("--base", default="HEAD", help="commit to compare against (default HEAD)")
    p.add_argument("--seed", type=int, default=7919)
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="calib-drift-") as tmp:
        trees = {"base": export(args.base, Path(tmp) / "base", ROOT),
                 "change": export_worktree(Path(tmp) / "work", ROOT)}
        return compare(trees, args.seed, Path(tmp))


if __name__ == "__main__":
    raise SystemExit(main())
