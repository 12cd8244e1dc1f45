#!/usr/bin/env python3
"""How angular gaze error turns into centimeters on the table.

A few degrees of angular error sounds small, but over half a meter of ray
and an oblique surface it becomes tens of centimeters of landing error.
This sweep quantifies the mapping on the default tabletop geometry: for
each noise level it runs `planegaze synth --gaze-noise` and `planegaze
evaluate`, the commands a user would run, and reads the oracle-offset
row of the report's summary.csv. `perturb` draws one unit-noise
realisation per method at a fixed seed, so each frame's distance grows
with sigma. The table is written as a CSV; with matplotlib installed the
demo also saves a plot.
"""

import contextlib
import csv
import io
import sys
import tempfile
from pathlib import Path

from planegaze.cli import main as planegaze
from planegaze.formats import read_summary_csv

SIGMAS = [0.0, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 15.0, 20.0]
METHOD = "oracle-offset"
COLUMNS = ["median_distance_cm", "p_at_10cm", "p_at_20cm", "p_at_50cm"]
OUT_CSV = Path("amplification.csv")
OUT_PNG = Path("amplification.png")


def run(args):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = planegaze(args)
    if rc != 0:
        sys.exit(rc)


def summary_row(sigma: float, work: Path) -> list[float]:
    """The method's overall median distance and P@10/20/50cm at ``sigma`` degrees of gaze noise."""
    data, report = work / f"data_{sigma:g}", work / f"report_{sigma:g}"
    run(["synth", "--out", str(data), "--frames", "2000", "--seed", "99", "--calib-views", "2",
         "--gaze-noise", str(sigma)])
    run(["evaluate", "--manifest", str(data / "manifest.json"), "--methods", METHOD, "--tags=",
         "--out", str(report)])
    header, rows = read_summary_csv(report / "summary.csv")
    row = dict(zip(header, rows[0]))
    return [float(row[c]) for c in COLUMNS]


def main():
    with tempfile.TemporaryDirectory() as td:
        rows = [[sigma, *summary_row(sigma, Path(td))] for sigma in SIGMAS]

    header = f"{'sigma (deg)':>11}  {'median dist (cm)':>16}  {'P@10cm':>7}  {'P@20cm':>7}  {'P@50cm':>7}"
    print(header)
    print("-" * len(header))
    for sigma, median, p10, p20, p50 in rows:
        print(f"{sigma:>11.1f}  {median:>16.2f}  {p10:>6.1f}%  {p20:>6.1f}%  {p50:>6.1f}%")

    with OUT_CSV.open("w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["sigma_deg", *COLUMNS])
        w.writerows(rows)
    print(f"\nwrote {OUT_CSV}")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed; skipping the plot")
        return
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot([r[0] for r in rows], [r[1] for r in rows], marker="o")
    ax.set_xlabel("angular noise sigma (deg)")
    ax.set_ylabel("median surface distance (cm)")
    ax.set_title("Angular error amplification on the tabletop geometry")
    ax.grid(True, alpha=0.3)
    fig.tight_layout()
    fig.savefig(OUT_PNG, dpi=120)
    print(f"wrote {OUT_PNG}")


if __name__ == "__main__":
    main()
