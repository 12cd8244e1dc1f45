"""Acceptance suite. One criterion per test, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`. Criterion 7 needs real
released evaluation data and is skipped (deferred) until it exists; point
PLANEGAZE_PAPER_DATASET at a directory holding manifest.json plus
expected.json to activate it.
"""

import json
import math
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from planegaze.calibration import calibrate_camera, calibrate_stereo
from planegaze.cli import main
from planegaze.metrics import cdf_fraction_at, error_cdf, summarize
from planegaze.pipeline import PredictionTable, correct_gaze_to_camera_frame
from planegaze.synthetic import NoiseSpec, default_scene, generate_scene, perturb
from planegaze.triangulation import HeadPoint

from test_metrics import records_cm


@contextmanager
def criterion(number: int, name: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} ({name}): FAIL [{time.perf_counter() - start:.1f}s]")
        raise
    print(f"\nACCEPTANCE {number} ({name}): PASS [{time.perf_counter() - start:.1f}s]")


def summary_rows(report_dir: Path):
    import csv

    lines = [l for l in (report_dir / "summary.csv").read_text().splitlines() if l and not l.startswith("#")]
    rows = [next(csv.reader([l])) for l in lines]
    header = rows[0]
    return [dict(zip(header, r)) for r in rows[1:]]


def test_criterion_1_zero_noise_end_to_end(tmp_path):
    with criterion(1, "zero-noise end-to-end identity"):
        start = time.perf_counter()
        data = tmp_path / "data"
        report = tmp_path / "report"
        assert main(["synth", "--out", str(data), "--frames", "200", "--seed", "1001"]) == 0
        assert main([
            "calibrate", "--corners", str(data / "corners.csv"), "--grid", str(data / "grid.json"),
            "--image-size", "1280x720", "--out", str(data / "calib"),
        ]) == 0
        assert main([
            "plane-pose", "--corners", str(data / "plane_corners.csv"), "--grid", str(data / "grid.json"),
            "--intrinsics", str(data / "calib" / "intrinsics_left.json"),
            "--out", str(data / "calib" / "plane.json"),
        ]) == 0
        assert main(["evaluate", "--manifest", str(data / "manifest.json"), "--out", str(report)]) == 0
        elapsed = time.perf_counter() - start

        rows = [r for r in summary_rows(report) if r["tag_filter"] == ""]
        assert len(rows) == 2
        for row in rows:
            assert int(row["n_frames"]) == 200
            assert float(row["median_distance_cm"]) < 1e-4
            assert float(row["mean_angular_deg"]) < 1e-5
        assert elapsed < 60.0, f"chain took {elapsed:.1f}s"


def test_criterion_2_noisy_calibration_recovery():
    with criterion(2, "calibration recovery under 0.2 px noise"):
        start = time.perf_counter()
        fx_errs, fy_errs, rmss, baseline_errs = [], [], [], []
        for seed in range(10):
            spec = default_scene(frames=0, seed=3000 + seed, calib_views=15)
            ds = perturb(generate_scene(spec), NoiseSpec(corner_px_sigma=0.2), seed=4000 + seed)
            corners = ds.calib_corners
            left = calibrate_camera(corners.take(corners.camera == "left"), ds.grid, (1280, 720))
            right = calibrate_camera(corners.take(corners.camera == "right"), ds.grid, (1280, 720))
            rig = calibrate_stereo(left, right, corners, ds.grid)
            fx_errs.append(abs(left.intrinsics.fx - spec.rig.left.fx) / spec.rig.left.fx)
            fy_errs.append(abs(left.intrinsics.fy - spec.rig.left.fy) / spec.rig.left.fy)
            rmss.append(left.rms_reprojection)
            true_baseline = np.linalg.norm(spec.rig.right_from_left.translation)
            baseline_errs.append(abs(rig.baseline - true_baseline) / true_baseline)
        elapsed = time.perf_counter() - start

        assert np.median(fx_errs) < 0.01
        assert np.median(fy_errs) < 0.01
        assert 0.15 <= np.median(rmss) <= 0.25
        assert np.median(baseline_errs) < 0.01
        assert elapsed < 30.0, f"ten rigs took {elapsed:.1f}s"


def test_criterion_3_metric_oracle_fixtures():
    with criterion(3, "metric fixtures and CDF identity"):
        s = summarize(records_cm([5, 15, 25, 60]))
        assert s.median_distance_cm == pytest.approx(20.0)
        assert s.precision_at[10.0] == pytest.approx(25.0)
        assert s.precision_at[20.0] == pytest.approx(50.0)
        assert s.precision_at[50.0] == pytest.approx(75.0)

        rng = np.random.default_rng(5150)
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            values = list(rng.uniform(0, 90, n))
            if rng.random() < 0.25:
                values += [math.inf] * int(rng.integers(1, 4))
            recs = records_cm(values)
            cdf = error_cdf(recs, "distance")
            thresholds, fractions = (c.tolist() for c in cdf)
            assert thresholds == sorted(thresholds)
            assert all(a <= b for a, b in zip(fractions, fractions[1:]))
            s = summarize(recs)
            for x in (10.0, 20.0, 50.0):
                assert s.precision_at[x] == pytest.approx(100.0 * cdf_fraction_at(cdf, x), abs=1e-12)


def test_criterion_4_correction_exactness():
    with criterion(4, "zero-prediction rays contain the camera center"):
        rng = np.random.default_rng(652)
        pos = rng.uniform([-0.5, -0.5, 0.15], [0.5, 0.5, 1.5], size=(100, 3))
        head = HeadPoint(pos, np.zeros(100), np.full(100, "bbox_center"), np.full(100, ""))
        zero = PredictionTable(np.full(100, "f"), np.full(100, "m"), np.zeros(100), np.zeros(100), "camera_offset", None)
        d = correct_gaze_to_camera_frame(zero, head)
        assert np.all(np.linalg.norm(np.cross(head.position, d), axis=1) < 1e-9)


def test_criterion_5_noise_consistency(tmp_path):
    with criterion(5, "10 deg angular noise lands at the expected magnitudes"):
        start = time.perf_counter()
        data = tmp_path / "noisy"
        report = tmp_path / "report"
        assert main([
            "synth", "--out", str(data), "--frames", "5000", "--calib-views", "4",
            "--seed", "1007", "--gaze-noise", "10",
        ]) == 0
        assert main(["evaluate", "--manifest", str(data / "manifest.json"), "--out", str(report)]) == 0
        elapsed = time.perf_counter() - start

        expected_mean = 10.0 * math.sqrt(2.0 / math.pi)  # 7.9788 deg
        for row in (r for r in summary_rows(report) if r["tag_filter"] == ""):
            mean = float(row["mean_angular_deg"])
            median = float(row["median_distance_cm"])
            assert abs(mean - expected_mean) / expected_mean < 0.10, row["method"]
            assert 8.0 <= median <= 30.0, row["method"]
        assert elapsed < 120.0, f"5000 frames took {elapsed:.1f}s"


def test_criterion_6_determinism(tmp_path):
    with criterion(6, "byte-identical datasets and reports across workers"):
        outs = {}
        for label, threads in [("a", "1"), ("b", "4")]:
            out = tmp_path / f"data_{label}"
            assert main([
                "synth", "--out", str(out), "--frames", "60", "--calib-views", "4",
                "--seed", "77", "--threads", threads,
            ]) == 0
            outs[label] = out
        files = sorted(p.relative_to(outs["a"]) for p in outs["a"].rglob("*") if p.is_file())
        assert files
        for rel in files:
            assert (outs["a"] / rel).read_bytes() == (outs["b"] / rel).read_bytes(), rel

        reports = {}
        for label, threads in [("a", "1"), ("b", "4")]:
            rep = tmp_path / f"report_{label}"
            assert main([
                "evaluate", "--manifest", str(outs["a"] / "manifest.json"),
                "--out", str(rep), "--threads", threads,
            ]) == 0
            reports[label] = rep
        for rel in sorted(p.relative_to(reports["a"]) for p in reports["a"].rglob("*") if p.is_file()):
            assert (reports["a"] / rel).read_bytes() == (reports["b"] / rel).read_bytes(), rel


def test_criterion_7_conditional_paper_reproduction(tmp_path):
    root = os.environ.get("PLANEGAZE_PAPER_DATASET")
    if not root:
        print("\nACCEPTANCE 7 (published-results reproduction): SKIPPED (deferred until the evaluation dataset is released; set PLANEGAZE_PAPER_DATASET to run)")
        pytest.skip("evaluation dataset not released; criterion deferred")
    with criterion(7, "published-results reproduction"):
        root = Path(root)
        expected = json.loads((root / "expected.json").read_text())
        report = tmp_path / "report"
        assert main(["evaluate", "--manifest", str(root / "manifest.json"), "--out", str(report)]) == 0
        rows = {r["method"]: r for r in summary_rows(report) if r["tag_filter"] == ""}
        for entry in expected["methods"]:
            row = rows[entry["method"]]
            assert float(row["mean_angular_deg"]) == pytest.approx(entry["mean_angular_deg"], abs=0.01)
            assert float(row["median_distance_cm"]) == pytest.approx(entry["median_distance_cm"], abs=0.01)
            for key, want in entry.get("precision_at", {}).items():
                assert float(row[f"p_at_{key}cm"]) == pytest.approx(want, abs=0.01)
