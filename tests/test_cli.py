import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from planegaze.cli import main
from planegaze.formats import sha256_file


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "data"
    rc = main(["synth", "--out", str(out), "--frames", "12", "--calib-views", "5", "--seed", "17"])
    assert rc == 0
    return out


def read_csv_rows(path: Path):
    rows = [r for r in path.read_text().splitlines() if r and not r.startswith("#")]
    return [next(csv.reader([r])) for r in rows]


def snapshot(root: Path):
    """Every path under ``root``, with a file's bytes; None if ``root`` does not exist."""
    if not root.exists():
        return None
    return {p.relative_to(root): p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


class TestSynth:
    def test_reproducible_directories(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--out", str(a), "--frames", "8", "--calib-views", "3", "--seed", "4"]) == 0
        assert main(["synth", "--out", str(b), "--frames", "8", "--calib-views", "3", "--seed", "4"]) == 0
        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (a / rel).read_bytes() == (b / rel).read_bytes()

    def test_zero_frames_dataset_still_has_calibration(self, tmp_path):
        out = tmp_path / "empty"
        assert main(["synth", "--out", str(out), "--frames", "0", "--calib-views", "3"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["frames"] == []
        assert (out / "corners.csv").exists()

    @pytest.mark.parametrize("name", ["../../../escaped", "a/b"])
    def test_method_name_cannot_leave_out_dir(self, tmp_path, capsys, name):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps({"schema": "planegaze-scene-v1", "methods": [{"name": name}]}))
        out = tmp_path / "out" / "a" / "data"
        rc = main(["synth", "--out", str(out), "--frames", "2", "--calib-views", "0", "--scene", str(scene)])
        assert rc == 1
        assert f"{scene}: invalid scene config: method name" in capsys.readouterr().err
        assert [p.name for p in tmp_path.rglob("*")] == ["scene.json"]

    @pytest.mark.parametrize("earlier", [False, True], ids=["no-out", "earlier-out"])
    @pytest.mark.parametrize("flag, table, fields", [
        ("--corner-noise", "corners.csv", ("'u'", "'v'")),
        ("--face-noise", "faces.csv", ("'u_min'", "'v_min'", "'u_max'", "'v_max'", "'eye_u'", "'eye_v'")),
    ])
    def test_a_table_its_reader_would_reject_is_not_written(self, tmp_path, capsys, flag, table, fields, earlier):
        """Noise that overflows to infinity: synth exits 1 naming the table, its column and row,
        and leaves --out as it was, whether it did not exist or held an earlier dataset."""
        out = tmp_path / "d"
        if earlier:
            assert main(["synth", "--out", str(out), "--frames", "4", "--seed", "9"]) == 0
        before = snapshot(out)
        capsys.readouterr()
        assert main(["synth", "--out", str(out), "--frames", "5", flag, "1e308"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out / table}: field ") and err.count("\n") == 1
        assert err.split("field ")[1].split(" ")[0] in fields and "is not finite: " in err
        assert snapshot(out) == before

    def test_negative_sigma_rejected_with_field_name(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path / "x"), "--gaze-noise", "-1"])
        assert rc == 1
        assert "gaze-noise" in capsys.readouterr().err


class TestCalibrate(object):
    def test_full_chain(self, dataset_dir, capsys):
        rc = main([
            "calibrate", "--corners", str(dataset_dir / "corners.csv"),
            "--grid", str(dataset_dir / "grid.json"), "--image-size", "1280x720",
            "--out", str(dataset_dir / "calib"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "left: rms" in out and "stereo: baseline" in out
        payload = json.loads((dataset_dir / "calib" / "intrinsics_left.json").read_text())
        assert abs(payload["fx"] - 350.0) / 350.0 < 1e-6
        assert payload["rms_px"] < 1e-8

    def test_single_view_ill_conditioned(self, dataset_dir, tmp_path):
        rows = read_csv_rows(dataset_dir / "corners.csv")
        header, body = rows[0], rows[1:]
        one_view = [r for r in body if r[0] == "calib000"]
        path = tmp_path / "one_view.csv"
        path.write_text("\n".join([",".join(header)] + [",".join(r) for r in one_view]) + "\n")
        rc = main([
            "calibrate", "--corners", str(path), "--grid", str(dataset_dir / "grid.json"),
            "--image-size", "1280x720", "--out", str(tmp_path / "out"),
        ])
        assert rc == 2

    @pytest.mark.parametrize("earlier", [False, True], ids=["no-out", "earlier-out"])
    def test_a_failed_fit_leaves_out_as_it_was(self, tmp_path, capsys, earlier):
        """The left camera fits, but the right one has 3 corners of one view: calibrate exits 2
        before it writes, so --out stays as it was, whether it did not exist or held an earlier
        calibration."""
        data = tmp_path / "d"
        assert main(["synth", "--out", str(data), "--frames", "5", "--calib-views", "4", "--seed", "3"]) == 0
        header, *body = read_csv_rows(data / "corners.csv")
        right = [r for r in body if r[1] == "right"]
        rows = [r for r in body if r[1] == "left"] + [r for r in right if r[0] == right[0][0]][:3]
        corners = tmp_path / "few_right.csv"
        corners.write_text("".join(",".join(r) + "\n" for r in [header, *rows]))
        out = tmp_path / "calib"
        argv = ["calibrate", "--grid", str(data / "grid.json"), "--image-size", "1280x720", "--out", str(out)]
        if earlier:
            assert main([*argv, "--corners", str(data / "corners.csv")]) == 0
        before = snapshot(out)
        capsys.readouterr()
        assert main([*argv, "--corners", str(corners)]) == 2
        assert "need >= 2 views" in capsys.readouterr().err
        assert snapshot(out) == before

    def test_malformed_corner_row(self, dataset_dir, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("view_id,camera,i,j,u,v\nv0,left,0,zero,1.0,2.0\n")
        rc = main([
            "calibrate", "--corners", str(path), "--grid", str(dataset_dir / "grid.json"),
            "--image-size", "1280x720", "--out", str(tmp_path / "out"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "bad.csv" in err and ":2" in err


    @pytest.mark.parametrize("case", ["row repeated", "file given twice"])
    def test_repeated_corners_are_a_parse_error(self, dataset_dir, tmp_path, capsys, case):
        """A repeated corner would count twice in the fit: rejected with its file and line, no output written."""
        corners = dataset_dir / "corners.csv"
        lines = corners.read_text().splitlines()
        first = next(k for k, line in enumerate(lines) if line.startswith("calib"))
        if case == "row repeated":
            corners = tmp_path / "corners.csv"
            corners.write_text("\n".join(lines + [lines[first]]) + "\n")
            where = f"{corners}:{len(lines) + 1}: second corner"
        else:
            where = f"{corners}:{first + 1}: corner"
        rc = main(["calibrate", *(["--corners", str(corners)] * (1 + (case == "file given twice"))),
                   "--grid", str(dataset_dir / "grid.json"), "--image-size", "1280x720", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {where}")
        assert not (tmp_path / "out").exists()


class TestPlanePose:
    def test_writes_pose(self, dataset_dir, capsys):
        rc = main([
            "plane-pose", "--corners", str(dataset_dir / "plane_corners.csv"),
            "--grid", str(dataset_dir / "grid.json"),
            "--intrinsics", str(dataset_dir / "calib" / "intrinsics_left.json"),
            "--out", str(dataset_dir / "calib" / "plane.json"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "grid config sha256" in out
        payload = json.loads((dataset_dir / "calib" / "plane.json").read_text())
        assert payload["rms_px"] < 1e-6

    def test_collinear_corners_degenerate(self, dataset_dir, tmp_path):
        rows = read_csv_rows(dataset_dir / "plane_corners.csv")
        header, body = rows[0], [r for r in rows[1:] if r[2] == "2"]
        path = tmp_path / "line.csv"
        path.write_text("\n".join([",".join(header)] + [",".join(r) for r in body]) + "\n")
        rc = main([
            "plane-pose", "--corners", str(path), "--grid", str(dataset_dir / "grid.json"),
            "--intrinsics", str(dataset_dir / "calib" / "intrinsics_left.json"),
            "--out", str(tmp_path / "plane.json"),
        ])
        assert rc == 3

    def test_corner_past_the_lens_fold_is_not_invertible(self, dataset_dir, tmp_path, capsys):
        """With k3 = -0.048, a value fitted on a calibration whose corners stop short of the plane's,
        the lens folds over at r_d ~0.80, inside the plane corners' reach of ~1.06. The corners past
        the fold have no preimage, so the library raises NotInvertibleError and plane-pose exits 2
        without writing, while the corners inside the fold alone still fit."""
        from dataclasses import replace

        from planegaze.camera import undistort_pixels
        from planegaze.errors import NotInvertibleError
        from planegaze.formats import read_grid_config, read_intrinsics, read_plane_corners, write_intrinsics
        from planegaze.plane import estimate_plane_pose

        true_lens = read_intrinsics(dataset_dir / "calib" / "intrinsics_left.json")
        K = replace(true_lens, dist=(*true_lens.dist[:4], -0.048))
        k1, k2, _, _, k3 = K.dist
        s = min(r.real for r in np.roots([7 * k3, 5 * k2, 3 * k1, 1]) if abs(r.imag) < 1e-12 and r.real > 0)
        fold = np.sqrt(s) * (1 + k1 * s + k2 * s ** 2 + k3 * s ** 3)
        corners = read_plane_corners(dataset_dir / "plane_corners.csv")
        past = np.hypot((corners.uv[:, 0] - K.cx) / K.fx, (corners.uv[:, 1] - K.cy) / K.fy) > fold
        assert 0 < past.sum() < len(past)
        assert np.array_equal(np.isnan(undistort_pixels(K, corners.uv)).any(axis=1), past)
        grid = read_grid_config(dataset_dir / "grid.json")
        with pytest.raises(NotInvertibleError):
            estimate_plane_pose(corners, grid, K)
        estimate_plane_pose(corners.take(~past), grid, K)

        intrinsics, out = tmp_path / "intrinsics_left.json", tmp_path / "plane.json"
        write_intrinsics(intrinsics, K, camera="left")
        rc = main(["plane-pose", "--corners", str(dataset_dir / "plane_corners.csv"),
                   "--grid", str(dataset_dir / "grid.json"), "--intrinsics", str(intrinsics), "--out", str(out)])
        assert rc == 2
        i, j = min(map(tuple, corners.ij[past].tolist()))  # the first corner past the fold, as sorted
        err = capsys.readouterr().err
        assert f"plane corner (i, j) = ({i}, {j}) at pixel" in err and "no preimage inside the lens fold" in err
        assert not out.exists()

    @pytest.mark.parametrize("case", ["calibration_file", "right_camera", "second_view"])
    def test_corners_must_be_one_left_view(self, dataset_dir, tmp_path, capsys, case):
        """Plane corners are one view seen by the left camera; the first row that is not is named."""
        source = dataset_dir / ("corners.csv" if case == "calibration_file" else "plane_corners.csv")
        lines = source.read_text().splitlines()
        header = next(k for k, line in enumerate(lines) if not line.startswith("#"))
        if case == "calibration_file":  # a two-camera, many-view calibration file
            bad = next(k for k in range(header + 1, len(lines)) if ",right," in lines[k])
        elif case == "right_camera":
            lines = [line.replace(",left,", ",right,") for line in lines]
            bad = header + 1
        else:
            bad = len(lines) - 1
            lines[bad] = lines[bad].replace("plane,", "plane2,", 1)
        path = tmp_path / "corners.csv"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "plane.json"
        rc = main([
            "plane-pose", "--corners", str(path), "--grid", str(dataset_dir / "grid.json"),
            "--intrinsics", str(dataset_dir / "calib" / "intrinsics_left.json"), "--out", str(out),
        ])
        assert rc == 1
        assert f"{path}:{bad + 1}: plane corners must" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_grid_argument_is_usage_error(self, dataset_dir, capsys):
        rc = main([
            "plane-pose", "--corners", str(dataset_dir / "plane_corners.csv"),
            "--intrinsics", str(dataset_dir / "calib" / "intrinsics_left.json"),
            "--out", "x.json",
        ])
        assert rc == 1
        assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize("size, message", [
    ("0x720", "image size must be positive, got 0x720"),
    ("1280x-720", "image size must be positive, got 1280x-720"),
    ("1280", "image size must look like 1280x720, got '1280'"),
])
def test_bad_image_size_is_usage_error(dataset_dir, tmp_path, capsys, size, message):
    rc = main(["calibrate", "--corners", str(dataset_dir / "corners.csv"), "--grid", str(dataset_dir / "grid.json"),
               "--image-size", size, "--out", str(tmp_path / "calib")])
    assert rc == 1
    assert f"argument --image-size: {message}" in capsys.readouterr().err
    assert not (tmp_path / "calib").exists()


class TestEvaluateAndReport:
    def test_evaluate_writes_bundle(self, dataset_dir, tmp_path):
        report = tmp_path / "report"
        rc = main(["evaluate", "--manifest", str(dataset_dir / "manifest.json"), "--out", str(report)])
        assert rc == 0
        rows = read_csv_rows(report / "summary.csv")
        assert rows[0][0] == "method"
        assert len(rows) == 1 + 6  # 2 methods x (overall + 2 tags)
        payload = json.loads((report / "report.json").read_text())
        assert payload["provenance"]["tool"].startswith("planegaze")

    def test_cdf_csv_sorted_and_monotone(self, dataset_dir, tmp_path):
        report = tmp_path / "report"
        assert main(["evaluate", "--manifest", str(dataset_dir / "manifest.json"), "--out", str(report)]) == 0
        rows = read_csv_rows(report / "cdf.csv")[1:]
        series = {}
        for method, tag, kind, threshold, fraction in rows:
            series.setdefault((method, tag, kind), []).append((float(threshold), float(fraction)))
        assert series
        for pts in series.values():
            ts = [t for t, _ in pts]
            fs = [f for _, f in pts]
            assert ts == sorted(ts)
            assert all(a <= b for a, b in zip(fs, fs[1:]))

    def test_missing_predictions_counted_as_skipped(self, dataset_dir, tmp_path, caplog):
        import shutil

        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        pred = data / "pred_oracle-offset.csv"
        lines = pred.read_text().splitlines()
        dropped = [ln for k, ln in enumerate(lines) if not (ln.startswith("f") and k >= len(lines) - 3)]
        pred.write_text("\n".join(dropped) + "\n")
        report = tmp_path / "report"
        assert main(["evaluate", "--manifest", str(data / "manifest.json"), "--out", str(report)]) == 0
        rows = read_csv_rows(report / "summary.csv")
        header = rows[0]
        skip_col = header.index("n_skipped")
        offset_row = next(r for r in rows[1:] if r[0] == "oracle-offset" and r[1] == "")
        assert int(offset_row[skip_col]) == 3
        payload = json.loads((tmp_path / "report" / "report.json").read_text())
        assert len(payload["skipped"]["oracle-offset"]) == 3

    def test_report_table(self, dataset_dir, tmp_path, capsys):
        report = tmp_path / "report"
        assert main(["evaluate", "--manifest", str(dataset_dir / "manifest.json"), "--out", str(report)]) == 0
        capsys.readouterr()
        rc = main(["report", "--report", str(report)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Mean Angular (deg)" in out
        assert "oracle-offset" in out

    def test_report_empty_filter(self, dataset_dir, tmp_path, capsys):
        report = tmp_path / "report"
        assert main(["evaluate", "--manifest", str(dataset_dir / "manifest.json"), "--out", str(report)]) == 0
        capsys.readouterr()
        rc = main(["report", "--report", str(report), "--method", "nonexistent"])
        assert rc == 3
        assert "no frames matched" in capsys.readouterr().err

    def test_report_tag_filter(self, dataset_dir, tmp_path, capsys):
        report = tmp_path / "report"
        assert main(["evaluate", "--manifest", str(dataset_dir / "manifest.json"), "--out", str(report)]) == 0
        rows = read_csv_rows(report / "summary.csv")[1:]
        for tag, tag_filter in (("all", ""), ("glasses", "glasses")):
            capsys.readouterr()
            assert main(["report", "--report", str(report), "--tag", tag]) == 0
            shown = [line.split()[:2] for line in capsys.readouterr().out.splitlines()[2:]]
            assert shown == [[r[0], tag] for r in rows if r[1] == tag_filter] and shown

    def test_method_filter(self, dataset_dir, tmp_path):
        report = tmp_path / "report"
        rc = main([
            "evaluate", "--manifest", str(dataset_dir / "manifest.json"),
            "--methods", "oracle-absolute", "--out", str(report),
        ])
        assert rc == 0
        rows = read_csv_rows(report / "summary.csv")[1:]
        assert {r[0] for r in rows} == {"oracle-absolute"}

    def test_custom_thresholds(self, dataset_dir, tmp_path):
        report = tmp_path / "report"
        rc = main([
            "evaluate", "--manifest", str(dataset_dir / "manifest.json"),
            "--thresholds", "5,25", "--out", str(report),
        ])
        assert rc == 0
        header = read_csv_rows(report / "summary.csv")[0]
        assert "p_at_5cm" in header and "p_at_25cm" in header

    def test_repeated_methods_and_tags_count_once(self, dataset_dir, tmp_path, capsys):
        manifest = str(dataset_dir / "manifest.json")
        once, twice = tmp_path / "once", tmp_path / "twice"
        assert main(["evaluate", "--manifest", manifest, "--methods", "oracle-offset",
                     "--tags", "glasses", "--out", str(once)]) == 0
        assert main(["evaluate", "--manifest", manifest, "--methods", "oracle-offset,oracle-offset",
                     "--tags", "glasses,glasses", "--out", str(twice)]) == 0
        assert "evaluated 1 methods, wrote 1 summary rows" in capsys.readouterr().out
        for name in ("summary.csv", "cdf.csv", "histogram.csv"):
            assert read_csv_rows(once / name) == read_csv_rows(twice / name)
        config = json.loads((twice / "report.json").read_text())["provenance"]["config"]
        assert config["methods"] == ["oracle-offset"] and config["tag_filters"] == ["glasses"]

    def test_tag_filter_no_frame_carries_is_a_parse_error(self, dataset_dir, tmp_path, capsys):
        """As an unknown method is: no report without rows, and exit 0, for a misspelt tag."""
        report = tmp_path / "report"
        rc = main(["evaluate", "--manifest", str(dataset_dir / "manifest.json"),
                   "--tags", ",glases", "--out", str(report)])
        assert rc == 1
        assert "tag 'glases' not in manifest frames" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("values", ["12.5,12.500001", "0.1,1e-7,0.10000001", "1e6,1000000.4"])
    def test_thresholds_sharing_a_column_are_a_usage_error(self, dataset_dir, tmp_path, capsys, values):
        report = tmp_path / "report"
        rc = main(["evaluate", "--manifest", str(dataset_dir / "manifest.json"),
                   "--thresholds", values, "--out", str(report)])
        assert rc == 1
        first, second = sorted(float(v) for v in values.split(","))[-2:]
        err = capsys.readouterr().err
        assert f"thresholds {first!r} and {second!r} cm share the summary column" in err
        assert not report.exists()

    def test_colliding_thresholds_rejected_before_the_manifest_is_read(self, tmp_path, capsys):
        rc = main(["evaluate", "--manifest", str(tmp_path / "absent.json"), "--thresholds", "12.5,12.500001",
                   "--out", str(tmp_path / "r")])
        assert rc == 1 and "share the summary column" in capsys.readouterr().err


class TestVersionAndUsage:
    def test_version_flag(self, capsys):
        rc = main(["--version"])
        assert rc == 0
        assert "planegaze" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("argv", [["evaluate", "--plane", "{data}/calib/plane.json"],
                                      ["--config", "{data}/grid.json", "evaluate"],
                                      ["evaluate", "--config", "{data}/grid.json"]])
    def test_removed_evaluate_flags_are_usage_errors(self, dataset_dir, tmp_path, capsys, argv):
        """The plane pose comes from the manifest alone, and the thresholds from --thresholds alone."""
        argv = [a.format(data=dataset_dir) for a in argv]
        assert main([*argv, "--manifest", str(dataset_dir / "manifest.json"), "--out", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err.startswith("usage: planegaze")
        assert not (tmp_path / "r").exists()


class TestMultipleFacesRejected:
    def test_duplicate_face_rows_error(self, dataset_dir, tmp_path, capsys):
        import shutil

        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        faces = data / "faces.csv"
        lines = faces.read_text().splitlines()
        lines.append(lines[-1])  # duplicate the last observation
        faces.write_text("\n".join(lines) + "\n")
        rc = main(["evaluate", "--manifest", str(data / "manifest.json"), "--out", str(tmp_path / "r")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "exactly one face" in err
        assert f"faces.csv:{len(lines)}:" in err


class TestOrderIndependence:
    def test_manifest_frame_order_does_not_change_reports(self, dataset_dir, tmp_path):
        import shutil

        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        manifest_path = data / "manifest.json"
        payload = json.loads(manifest_path.read_text())
        payload["frames"] = list(reversed(payload["frames"]))
        manifest_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

        rep_a, rep_b = tmp_path / "ra", tmp_path / "rb"
        assert main(["evaluate", "--manifest", str(dataset_dir / "manifest.json"), "--out", str(rep_a)]) == 0
        assert main(["evaluate", "--manifest", str(manifest_path), "--out", str(rep_b)]) == 0
        # results must match; the provenance header legitimately differs
        # because the reordered manifest hashes differently
        for name in ("summary.csv", "cdf.csv", "histogram.csv"):
            assert read_csv_rows(rep_a / name) == read_csv_rows(rep_b / name), name

    def test_tag_filter_flag(self, dataset_dir, tmp_path):
        report = tmp_path / "report"
        rc = main([
            "evaluate", "--manifest", str(dataset_dir / "manifest.json"),
            "--tags", ",glasses", "--out", str(report),
        ])
        assert rc == 0
        rows = read_csv_rows(report / "summary.csv")[1:]
        assert {r[1] for r in rows} == {"", "glasses"}


class TestFailureAccounting:
    def test_missing_face_counted_as_skipped(self, dataset_dir, tmp_path):
        import shutil

        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        faces = data / "faces.csv"
        lines = faces.read_text().splitlines()
        victim = next(l for l in lines if l.startswith("f00003,left"))
        faces.write_text("\n".join(l for l in lines if l != victim) + "\n")
        report = tmp_path / "report"
        assert main(["evaluate", "--manifest", str(data / "manifest.json"), "--out", str(report)]) == 0
        payload = json.loads((report / "report.json").read_text())
        assert ["f00003", "missing_face_observation"] in payload["skipped"]["oracle-offset"]

    def test_upward_bias_makes_failures_and_max_median(self, tmp_path, capsys):
        # a +120 deg pitch bias points every corrected ray above the surface:
        # all frames fail, the median distance is infinite, report prints >MAX
        data = tmp_path / "data"
        assert main([
            "synth", "--out", str(data), "--frames", "10", "--calib-views", "3",
            "--seed", "23", "--gaze-bias", "0", "120",
        ]) == 0
        report = tmp_path / "report"
        assert main(["evaluate", "--manifest", str(data / "manifest.json"), "--out", str(report)]) == 0
        rows = read_csv_rows(report / "summary.csv")
        header = rows[0]
        overall = next(r for r in rows[1:] if r[0] == "oracle-offset" and r[1] == "")
        assert int(overall[header.index("n_failures")]) == 10
        assert float(overall[header.index("median_distance_cm")]) == float("inf")
        assert float(overall[header.index("p_at_50cm")]) == 0.0
        capsys.readouterr()
        assert main(["report", "--report", str(report)]) == 0
        assert ">MAX" in capsys.readouterr().out


class TestSceneConfig:
    def test_scene_file_overrides(self, tmp_path):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps({
            "schema": "planegaze-scene-v1",
            "frames": 5,
            "seed": 77,
            "calib_views": 2,
            "participants": [[[0.10, 0.66, 0.30], [0.20, 0.80, 0.44]]],
            "methods": [{"name": "solo", "convention": "absolute", "head_source": "bbox_center"}],
        }))
        out = tmp_path / "data"
        assert main(["synth", "--out", str(out), "--scene", str(scene)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["frames"]) == 5
        assert list(manifest["predictions"]) == ["solo"]
        assert (out / "pred_solo.csv").exists()

    def test_scene_file_requires_schema(self, tmp_path, capsys):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps({"frames": 5}))
        rc = main(["synth", "--out", str(tmp_path / "d"), "--scene", str(scene)])
        assert rc == 1
        assert "schema" in capsys.readouterr().err

    def test_scene_file_bad_box_named(self, tmp_path, capsys):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps({
            "schema": "planegaze-scene-v1",
            "participants": [[[0.1, 0.6, -0.2], [0.2, 0.8, 0.4]]],
        }))
        rc = main(["synth", "--out", str(tmp_path / "d"), "--scene", str(scene)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "above the plane" in err

    @pytest.mark.parametrize(
        "payload",
        [
            {"schema": "planegaze-scene-v1", "grid": {"rows": 5}},
            {"schema": "planegaze-scene-v1", "frames": [3]},
            {"schema": "planegaze-scene-v1", "methods": [{"convention": "absolute"}]},
            {"schema": "planegaze-scene-v1", "participants": [[1, 2]]},
            [1, 2],
            {"schema": "planegaze-scene-v1", "methods": [{"name": "m", "head_source": "nose"}]},
            {"schema": "planegaze-scene-v1", "methods": [{"name": "m", "convention": "sideways"}]},
            {"schema": "planegaze-scene-v1", "seed": -1},
            {"schema": "planegaze-scene-v1", "seed": 2**64},
        ],
        ids=[
            "grid-fields", "frames-list", "method-name", "participant-box", "array", "head-source", "convention",
            "negative-seed", "seed-past-64-bits",
        ],
    )
    def test_malformed_scene_named(self, tmp_path, capsys, payload):
        scene, out = tmp_path / "scene.json", tmp_path / "d"
        scene.write_text(json.dumps(payload))
        assert main(["synth", "--out", str(out), "--scene", str(scene)]) == 1
        assert f"{scene}: " in capsys.readouterr().err
        assert not out.exists()

    GRID = {"square_size_m": 0.05, "rows": 4, "cols": 6, "targets": {"1": [0, 1]}}

    def test_frames_without_targets_named(self, tmp_path, capsys):
        scene, out = tmp_path / "scene.json", tmp_path / "d"
        scene.write_text(json.dumps({"schema": "planegaze-scene-v1", "grid": dict(self.GRID, targets={})}))
        assert main(["synth", "--out", str(out), "--scene", str(scene), "--frames", "3"]) == 1
        err = capsys.readouterr().err
        assert f"{scene}: " in err and "at least one target" in err
        assert not out.exists()
        assert main(["synth", "--out", str(out), "--scene", str(scene), "--frames", "0", "--calib-views", "1"]) == 0
        assert json.loads((out / "manifest.json").read_text())["frames"] == []

    def test_seed_flag_past_64_bits_rejected(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["synth", "--out", str(out), "--frames", "1", "--seed", "18446744073709551616"]) == 1
        assert "seed must be < 2**64" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed, message", [("18446744073709551616", "< 2**64"), ("-1", ">= 0"), ("x", "an integer")])
    def test_bad_seed_flag_names_the_flag_not_the_scene(self, tmp_path, capsys, seed, message):
        scene, out = tmp_path / "s.json", tmp_path / "d"
        scene.write_text(json.dumps({"schema": "planegaze-scene-v1"}))
        assert main(["synth", "--out", str(out), "--scene", str(scene), "--seed", seed]) == 1
        err = capsys.readouterr().err
        assert f"argument --seed: seed must be {message}" in err and str(scene) not in err
        assert not out.exists()

    def test_bad_seed_key_names_the_scene(self, tmp_path, capsys):
        scene, out = tmp_path / "s.json", tmp_path / "d"
        scene.write_text(json.dumps({"schema": "planegaze-scene-v1", "seed": 2**64}))
        assert main(["synth", "--out", str(out), "--scene", str(scene), "--seed", "5"]) == 1
        err = capsys.readouterr().err
        assert f"{scene}: invalid scene config: seed must be < 2**64" in err and "--seed" not in err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("frames", 2.5), ("frames", True), ("seed", "7"), ("calib_views", 2.0),
        ("grid.rows", 4.7), ("grid.cols", True), ("grid.target", [0.0, 1]), ("grid.target", [0, "1"]),
    ])
    def test_integer_fields_must_be_json_integers(self, tmp_path, capsys, field, value):
        payload = {"schema": "planegaze-scene-v1", "grid": dict(self.GRID)}
        if field == "grid.target":
            payload["grid"]["targets"] = {"1": value}
        elif field.startswith("grid."):
            payload["grid"][field[5:]] = value
        else:
            payload[field] = value
        scene, out = tmp_path / "scene.json", tmp_path / "d"
        scene.write_text(json.dumps(payload))
        assert main(["synth", "--out", str(out), "--scene", str(scene)]) == 1
        err = capsys.readouterr().err
        assert f"{scene}: " in err and "must be an integer" in err
        assert not out.exists()


class TestJsonShape:
    """Valid JSON of the wrong shape is a parse error naming the file, not a traceback."""

    CASES = {
        "manifest-array": ("evaluate", "manifest.json", lambda p: [1, 2]),
        "manifest-predictions-list": ("evaluate", "manifest.json", lambda p: {**p, "predictions": [1]}),
        "manifest-calibration-list": ("evaluate", "manifest.json", lambda p: {**p, "calibration": [1]}),
        "manifest-grid-config-number": ("evaluate", "manifest.json", lambda p: {**p, "grid_config": 5}),
        "grid-array": ("plane-pose", "grid.json", lambda p: [1, 2]),
        "grid-targets-list": ("plane-pose", "grid.json", lambda p: {**p, "targets": [1]}),
        "grid-rows-float": ("plane-pose", "grid.json", lambda p: {**p, "rows": 4.0}),
        "intrinsics-string": ("plane-pose", "calib/intrinsics_left.json", lambda p: "a string"),
        "plane-rms-list": ("evaluate", "calib/plane.json", lambda p: {**p, "rms_px": [1]}),
        "plane-frames-swapped": ("evaluate", "calib/plane.json",
                                 lambda p: {**p, "src_frame": "plane", "dst_frame": "camera"}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_wrong_shape_named(self, dataset_dir, tmp_path, capsys, case):
        import shutil

        command, name, edit = self.CASES[case]
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        target = data / name
        target.write_text(json.dumps(edit(json.loads(target.read_text()))))
        if command == "evaluate":
            argv = ["evaluate", "--manifest", str(data / "manifest.json"), "--out", str(tmp_path / "r")]
        else:
            argv = [
                "plane-pose", "--corners", str(data / "plane_corners.csv"), "--grid", str(data / "grid.json"),
                "--intrinsics", str(data / "calib" / "intrinsics_left.json"), "--out", str(tmp_path / "p.json"),
            ]
        assert main(argv) == 1
        assert f"{target}: " in capsys.readouterr().err

    def test_malformed_json_names_its_line(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text('{\n  "schema": "planegaze-manifest-v1",\n  oops\n}\n')
        assert main(["evaluate", "--manifest", str(manifest), "--out", str(tmp_path / "r")]) == 1
        assert f"error: {manifest}:3: invalid JSON: " in capsys.readouterr().err
        assert not (tmp_path / "r").exists()


def _set(path: str, value):
    """An edit of a JSON object that sets the entry at ``path`` (keys and list indices, dot-separated)
    to ``value``, or to ``value(old entry)`` for a callable such as ``str``."""
    *outer, last = [int(k) if k.isdigit() else k for k in path.split(".")]

    def edit(payload):
        node = payload
        for key in outer:
            node = node[key]
        node[last] = value(node[last]) if callable(value) else value
        return payload

    return edit


class TestJsonNumbers:
    """A number read from JSON must be a finite JSON number: true, a string such as "0.06",
    NaN or Infinity is a parse error naming the file, while an integer such as 350 stays valid.
    An intrinsics block's skew must be 0: the camera model has no skew term."""

    @staticmethod
    def _copy_with(dataset_dir, tmp_path, name, edit):
        import shutil

        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        target = data / name
        target.write_text(json.dumps(edit(json.loads(target.read_text()))))
        return data, target

    @staticmethod
    def _plane_pose(data, tmp_path):
        return main(["plane-pose", "--corners", str(data / "plane_corners.csv"), "--grid", str(data / "grid.json"),
                     "--intrinsics", str(data / "calib" / "intrinsics_left.json"), "--out", str(tmp_path / "p.json")])

    @staticmethod
    def _evaluate(data, tmp_path, *args):
        return main(["evaluate", "--manifest", str(data / "manifest.json"), "--out", str(tmp_path / "r"), *args])

    @pytest.mark.parametrize("value", [True, "0.06", float("nan"), float("inf")])
    def test_grid(self, dataset_dir, tmp_path, capsys, value):
        data, target = self._copy_with(dataset_dir, tmp_path, "grid.json", _set("square_size_m", value))
        assert self._plane_pose(data, tmp_path) == 1
        assert f"{target}: " in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("fx", str), ("cy", True), ("skew", "0"), ("dist.0", float("nan")), ("dist.4", float("-inf")),
        ("image_size.0", 1280.0), ("skew", 0.5),
    ])
    def test_intrinsics(self, dataset_dir, tmp_path, capsys, field, value):
        data, target = self._copy_with(dataset_dir, tmp_path, "calib/intrinsics_left.json", _set(field, value))
        assert self._plane_pose(data, tmp_path) == 1
        assert f"{target}: " in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("right_from_left.translation_m.0", True), ("right_from_left.rotation.0.0", str), ("left.fy", str),
        ("right.skew", 0.5),
    ])
    def test_stereo(self, dataset_dir, tmp_path, capsys, field, value):
        data, target = self._copy_with(dataset_dir, tmp_path, "calib/stereo.json", _set(field, value))
        assert self._evaluate(data, tmp_path) == 1
        assert f"{target}: " in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("rms_px", "0.5"), ("rotation.2.2", str), ("translation_m.1", True)])
    def test_plane_pose(self, dataset_dir, tmp_path, capsys, field, value):
        data, target = self._copy_with(dataset_dir, tmp_path, "calib/plane.json", _set(field, value))
        assert self._evaluate(data, tmp_path) == 1
        assert f"{target}: " in capsys.readouterr().err

    @pytest.mark.parametrize("box", [[["0.05", 0.65, 0.28], [0.25, 0.85, 0.45]],
                                     [[0.05, 0.65, 0.28], [0.25, True, 0.45]]])
    def test_scene(self, tmp_path, capsys, box):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps({"schema": "planegaze-scene-v1", "participants": [box]}))
        assert main(["synth", "--out", str(tmp_path / "d"), "--scene", str(scene)]) == 1
        assert f"{scene}: " in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_integer_values_stay_valid(self, dataset_dir, tmp_path):
        def round_k(p):
            return {**p, "fx": round(p["fx"]), "fy": round(p["fy"]), "skew": 0}

        data, _ = self._copy_with(dataset_dir, tmp_path, "calib/intrinsics_left.json", round_k)
        assert self._plane_pose(data, tmp_path) == 0


class TestProvenance:
    def test_report_csvs_embed_tool_and_hashes(self, dataset_dir, tmp_path):
        report = tmp_path / "report"
        assert main(["evaluate", "--manifest", str(dataset_dir / "manifest.json"), "--out", str(report)]) == 0
        for name in ("summary.csv", "cdf.csv", "histogram.csv"):
            head = (report / name).read_text().splitlines()[:8]
            assert any(l.startswith("# tool: planegaze") for l in head), name
            assert any(l.startswith("# manifest_sha256:") for l in head), name
            assert any("faces.csv=" in l for l in head if l.startswith("# inputs_sha256:")), name

    def test_each_input_is_hashed_once(self, dataset_dir, tmp_path, monkeypatch, capsys):
        import planegaze.cli
        import planegaze.formats

        hashed = []
        for module in (planegaze.formats, planegaze.cli):  # wherever the name is bound
            monkeypatch.setattr(module, "sha256_file", lambda path: hashed.append(path) or sha256_file(path),
                                raising=False)
        grid = dataset_dir / "grid.json"
        assert main(["plane-pose", "--corners", str(dataset_dir / "plane_corners.csv"), "--grid", str(grid),
                     "--intrinsics", str(dataset_dir / "calib" / "intrinsics_left.json"),
                     "--out", str(tmp_path / "plane.json")]) == 0
        assert len(hashed) == 3 and f"grid config sha256: {sha256_file(grid)}" in capsys.readouterr().out
        hashed.clear()
        assert main(["evaluate", "--manifest", str(dataset_dir / "manifest.json"), "--out", str(tmp_path / "r")]) == 0
        inputs = json.loads((tmp_path / "r" / "report.json").read_text())["provenance"]["inputs"]
        assert len(hashed) == len(inputs)

    def test_calibrate_keeps_corner_files_that_share_a_name(self, dataset_dir, tmp_path):
        lines = (dataset_dir / "corners.csv").read_text().splitlines(keepends=True)
        head = [l for l in lines if l.startswith("#")] + ["view_id,camera,i,j,u,v\n"]
        for sub, camera in (("a", "left"), ("b", "right")):
            (tmp_path / sub).mkdir()
            (tmp_path / sub / "corners.csv").write_text("".join(
                head + [l for l in lines if l.split(",")[1:2] == [camera]]))
        a, b = tmp_path / "a" / "corners.csv", tmp_path / "b" / "corners.csv"
        out = tmp_path / "calib"
        assert main(["calibrate", "--corners", str(a), "--corners", str(b), "--grid", str(dataset_dir / "grid.json"),
                     "--image-size", "1280x720", "--out", str(out)]) == 0
        inputs = json.loads((out / "stereo.json").read_text())["provenance"]["inputs"]
        assert inputs == {"a/corners.csv": sha256_file(a), "b/corners.csv": sha256_file(b),
                          "grid.json": sha256_file(dataset_dir / "grid.json")}

    def test_evaluate_keeps_prediction_files_that_share_a_name(self, dataset_dir, tmp_path):
        import shutil

        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        payload = json.loads((data / "manifest.json").read_text())
        for sub, entry in zip(("a", "b/c"), payload["predictions"].values()):
            (data / sub).mkdir(parents=True)
            shutil.move(data / entry["path"], data / sub / "pred.csv")
            entry["path"] = f"{sub}/pred.csv"
        (data / "manifest.json").write_text(json.dumps(payload))
        report = tmp_path / "report"
        assert main(["evaluate", "--manifest", str(data / "manifest.json"), "--out", str(report)]) == 0
        inputs = json.loads((report / "report.json").read_text())["provenance"]["inputs"]
        assert inputs["a/pred.csv"] == sha256_file(data / "a" / "pred.csv")
        assert inputs["b/c/pred.csv"] == sha256_file(data / "b" / "c" / "pred.csv")
        assert inputs["manifest.json"] == sha256_file(data / "manifest.json") and "pred.csv" not in inputs
        meta = dict(l[2:].split(": ", 1) for l in (report / "cdf.csv").read_text().splitlines() if l.startswith("# "))
        assert meta["manifest_sha256"] == inputs["manifest.json"]
        assert meta["inputs_sha256"] == ";".join(f"{k}={v}" for k, v in sorted(inputs.items()))


def _json_edit(edit):
    """A text edit of a JSON file: ``edit`` of its payload, as JSON."""
    return lambda text: json.dumps(edit(json.loads(text)))


def _without(key: str):
    """A text edit of a JSON file that drops its top-level ``key``."""
    return _json_edit(lambda p: {k: v for k, v in p.items() if k != key})


def _comments_only(text: str) -> str:
    """A CSV file's leading comment lines, without its header and rows."""
    return "".join(line for line in text.splitlines(keepends=True) if line.startswith("#"))


def _comments_and_header(text: str) -> str:
    """A CSV file's text up to and including its header row."""
    lines = text.splitlines(keepends=True)
    return "".join(lines[:1 + next(k for k, line in enumerate(lines) if not line.startswith("#"))])


class TestInputErrors:
    """Each input error exits 1 with its message and creates no --out."""

    EVALUATE = ["evaluate", "--manifest", "{data}/manifest.json"]
    CASES = {
        "file-not-found": (None, ["evaluate", "--manifest", "{data}/absent.json"], "{data}/absent.json: file not found"),
        "missing-header-row": (("faces.csv", _comments_only), EVALUATE, "{data}/faces.csv: missing header row"),
        "manifest-missing-faces": (("manifest.json", _without("faces")), EVALUATE,
                                   "{data}/manifest.json: manifest missing 'faces'"),
        "manifest-missing-plane-pose": (("manifest.json", _without("plane_pose")), EVALUATE,
                                        "{data}/manifest.json: manifest missing 'plane_pose'"),
        "prediction-without-path": (("manifest.json", _json_edit(_set("predictions.oracle-offset", {}))), EVALUATE,
                                    "{data}/manifest.json: prediction entry 'oracle-offset' needs a 'path'"),
        "method-not-in-manifest": (None, [*EVALUATE, "--methods", "zzz"], "method 'zzz' not in manifest predictions"),
        "header-only-corner-file": (("corners.csv", _comments_and_header),
                                    ["calibrate", "--corners", "{data}/corners.csv", "--grid", "{data}/grid.json",
                                     "--image-size", "1280x720"], "corner files contain no observations"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_1_with_its_message(self, dataset_dir, tmp_path, capsys, case):
        import shutil

        edit, argv, message = self.CASES[case]
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        if edit is not None:
            name, change = edit
            (data / name).write_text(change((data / name).read_text()))
        out = tmp_path / "out"
        assert main([*(a.format(data=data) for a in argv), "--out", str(out)]) == 1
        assert f"error: {message.format(data=data)}\n" in capsys.readouterr().err
        assert not out.exists()


class TestReportInputs:
    def test_report_on_a_non_summary_csv_is_a_parse_error(self, dataset_dir, tmp_path, capsys):
        report = tmp_path / "report"
        assert main(["evaluate", "--manifest", str(dataset_dir / "manifest.json"), "--out", str(report)]) == 0
        capsys.readouterr()
        header_line = next(k for k, l in enumerate((report / "cdf.csv").read_text().splitlines(), 1)
                           if not l.startswith("#"))
        assert main(["report", "--report", str(report / "cdf.csv")]) == 1
        err = capsys.readouterr().err
        assert f"cdf.csv:{header_line}: bad header" in err

    def test_report_json_hashes_the_manifest_given(self, dataset_dir, tmp_path):
        import shutil

        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        payload = json.loads((data / "manifest.json").read_text())
        payload["frames"].reverse()
        other = data / "manifest_reversed.json"
        other.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        report = tmp_path / "report"
        assert main(["evaluate", "--manifest", str(other), "--out", str(report)]) == 0
        inputs = json.loads((report / "report.json").read_text())["provenance"]["inputs"]
        meta = dict(l[2:].split(": ", 1) for l in (report / "summary.csv").read_text().splitlines()
                    if l.startswith("# "))
        assert "manifest.json" not in inputs
        assert inputs["manifest_reversed.json"] == meta["manifest_sha256"]


class TestNonFiniteInputs:
    """A nan or inf number in an input CSV is a parse error naming file and line."""

    @staticmethod
    def _poison(path: Path, prefix: str, column: int, value: str) -> int:
        lines = path.read_text().splitlines()
        k = next(k for k, l in enumerate(lines) if l.startswith(prefix))
        cells = lines[k].split(",")
        cells[column] = value
        lines[k] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        return k + 1

    def test_nan_prediction_angle(self, dataset_dir, tmp_path, capsys):
        import shutil

        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        lineno = self._poison(data / "pred_oracle-offset.csv", "f00000,", 2, "nan")
        rc = main(["evaluate", "--manifest", str(data / "manifest.json"), "--out", str(tmp_path / "r")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"pred_oracle-offset.csv:{lineno}:" in err and "'yaw'" in err

    def test_nan_eye_coordinate(self, dataset_dir, tmp_path, capsys):
        import shutil

        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        lineno = self._poison(data / "faces.csv", "f00000,left,", 6, "nan")
        assert lineno == 6
        rc = main(["evaluate", "--manifest", str(data / "manifest.json"), "--out", str(tmp_path / "r")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "faces.csv:6:" in err and "'eye_u'" in err

    def test_infinite_corner_pixel(self, dataset_dir, tmp_path):
        from planegaze.errors import FormatError
        from planegaze.formats import read_corners

        path = tmp_path / "corners.csv"
        path.write_text((dataset_dir / "corners.csv").read_text())
        lineno = self._poison(path, "calib000,left,", 4, "inf")
        with pytest.raises(FormatError) as info:
            read_corners(path)
        assert info.value.line == lineno


class TestThresholdChecks:
    """Precision thresholds: one column per distinct value, finite and >= 0."""

    def _evaluate(self, dataset_dir, tmp_path, *args):
        return main(["evaluate", "--manifest", str(dataset_dir / "manifest.json"),
                     "--out", str(tmp_path / "r"), *args])

    def test_duplicate_thresholds_give_one_column(self, dataset_dir, tmp_path):
        assert self._evaluate(dataset_dir, tmp_path, "--thresholds", "10,20,10") == 0
        header = read_csv_rows(tmp_path / "r" / "summary.csv")[0]
        assert [h for h in header if h.startswith("p_at_")] == ["p_at_10cm", "p_at_20cm"]
        assert json.loads((tmp_path / "r" / "report.json").read_text())["thresholds_cm"] == [10.0, 20.0]

    def test_negative_zero_writes_the_bytes_of_zero(self, dataset_dir, tmp_path):
        for name, value in {"zero": "0,10", "flag": "-0,10"}.items():
            assert main(["evaluate", "--manifest", str(dataset_dir / "manifest.json"),
                         "--out", str(tmp_path / name), f"--thresholds={value}"]) == 0
        want = {p.name: p.read_bytes() for p in (tmp_path / "zero").iterdir()}
        assert b"p_at_0cm" in want["summary.csv"] and b'"0.0"' in want["report.json"]
        assert {p.name: p.read_bytes() for p in (tmp_path / "flag").iterdir()} == want

    @pytest.mark.parametrize("value", ["nan,10", "10,inf", "-5", "10,,20", "ten", ""])
    def test_bad_flag_value_rejected(self, dataset_dir, tmp_path, capsys, value):
        assert self._evaluate(dataset_dir, tmp_path, "--thresholds", value) == 1
        assert "--thresholds" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()



class TestMalformedDatasetRows:
    """Repeated prediction rows and non-list manifest tags are parse errors."""

    def test_repeated_prediction_row(self, dataset_dir, tmp_path, capsys):
        import shutil

        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        pred = data / "pred_oracle-absolute.csv"
        lines = pred.read_text().splitlines()
        first = next(k for k, l in enumerate(lines) if l.startswith("f00000,"))
        lines.append(lines[first])
        pred.write_text("\n".join(lines) + "\n")
        rc = main(["evaluate", "--manifest", str(data / "manifest.json"), "--out", str(tmp_path / "r")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"pred_oracle-absolute.csv:{len(lines)}:" in err and "'f00000'" in err

    @staticmethod
    def _edit_row(path: Path, prefix: str, edit) -> int:
        """Apply ``edit`` to the first line starting with ``prefix``; returns its line number."""
        lines = path.read_text().splitlines()
        k = next(k for k, l in enumerate(lines) if l.startswith(prefix))
        lines[k] = edit(lines[k])
        path.write_text("\n".join(lines) + "\n")
        return k + 1

    def _evaluate_copy(self, dataset_dir, tmp_path, file: str, prefix: str, edit):
        import shutil

        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        lineno = self._edit_row(data / file, prefix, edit)
        rc = main(["evaluate", "--manifest", str(data / "manifest.json"), "--out", str(tmp_path / "r")])
        return rc, lineno

    def test_face_camera_must_be_left_or_right(self, dataset_dir, tmp_path, capsys):
        rc, lineno = self._evaluate_copy(dataset_dir, tmp_path, "faces.csv", "f00002,right,",
                                         lambda l: l.replace(",right,", ",Right,"))
        assert rc == 1
        err = capsys.readouterr().err
        assert f"faces.csv:{lineno}:" in err and "camera must be left or right, got 'Right'" in err

    def test_prediction_frame_not_in_manifest(self, dataset_dir, tmp_path, capsys):
        rc, lineno = self._evaluate_copy(dataset_dir, tmp_path, "pred_oracle-offset.csv", "f00004,",
                                         lambda l: l.replace("f00004,", "f99999,", 1))
        assert rc == 1
        err = capsys.readouterr().err
        assert f"pred_oracle-offset.csv:{lineno}:" in err and "prediction frame 'f99999' not in manifest" in err

    def test_prediction_row_for_another_method(self, dataset_dir, tmp_path, capsys):
        rc, lineno = self._evaluate_copy(dataset_dir, tmp_path, "pred_oracle-absolute.csv", "f00006,",
                                         lambda l: l.replace(",oracle-absolute,", ",oracle-offset,"))
        assert rc == 1
        err = capsys.readouterr().err
        assert f"pred_oracle-absolute.csv:{lineno}:" in err
        assert "prediction row for method 'oracle-offset' in file of 'oracle-absolute'" in err

    @pytest.mark.parametrize("tags", ["glasses", [1], ["glasses", None], {"glasses": True}, ["glasses", ""]])
    def test_tags_must_be_a_list_of_strings(self, dataset_dir, tmp_path, capsys, tags):
        import shutil

        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        manifest = data / "manifest.json"
        payload = json.loads(manifest.read_text())
        payload["frames"][3]["tags"] = tags
        manifest.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        rc = main(["evaluate", "--manifest", str(manifest), "--out", str(tmp_path / "r")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{manifest}: bad frame entry #3" in err and "'f00003'" in err and "list of strings" in err

    def test_tag_all_is_reserved(self, tmp_path, capsys):
        """``all`` names the overall rows in ``report``; a frame tagged with it is a
        parse error naming the manifest and its first such frame entry."""
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--frames", "30", "--calib-views", "4", "--seed", "3"]) == 0
        manifest = data / "manifest.json"
        payload = json.loads(manifest.read_text())
        for entry in payload["frames"][5:15]:
            entry["tags"] = ["all"]
        manifest.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        rc = main(["evaluate", "--manifest", str(manifest), "--out", str(tmp_path / "r")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{manifest}: bad frame entry #5: tag 'all' of frame 'f00005' is reserved" in err
        assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("columns", ["52", "131"])
def test_help_text_is_argparse_default(monkeypatch, capsys, columns):
    """Every --help prints what argparse's own formatter does at the width COLUMNS gives."""
    import argparse

    from planegaze.cli import build_parser

    monkeypatch.setenv("COLUMNS", columns)
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert subparsers
    for argv, p in [([], parser), *(([name], sub) for name, sub in subparsers.items())]:
        assert main([*argv, "--help"]) == 0
        p.formatter_class = argparse.HelpFormatter
        assert capsys.readouterr().out == p.format_help()


def test_main_builds_one_parser_and_runs_the_command_it_finds(monkeypatch):
    """Two main calls build one parser; each gets its own --corners list, and runs the
    module's cmd_* as it is at the call, so a command patched after the first call is the one run."""
    from planegaze import cli

    built, seen = [], []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    monkeypatch.setattr(cli, "cmd_calibrate", lambda args: seen.append(args.corners) or 0)
    cli._parser.cache_clear()
    for name in ("a.csv", "b.csv"):
        assert main(["calibrate", "--corners", name, "--grid", "g.json", "--image-size", "8x8", "--out", "o"]) == 0
    assert len(built) == 1
    assert seen == [[Path("a.csv")], [Path("b.csv")]]
    cli._parser.cache_clear()


def test_closed_stdout_is_named(dataset_dir, tmp_path, monkeypatch, capsys):
    """A print to a closed pipe (``planegaze calibrate ... | head -1``) raises an OSError with no
    file name: the error names standard output, and the exit code is 1."""
    import errno
    import io

    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    rc = main(["calibrate", "--corners", str(dataset_dir / "corners.csv"), "--grid", str(dataset_dir / "grid.json"),
               "--image-size", "1280x720", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == "error: cannot write standard output: Broken pipe\n"


def test_method_name_with_delimiter_and_quotes_round_trips(tmp_path, capsys):
    name = 'off,"set"'
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({
        "schema": "planegaze-scene-v1",
        "methods": [{"name": name, "convention": "camera_offset", "head_source": "eye_midpoint"}],
    }))
    data, report = tmp_path / "data", tmp_path / "report"
    assert main(["synth", "--out", str(data), "--frames", "12", "--calib-views", "4", "--scene", str(scene)]) == 0
    assert main(["evaluate", "--manifest", str(data / "manifest.json"), "--out", str(report)]) == 0
    for fname, labels in (("summary.csv", {name}), ("cdf.csv", {name}),
                          ("histogram.csv", {name, f"{name}:ground_truth"})):
        header, *rows = read_csv_rows(report / fname)
        assert header[0] == "method" and rows
        assert {row[0] for row in rows} == labels, fname
        assert all(len(row) == len(header) for row in rows), fname
    capsys.readouterr()
    assert main(["report", "--report", str(report)]) == 0
    assert name in capsys.readouterr().out


class TestNonUtf8Input:
    """A file that is not UTF-8 text is a parse error that names it, not a bare codec error."""

    def test_corner_table(self, dataset_dir, tmp_path, capsys):
        corners = tmp_path / "corners.csv"
        lines = (dataset_dir / "corners.csv").read_bytes().split(b"\n")
        k = 1 + next(k for k, line in enumerate(lines) if not line.startswith(b"#"))  # the first data row
        lines[k] = lines[k].replace(b",left,", b",le\xfft,", 1)
        corners.write_bytes(b"\n".join(lines))
        rc = main(["calibrate", "--corners", str(corners), "--grid", str(dataset_dir / "grid.json"),
                   "--image-size", "1280x720", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert f"error: {corners}:{k + 1}: not UTF-8 text: " in capsys.readouterr().err

    def test_json_file(self, dataset_dir, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_bytes((dataset_dir / "grid.json").read_bytes().replace(b"{", b"{\xff", 1))
        rc = main(["calibrate", "--corners", str(dataset_dir / "corners.csv"), "--grid", str(grid),
                   "--image-size", "1280x720", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert f"error: {grid}:1: not UTF-8 text: " in capsys.readouterr().err


class TestOsErrors:
    def test_corners_that_are_a_directory(self, dataset_dir, tmp_path, capsys):
        rc = main(["calibrate", "--corners", str(tmp_path), "--grid", str(dataset_dir / "grid.json"),
                   "--image-size", "1280x720", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert f"error: {tmp_path}: cannot read file: " in capsys.readouterr().err

    @pytest.mark.parametrize("command, out", [
        (["synth", "--frames", "2", "--calib-views", "0"], "data"),
        (["evaluate", "--manifest", "{data}/manifest.json"], "report"),
        (["calibrate", "--corners", "{data}/corners.csv", "--grid", "{data}/grid.json", "--image-size", "1280x720"],
         "calib"),
        (["plane-pose", "--corners", "{data}/plane_corners.csv", "--grid", "{data}/grid.json",
          "--intrinsics", "{data}/calib/intrinsics_left.json"], "plane.json"),
    ])
    def test_out_under_an_existing_file(self, dataset_dir, tmp_path, capsys, command, out):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory\n")
        argv = [arg.format(data=dataset_dir) for arg in command] + ["--out", str(blocker / out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {blocker}") and err.count("\n") == 1
        assert blocker.read_text() == "a file, not a directory\n"


def fresh_interpreter(code: str) -> list[str]:
    """The lines ``code`` prints in a fresh interpreter that imports planegaze from this tree."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_cli_import_leaves_the_generator_out():
    """Only synth needs the scene generator, and only a large table the float formatting
    kernel, so importing the CLI loads neither."""
    loaded = fresh_interpreter("import sys, planegaze.cli; print(*sorted(sys.modules), sep='\\n')")
    assert "planegaze.cli" in loaded and "planegaze.synthetic" not in loaded
    assert "planegaze.floatrepr" not in loaded


def test_commands_on_a_dataset_never_import_numpy_ma(dataset_dir, tmp_path):
    """np.median's masked-array check imports numpy.ma; no calibrate, plane-pose or evaluate
    needs that module."""
    d, out = dataset_dir, tmp_path
    commands = [
        ["calibrate", "--corners", d / "corners.csv", "--grid", d / "grid.json", "--image-size", "1280x720",
         "--out", out / "calib"],
        ["plane-pose", "--corners", d / "plane_corners.csv", "--grid", d / "grid.json",
         "--intrinsics", out / "calib" / "intrinsics_left.json", "--out", out / "plane.json"],
        ["evaluate", "--manifest", d / "manifest.json", "--out", out / "report"],
    ]
    code = ("import sys\nfrom planegaze.cli import main\n"
            f"for argv in {[[str(a) for a in c] for c in commands]!r}:\n"
            "    print('after', argv[0], main(argv), 'numpy.ma' in sys.modules)\n")
    after = [line for line in fresh_interpreter(code) if line.startswith("after ")]
    assert after == ["after calibrate 0 False", "after plane-pose 0 False", "after evaluate 0 False"]
