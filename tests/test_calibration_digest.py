"""Byte identity of `calibrate` and `plane-pose`: pinned sha256 of every file they write.

The inputs are rig 0 of the calib-rig benchmark workload at seed 7919:
15 views, 0.2 px corner noise. The digests were taken before the
calibration path moved onto corner arrays. A change here is a change of
calibration output bits and must be called out as one, with its drift.
"""

import hashlib

from planegaze.cli import main

SYNTH_ARGV = ["--frames", "0", "--calib-views", "15", "--corner-noise", "0.2", "--seed", "190056"]
CALIBRATION_DIGESTS = {
    "intrinsics_left.json": "c9fdb02b1131e3cdf59aed398231cf5cfa44995026958c6637567b24947e697c",
    "intrinsics_right.json": "456acfc0f1ce9822b480aecc0924a7f4d2d2da85cad78b75a6c799a464c9b604",
    "stereo.json": "116d97f24664bf8375f44cab312b744159a3b0d00c37e0c993a4780cdb1189a2",
    "plane.json": "1699309d8737c33413697d5c03499b892c0790e2eb3a4ebdb75c7942a4aacdb7",
}


def test_calibration_digests(tmp_path):
    rig, est = tmp_path / "rig", tmp_path / "rig" / "estimate"
    assert main(["synth", "--out", str(rig), *SYNTH_ARGV]) == 0
    assert main([
        "calibrate", "--corners", str(rig / "corners.csv"), "--grid", str(rig / "grid.json"),
        "--image-size", "1280x720", "--out", str(est),
    ]) == 0
    assert main([
        "plane-pose", "--corners", str(rig / "plane_corners.csv"), "--grid", str(rig / "grid.json"),
        "--intrinsics", str(est / "intrinsics_left.json"), "--out", str(est / "plane.json"),
    ]) == 0
    digests = {name: hashlib.sha256((est / name).read_bytes()).hexdigest() for name in CALIBRATION_DIGESTS}
    assert digests == CALIBRATION_DIGESTS


# the same rig calibrated with --release-skew (10-entry intrinsics), pinned before the column-layout kernel
RELEASE_SKEW_DIGESTS = {
    "intrinsics_left.json": "e9eaa80b9bfe9a081a45f67e1a1c3c43b4a854ec0fff5ce924d8ebe576bf1ed5",
    "intrinsics_right.json": "3d7feb166f6b59188db53b5e292b83613f62e86a9f45d48194ee78f2b03a3024",
    "stereo.json": "42ac4141415b91d9e4e2f95068c4c2a9ec9727ae353b7bf60d44b84ae65559f9",
    "plane.json": "c574d2e6c0306459798a20a430cb9c922435b37daea3ab423ce9a585b3a163e6",
}


def test_release_skew_calibration_digests(tmp_path):
    rig, est = tmp_path / "rig", tmp_path / "rig" / "estimate"
    grid = ["--grid", str(rig / "grid.json")]
    assert main(["synth", "--out", str(rig), *SYNTH_ARGV]) == 0
    assert main(["calibrate", "--corners", str(rig / "corners.csv"), *grid,
                 "--image-size", "1280x720", "--out", str(est), "--release-skew"]) == 0
    assert main(["plane-pose", "--corners", str(rig / "plane_corners.csv"), *grid,
                 "--intrinsics", str(est / "intrinsics_left.json"), "--out", str(est / "plane.json")]) == 0
    digests = {name: hashlib.sha256((est / name).read_bytes()).hexdigest() for name in RELEASE_SKEW_DIGESTS}
    assert digests == RELEASE_SKEW_DIGESTS
