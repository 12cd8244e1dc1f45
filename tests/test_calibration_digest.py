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
