"""Byte identity of `calibrate` and `plane-pose`: pinned sha256 of every file they write.

The inputs are rig 0 of the calib-rig benchmark workload at seed 7919:
15 views, 0.2 px corner noise. A change here is a change of
calibration output bits and must be called out as one, with its drift.
Both sets were re-pinned when the pose solvers came to keep rotation
matrices (R <- exp(d rvec) R, no axis-angle round trip per step): over the
48 calib-rig rigs of seeds 7919 and 104729 that moved fx and fy by at most
4.5e-9 relative, cx and cy by 2.2e-9, dist by 4.6e-8 absolute, the
baseline by 4.8e-9 relative and the plane translation by 1.9e-8 m.
"""

import hashlib

from planegaze.cli import main

SYNTH_ARGV = ["--frames", "0", "--calib-views", "15", "--corner-noise", "0.2", "--seed", "190056"]
CALIBRATION_DIGESTS = {
    "intrinsics_left.json": "249ab4e150ed582083d3e96bd0e35d385fddd77832b0564c8b5808d19a7bbd15",
    "intrinsics_right.json": "c04c5b58ef92eb5d9f541c44c21a62b609f7604f25b04e554a27f68a73eee0d8",
    "stereo.json": "8db1f0273fd7456c135956d2f0f7850ca1b23310252579103e2757228fb414d8",
    "plane.json": "c6a4e6462e316b65ba590e0db3744af2bccdccc88ff9d5f6683cf805b73057f9",
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


# the same rig calibrated with --release-skew (10-entry intrinsics)
RELEASE_SKEW_DIGESTS = {
    "intrinsics_left.json": "9803e55e8ee479fc9fda15b9393e31832e1b99ee5c6dab7bc5ea78192b3c98c6",
    "intrinsics_right.json": "d0ee227bbbea7fd36a855999e816be5b51e526cb122f9ff418883b1f36d6008e",
    "stereo.json": "4d32627b30040c74d5b42b8753d1e554c4994e4b2cfb4e11440ab5058e92649d",
    "plane.json": "182dfb29242b7d0ce18793e814e90f33d920cb07a6f3585d557a778b542a625f",
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
