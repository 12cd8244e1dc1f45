"""Byte identity of `calibrate` and `plane-pose`: pinned sha256 of every file they write.

The inputs are rig 0 of the calib-rig benchmark workload at seed 7919:
15 views, 0.2 px corner noise. A change here is a change of
calibration output bits and must be called out as one, with its drift.
The digests were re-pinned when the pose solvers came to keep rotation
matrices (R <- exp(d rvec) R, no axis-angle round trip per step): over the
48 calib-rig rigs of seeds 7919 and 104729 that moved fx and fy by at most
4.5e-9 relative, cx and cy by 2.2e-9, dist by 4.6e-8 absolute, the
baseline by 4.8e-9 relative and the plane translation by 1.9e-8 m.
They were re-pinned again when `project_points` came to apply its pose one
row at a time, which moved the synthetic corners by at most 2.3e-13 px. The
`calibrate` and `plane-pose` of the commit before, run on the new corners,
write these bytes; over the same 48 rigs fx, fy and the baseline moved by at
most 6.8e-9 relative, dist by 3.0e-8 and the plane translation by 1.9e-8 m.
plane.json was re-pinned once more when `undistort_pixels` became Newton's
method on the distortion model, replacing a fixed-point iteration: the plane
pose starts from the undistorted corners. Over the 48 rigs every intrinsics
and stereo file kept its bytes, the plane translation moved by at most
2.0e-9 m, its rotation entries by 3.6e-9 and its rms by 1.6e-14 px, and every
exit code was kept.
"""

import hashlib

from planegaze.cli import main

SYNTH_ARGV = ["--frames", "0", "--calib-views", "15", "--corner-noise", "0.2", "--seed", "190056"]
CALIBRATION_DIGESTS = {
    "intrinsics_left.json": "812fd636ca5505002cd4427b790ce97b443643fe67b55c06cf83257521ec263f",
    "intrinsics_right.json": "6ceae792c5f036bae4b41555519c5a4e9d04872add91d786589825c1052cd634",
    "stereo.json": "9bd9347e763c69798b76933e129a2d9977bb2902a8cec7dab3c6874c585b319b",
    "plane.json": "f48e19de9a8bd8ade78980b8a62238348a3335efe6bccf8e376c1b8125716931",
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
