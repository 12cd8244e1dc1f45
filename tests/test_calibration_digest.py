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
Every file was re-pinned when the LM solves came to start at damping 1e-6 and
stop at a relative cost change of 1e-6 (it was 1e-3 and 1e-12).
`tools/calib_drift.py` over the 48 rigs (largest change, seed 7919 · 104729):
fx and fy 4.6e-7 · 4.2e-7 relative, cx and cy 8.8e-7 · 8.1e-7, the baseline
5.4e-7 · 4.7e-7, the stereo translation 2.9e-7 · 2.9e-7 m, dist 1.8e-5 ·
1.2e-5 absolute, the plane rotation entries 3.6e-6 · 4.0e-6, the plane
translation 5.4e-6 · 7.8e-6 m and the plane rms 4.1e-4 · 8.2e-4 px, with the
same exit codes on every rig.
"""

import hashlib

from planegaze.cli import main

SYNTH_ARGV = ["--frames", "0", "--calib-views", "15", "--corner-noise", "0.2", "--seed", "190056"]
CALIBRATION_DIGESTS = {
    "intrinsics_left.json": "f046ec35d5f07333d5542ae2ac843e081c525f850e79bc943fbc08797f9d7323",
    "intrinsics_right.json": "bd2078d4b4100b348ed9be55ecd4a4bd2d831085f95a32a349cb7beae39c5e27",
    "stereo.json": "9df579a8119881cbf30c85c0f2d1162370280b6927f7e885d7b2ec610fe11ac4",
    "plane.json": "b623a74793b2bbfb1d6590a78975ba926beb95f9f2b1aaf1cd27a4d34f811873",
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
