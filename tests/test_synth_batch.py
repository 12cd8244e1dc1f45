"""The batched synthesis path: byte-identical datasets, per-index RNG streams, edge rows."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planegaze.cli import main
from planegaze.errors import ResampleExceededError
from planegaze.synthetic import (
    _STREAM_PERTURB_FACES,
    NoiseSpec,
    _perpendicular_axes,
    _rng,
    default_scene,
    generate_scene,
    perturb,
)

from conftest import assert_same_table

# sha256 of every file `synth` writes for SYNTH_ARGV. The calibration, corner
# and grid files keep the bytes of the per-frame implementation this batch path
# replaced; the frame files (faces, truth, predictions and the manifest that
# lists them) were re-taken when the frame draws became Philox streams. The
# corners were re-taken when project_points came to apply its pose one row at a
# time, and the predictions when the pitch became atan2(-dy, hypot(dx, dz)). A
# change here is a change of the dataset format and must be called out as one.
SYNTH_ARGV = [
    "--frames", "120", "--calib-views", "4", "--seed", "7919",
    "--corner-noise", "0.2", "--face-noise", "1.0", "--gaze-noise", "10", "--gaze-bias", "2.0", "-1.0",
]
SYNTH_DIGESTS = {
    "calib/intrinsics_left.json": "b14daac95b78caa2cb8659b53a12ec51bf3df95c458a2521b65bcc093f311d3e",
    "calib/intrinsics_right.json": "8ccd81fb5cbd5564f010466fa8b757fc9a479f3245f1aac0a779d6dcbfa2a582",
    "calib/plane.json": "3c8b547b44e44f05b6d350a655a89158e88984b08359b0625ff08febaffe6db7",
    "calib/stereo.json": "85f248b5ae43b6f83e3dc803d494fbe2f10411e7de2dd1438ac1cf7237ea1af2",
    "corners.csv": "ea09c3d07233780eebad1072d90b4880918edfde6111ac8a74a80b953ebcd233",
    "faces.csv": "47a45eb8cab2af3340cc94be45b3cfbc30b3bdce75c277aade8af1763311655d",
    "grid.json": "de1df207aef7b80d4de9d9979e3f0e987f9f5a51aa62fa31a3292ea14aed7bc1",
    "manifest.json": "2f02672f043e925e81c03a84cd1b36e5c0453f8973837e82a9f83e85edbdfcba",
    "plane_corners.csv": "baddd0db8f43d1213be9d4f9af80ecb6678d9ce1dbf564d5e7196fab60784584",
    "pred_oracle-absolute.csv": "cab1186cdb67fc79941cc9a293988eaf89660c50060925c9289665b4e525d097",
    "pred_oracle-offset.csv": "6873dd547de97ca1fd819a6ad8977575f4c5b7f1a0d08d3b3009dc619250d94d",
    "truth.csv": "a8fcaa66d1b828f935cb9735cce27b75a3944d32187d0d41fa1ca1516db139df",
}

ALL_NOISE = NoiseSpec(
    corner_px_sigma=0.3, face_px_sigma=1.5, gaze_angle_sigma_deg=8.0,
    gaze_bias_yaw_deg=1.0, gaze_bias_pitch_deg=-0.5,
)


def test_synth_tree_digests(tmp_path):
    out = tmp_path / "data"
    assert main(["synth", "--out", str(out), *SYNTH_ARGV]) == 0
    digests = {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }
    assert digests == SYNTH_DIGESTS


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sizes=st.tuples(st.integers(0, 40), st.integers(0, 40)))
def test_frames_are_a_prefix_of_longer_runs(seed, sizes):
    n, m = sorted(sizes)
    short, long = (
        perturb(generate_scene(default_scene(frames=k, seed=seed, calib_views=0)), ALL_NOISE, seed=seed)
        for k in (n, m)
    )
    assert len(short.frames) == n
    a, b = short.frames, long.frames
    assert (a.frame_id.tolist(), a.target_id.tolist(), a.tags) == (
        b.frame_id[:n].tolist(), b.target_id[:n].tolist(), b.tags[:n])
    np.testing.assert_array_equal(short.head_cc, long.head_cc[:n])
    np.testing.assert_array_equal(short.direction_cc, long.direction_cc[:n])
    assert_same_table(short.faces, long.faces.take(slice(0, 2 * n)))
    for name, preds in short.predictions.items():
        assert_same_table(preds, long.predictions[name].take(slice(0, n)))


def test_face_noise_draws_one_shift_per_present_source():
    """Face noise on rows with a bbox only, an eye only, or both equals a per-row
    loop over the same draws: one (du, dv) per present source, the bbox's first."""
    ds = generate_scene(default_scene(frames=6, seed=11, calib_views=0))
    bbox, eye = ds.faces.bbox.copy(), ds.faces.eye.copy()
    eye[[0, 5, 9]] = np.nan
    bbox[[1, 6, 10]] = np.nan
    ds = replace(ds, faces=replace(ds.faces, bbox=bbox, eye=eye))
    sigma, seed = 1.5, 77
    got = perturb(ds, NoiseSpec(face_px_sigma=sigma), seed=seed).faces

    has_bbox, has_eye = ~np.isnan(bbox[:, 0]), ~np.isnan(eye[:, 0])
    draws = _rng(seed, _STREAM_PERTURB_FACES).normal(0.0, sigma, (int(has_bbox.sum() + has_eye.sum()), 2))
    shifts = iter(draws.tolist())
    want_bbox, want_eye = bbox.copy(), eye.copy()
    for k in range(len(bbox)):
        if has_bbox[k]:
            du, dv = next(shifts)
            want_bbox[k] = (bbox[k, 0] + du, bbox[k, 1] + dv, bbox[k, 2] + du, bbox[k, 3] + dv)
        if has_eye[k]:
            du, dv = next(shifts)
            want_eye[k] = (eye[k, 0] + du, eye[k, 1] + dv)
    assert next(shifts, None) is None
    assert got.bbox.tobytes() == want_bbox.tobytes()
    assert got.eye.tobytes() == want_eye.tobytes()
    assert got.frame_id.tolist() == ds.faces.frame_id.tolist() and got.camera.tolist() == ds.faces.camera.tolist()


def test_perpendicular_axis_fallback_row():
    d = np.array([[0.0, 0.6, -0.8], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    raw = np.array([2.5 * d[0], -1.5 * d[1], [0.3, -1.2, 0.7]])
    axes = _perpendicular_axes(raw, d)
    np.testing.assert_allclose(np.linalg.norm(axes, axis=1), 1.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(np.sum(axes * d, axis=1), 0.0, rtol=0, atol=1e-15)
    # rows 0 and 1 take the deterministic fallbacks d x e_x and (d near e_x) d x e_y
    np.testing.assert_allclose(axes[0], np.cross(d[0], [1.0, 0.0, 0.0]), rtol=0, atol=1e-15)
    np.testing.assert_allclose(axes[1], np.cross(d[1], [0.0, 1.0, 0.0]), rtol=0, atol=1e-15)


def test_invisible_participant_box_names_frame_zero():
    # heads 3 m behind the cameras never land in either image
    spec = replace(default_scene(frames=3, seed=5, calib_views=0),
                   participants=(((0.1, -3.1, 0.3), (0.2, -3.0, 0.4)),))
    with pytest.raises(ResampleExceededError, match=r"for frame 0 after"):
        generate_scene(spec)


class TestNonFiniteNoise:
    """Noise magnitudes must be finite numbers, in the library and on the command line."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field",
        ["corner_px_sigma", "face_px_sigma", "gaze_angle_sigma_deg", "gaze_bias_yaw_deg", "gaze_bias_pitch_deg"],
    )
    def test_noise_spec_rejects(self, field, value):
        with pytest.raises(ValueError, match=field):
            NoiseSpec(**{field: value})

    @pytest.mark.parametrize("bias", [["inf", "0"], ["0", "nan"], ["-inf", "-inf"]])
    def test_gaze_bias_flag_rejects(self, bias, tmp_path, capsys):
        out = tmp_path / "data"
        rc = main(["synth", "--out", str(out), "--frames", "2", "--calib-views", "0", "--gaze-bias", *bias])
        assert rc == 1
        assert "--gaze-bias" in capsys.readouterr().err
        assert not out.exists()
