import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planegaze.calibration import CAMERA_LEFT, CAMERA_RIGHT
from planegaze import cli
from planegaze.camera import project_points
from planegaze.evaluation import evaluate_manifest
from planegaze.formats import read_manifest, read_summary_csv
from planegaze.geometry import RigidTransform, angular_error_deg
from planegaze.grid import target_centers
from planegaze.pipeline import (
    correct_gaze_to_camera_frame,
    gaze_point_on_surface,
    ground_truth_direction,
)
from planegaze.synthetic import (
    _STREAM_FRAME,
    MAX_RESAMPLE,
    MethodSpec,
    NoiseSpec,
    _in_image,
    _philox,
    _sample_heads,
    _uniforms,
    default_scene,
    generate_scene,
    perturb,
)
from planegaze.triangulation import head_point

from conftest import assert_same_table


class TestGenerateScene:
    def test_deterministic_under_seed(self, small_scene, small_dataset):
        again = generate_scene(small_scene)
        assert again.frames.frame_id.tolist() == small_dataset.frames.frame_id.tolist()
        np.testing.assert_array_equal(again.head_cc, small_dataset.head_cc)
        np.testing.assert_array_equal(again.direction_cc, small_dataset.direction_cc)
        assert_same_table(again.calib_corners, small_dataset.calib_corners)
        assert_same_table(again.faces, small_dataset.faces)
        for m in again.predictions:
            assert_same_table(again.predictions[m], small_dataset.predictions[m])

    def test_zero_frames_still_emits_calibration(self):
        ds = generate_scene(default_scene(frames=0, seed=3, calib_views=4))
        assert len(ds.frames) == 0
        assert len(ds.faces.frame_id) == 0
        assert len(ds.calib_corners) > 0
        assert len(ds.plane_corners) > 0

    def test_heads_sampled_inside_boxes(self, small_scene, small_dataset):
        (lo, hi), = small_scene.participants
        for head_cc in small_dataset.head_cc:
            head_plane = small_scene.plane.transform.apply_points(head_cc)
            assert np.all(head_plane >= np.asarray(lo) - 1e-9)
            assert np.all(head_plane <= np.asarray(hi) + 1e-9)

    def test_tags_follow_target_split(self, small_dataset):
        frames = small_dataset.frames
        for target_id, tags in zip(frames.target_id.tolist(), frames.tags):
            expected = ("glasses",) if target_id >= 11 else ("no_glasses",)
            assert tags == expected

    def test_zero_noise_pipeline_identity(self, small_dataset):
        ds = small_dataset
        left, right = (ds.faces.take(ds.faces.camera == c) for c in (CAMERA_LEFT, CAMERA_RIGHT))
        assert left.frame_id.tolist() == right.frame_id.tolist() == ds.frames.frame_id.tolist()
        targets = target_centers(ds.grid, ds.frames.target_id)
        methods = {m.name: m for m in ds.spec.methods}
        worst_dist, worst_ang = 0.0, 0.0
        for name, preds in ds.predictions.items():
            assert preds.frame_id.tolist() == ds.frames.frame_id.tolist()
            head = head_point(left, right, ds.rig, methods[name].head_source)
            d = correct_gaze_to_camera_frame(preds, head)
            est = gaze_point_on_surface(head, d, ds.plane)
            gt = ground_truth_direction(head, ds.plane, targets)
            worst_dist = max(worst_dist, float(np.linalg.norm(est.point - targets, axis=1).max()))
            worst_ang = max(worst_ang, float(angular_error_deg(d, gt).max()))
        assert worst_dist < 1e-6
        assert worst_ang < 1e-5


class TestPerturb:
    def test_zero_noise_is_identity(self, small_dataset):
        assert perturb(small_dataset, NoiseSpec(), seed=1) is small_dataset

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(corner_px_sigma=-0.1)

    def test_deterministic(self, small_dataset):
        noise = NoiseSpec(corner_px_sigma=0.3, face_px_sigma=0.4, gaze_angle_sigma_deg=5.0)
        a = perturb(small_dataset, noise, seed=9)
        b = perturb(small_dataset, noise, seed=9)
        assert_same_table(a.calib_corners, b.calib_corners)
        assert_same_table(a.faces, b.faces)
        for m in a.predictions:
            assert_same_table(a.predictions[m], b.predictions[m])

    def test_corner_noise_leaves_predictions_untouched(self, small_dataset):
        out = perturb(small_dataset, NoiseSpec(corner_px_sigma=0.2), seed=4)
        assert out.predictions.keys() == small_dataset.predictions.keys()
        for m in out.predictions:
            assert_same_table(out.predictions[m], small_dataset.predictions[m])
        assert_same_table(out.faces, small_dataset.faces)
        assert not np.array_equal(out.calib_corners.uv, small_dataset.calib_corners.uv)

    def test_corner_noise_magnitude(self, small_dataset):
        sigma = 0.5
        out = perturb(small_dataset, NoiseSpec(corner_px_sigma=sigma), seed=5)
        deltas = (out.calib_corners.uv - small_dataset.calib_corners.uv).ravel()
        assert abs(deltas.std() - sigma) < 0.05
        assert abs(deltas.mean()) < 0.05

    def test_angular_noise_matches_folded_normal_mean(self):
        # mean of |N(0, sigma)| is sigma * sqrt(2/pi) ~ 0.7979 sigma
        ds = generate_scene(default_scene(frames=1200, seed=21, calib_views=2))
        sigma = 10.0
        out = perturb(ds, NoiseSpec(gaze_angle_sigma_deg=sigma), seed=22)
        preds = out.predictions["oracle-offset"]
        left, right = (ds.faces.take(ds.faces.camera == c) for c in (CAMERA_LEFT, CAMERA_RIGHT))
        assert left.frame_id.tolist() == right.frame_id.tolist() == preds.frame_id.tolist()
        head = head_point(left, right, ds.rig, "eye_midpoint")
        angles = angular_error_deg(correct_gaze_to_camera_frame(preds, head), ds.direction_cc)
        mean = float(np.mean(angles))
        expected = sigma * math.sqrt(2 / math.pi)
        assert 7.0 <= mean <= 9.0
        assert abs(mean - expected) / expected < 0.10

    def test_bias_shifts_prediction_angles(self, small_dataset):
        out = perturb(small_dataset, NoiseSpec(gaze_bias_yaw_deg=3.0, gaze_bias_pitch_deg=-2.0), seed=6)
        a, b = out.predictions["oracle-offset"], small_dataset.predictions["oracle-offset"]
        assert a.frame_id.tolist() == b.frame_id.tolist()
        assert (a.yaw - b.yaw).tolist() == pytest.approx([math.radians(3.0)] * len(b.yaw))
        assert (a.pitch - b.pitch).tolist() == pytest.approx([math.radians(-2.0)] * len(b.pitch))


SIGMAS = [0.0, 2.0, 5.0, 10.0, 15.0]


@pytest.fixture(scope="module")
def gaze_noise_sweep(tmp_path_factory):
    """One `synth --gaze-noise` dataset per sigma at one seed, each with its evaluate_manifest bundle."""
    sweep = {}
    for sigma in SIGMAS:
        data = tmp_path_factory.mktemp("sweep") / "data"
        assert cli.main(["synth", "--out", str(data), "--frames", "400", "--seed", "31", "--calib-views", "2",
                         "--gaze-noise", str(sigma)]) == 0
        sweep[sigma] = (data / "manifest.json", evaluate_manifest(read_manifest(data / "manifest.json")))
    return sweep


class TestGazeNoiseThroughEvaluate:
    """Gaze noise measured by the pipeline that scores real methods: synth, then evaluate."""

    def _overall(self, bundle, method):
        return next(r for r in bundle.summary_rows if r["method"] == method and r["tag_filter"] == "")

    def test_zero_sigma_is_exact(self, gaze_noise_sweep):
        bundle = gaze_noise_sweep[0.0][1]
        for method in bundle.methods:
            assert self._overall(bundle, method)["median_distance_cm"] < 1e-4

    def test_frame_distances_do_not_decrease_with_sigma(self, gaze_noise_sweep):
        # perturb draws one unit-noise realisation per method at a fixed seed, whatever sigma is
        for method in gaze_noise_sweep[0.0][1].methods:
            errors = [gaze_noise_sweep[s][1].methods[method].errors for s in SIGMAS]
            assert all(e.frame_id.tolist() == errors[0].frame_id.tolist() for e in errors)
            assert len(errors[0].frame_id) == 400
            for a, b in zip(errors, errors[1:]):
                assert (a.distance_m <= b.distance_m).all()  # inf <= inf holds

    def test_ten_degree_median_in_band(self, gaze_noise_sweep):
        bundle = gaze_noise_sweep[10.0][1]
        for method in bundle.methods:
            assert 8.0 <= self._overall(bundle, method)["median_distance_cm"] <= 30.0

    def test_summary_csv_has_precision_columns(self, gaze_noise_sweep, tmp_path):
        manifest = gaze_noise_sweep[5.0][0]
        assert cli.main(["evaluate", "--manifest", str(manifest), "--out", str(tmp_path)]) == 0
        header, rows = read_summary_csv(tmp_path / "summary.csv")
        assert {"p_at_10cm", "p_at_20cm", "p_at_50cm"} <= set(header) and rows


class TestSceneSpecValidation:
    def test_rejects_boxes_below_plane(self):
        spec = default_scene(frames=1, seed=0)
        with pytest.raises(ValueError):
            replace(spec, participants=(((0.0, 0.0, -0.1), (0.1, 0.1, 0.5)),))

    def test_rejects_duplicate_method_names(self):
        spec = default_scene(frames=1, seed=0)
        with pytest.raises(ValueError):
            replace(spec, methods=(spec.methods[0], spec.methods[0]))

    @pytest.mark.parametrize("name", ["", "a/b", "a\\b", "a\0b", "../x"])
    def test_rejects_method_names_that_are_not_file_name_stems(self, name):
        with pytest.raises(ValueError, match="method name"):
            MethodSpec(name)

    @pytest.mark.parametrize("name", ["offset-eyes", "absolute-bbox", 'off,"set"', ".."])
    def test_accepts_plain_method_names(self, name):
        assert MethodSpec(name).name == name

    def test_rejects_negative_frames(self):
        spec = default_scene(frames=1, seed=0)
        with pytest.raises(ValueError):
            replace(spec, frames=-1)

    def test_seed_must_fit_the_two_key_words(self):
        assert default_scene(frames=1, seed=2**64 - 1).seed == 2**64 - 1
        with pytest.raises(ValueError, match="seed must be < 2\\*\\*64"):
            default_scene(frames=1, seed=2**64)


# Random123's known-answer vectors for Philox4x32-10: counter, key, output block
PHILOX_KAT = [
    ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
    ((2**32 - 1,) * 4, (2**32 - 1, 2**32 - 1), (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
    ((0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344), (0xA4093822, 0x299F31D0),
     (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1)),
]


@pytest.mark.parametrize("counter, key, block", PHILOX_KAT, ids=["zeros", "ones", "pi"])
def test_philox_known_answers(counter, key, block):
    # the same counter in each of three lanes
    got = _philox(key, np.array(counter, dtype=np.uint64)[:, None].repeat(3, axis=1))
    assert got.dtype == np.uint64 and got.shape == (4, 3)
    assert got.T.tolist() == [list(block)] * 3


@settings(max_examples=60, deadline=None)
@given(seed=st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1]) | st.integers(0, 2**64 - 1),
       stream=st.integers(0, 5), attempt=st.integers(0, MAX_RESAMPLE - 1), m=st.integers(0, 7),
       index=st.lists(st.integers(0, 2**32 - 1), max_size=12))
def test_uniforms_of_many_rows_equal_one_row_calls(seed, stream, attempt, m, index):
    got = _uniforms(seed, stream, np.array(index, dtype=np.int64), attempt, m)
    assert got.shape == (len(index), m) and got.dtype == np.float64
    want = np.array([_uniforms(seed, stream, np.array([i]), attempt, m)[0] for i in index]).reshape(len(index), m)
    assert got.tobytes() == want.tobytes()
    assert ((got >= 0.0) & (got < 1.0)).all()


def _per_frame_heads(spec):
    """_sample_heads as a per-frame loop: each frame redraws from its own one-row uniforms until visible."""
    rig, cam_from_plane = spec.rig, spec.plane.transform.inverse()
    heads, targets = [], []
    for i in range(spec.frames):
        for attempt in range(MAX_RESAMPLE):
            u = _uniforms(spec.seed, _STREAM_FRAME, np.array([i]), attempt, 5)[0]
            lo, hi = (np.asarray(b, dtype=float) for b in spec.participants[int(u[0] * len(spec.participants))])
            head = cam_from_plane.apply_points((lo + (hi - lo) * u[1:4])[None])
            target = int(u[4] * len(spec.grid.target_map))
            right = rig.right_from_left.apply_points(head)
            if head[0, 2] > 0.05 and right[0, 2] > 0.05 and _in_image(
                    project_points(rig.left, RigidTransform.identity(), head), rig.left, 60.0).all() and _in_image(
                    project_points(rig.right, RigidTransform.identity(), right), rig.right, 60.0).all():
                break
        heads.append(head[0])
        targets.append(target)
    return np.array(heads).reshape(-1, 3), np.array(targets, dtype=int)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**40), frames=st.integers(0, 30))
def test_batched_head_draws_equal_a_per_frame_loop(seed, frames):
    # the second box lies partly out of view, so frames take several rounds; the third is a point
    boxes = default_scene().participants + (((-1.5, 0.4, 0.1), (1.8, 1.0, 1.2)), ((0.1, 0.7, 0.3), (0.1, 0.7, 0.3)))
    spec = replace(default_scene(frames=frames, seed=seed, calib_views=0), participants=boxes)
    heads, targets = _sample_heads(spec)
    want_heads, want_targets = _per_frame_heads(spec)
    assert heads.tobytes() == want_heads.tobytes() and heads.shape == want_heads.shape
    assert targets.tolist() == want_targets.tolist()
