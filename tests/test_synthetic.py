import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planegaze.calibration import CAMERA_LEFT, CAMERA_RIGHT
from planegaze.camera import project_points
from planegaze.geometry import RigidTransform, angular_error_deg
from planegaze.grid import target_center
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
    _FrameStreams,
    _in_image,
    _rng,
    _sample_heads,
    amplification_study,
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
            head_plane = small_scene.plane.transform.apply_point(head_cc)
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
        targets = np.array([target_center(ds.grid, t) for t in ds.frames.target_id.tolist()])
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


class TestAmplification:
    def test_zero_sigma_is_exact(self):
        spec = default_scene(frames=300, seed=30, calib_views=2)
        rows = amplification_study(spec, [0.0])
        assert rows[0].median_distance_cm < 1e-4

    def test_median_monotone_and_in_band(self):
        spec = default_scene(frames=800, seed=31, calib_views=2)
        sigmas = [0.0, 2.0, 5.0, 10.0, 15.0]
        rows = amplification_study(spec, sigmas)
        medians = [r.median_distance_cm for r in rows]
        assert all(a <= b for a, b in zip(medians, medians[1:]))
        ten = dict(zip(sigmas, rows))[10.0]
        assert 8.0 <= ten.median_distance_cm <= 30.0

    def test_precision_columns_present(self):
        spec = default_scene(frames=100, seed=32, calib_views=2)
        rows = amplification_study(spec, [5.0])
        assert set(rows[0].precision_at) == {10.0, 20.0, 50.0}


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


def test_head_draw_equals_uniform_bit_for_bit():
    """_sample_heads draws a head as lo + (hi - lo) * rng.random(3), which is
    rng.uniform(lo, hi) at a tenth of the cost; a numpy release that changes
    either draw fails here before it moves a dataset digest."""
    boxes = default_scene(frames=1).participants + (((-1.0, 0.0, 1e-3), (2.5, 1e3, 1e-3 + 1e-9)),)
    for lo, hi in boxes:
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        for seed in range(500):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(4):
                assert (lo + (hi - lo) * b.random(3)).tobytes() == a.uniform(lo, hi).tobytes()


SEEDS = st.one_of(st.sampled_from([0, 1, 7919, 2**32 - 1, 2**32, 2**64 + 5]), st.integers(0, 2**80))


@settings(max_examples=40, deadline=None)
@given(seed=st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 + 5]), st.integers(0, 2**80)),
       stream=st.integers(0, 5), n=st.integers(0, 12))
def test_entropy_table_generators_equal_per_frame_generators(seed, stream, n):
    """Row i of the batched streams is _rng(seed, stream, i): the same PCG64 state, increment
    and buffered word, and a generator restored from it draws what _rng's draws."""
    count = 0
    for i, gen in enumerate(_FrameStreams(seed, stream, n).generators()):  # each drawn from before the next
        count += 1
        want = _rng(seed, stream, i)
        assert gen.bit_generator.state == want.bit_generator.state
        assert gen.normal(size=4).tobytes() == want.normal(size=4).tobytes()
        assert gen.integers(2**63, size=3).tolist() == want.integers(2**63, size=3).tolist()
        assert gen.random(2).tobytes() == want.random(2).tobytes()
    assert count == n


# k = 2**31 + 1 rejects about half of all draws; at k = 2**31 half of the leftovers equal the threshold (0)
BOUNDS = [1, 2, 3, 20, 2**31, 2**31 + 1, 2**32 - 1, 2**32]


def _restored(streams: _FrameStreams) -> list[np.random.Generator]:
    """Independent numpy generators at the rows' current states."""
    gens = []
    for gen in streams.generators():
        gens.append(np.random.Generator(np.random.PCG64(0)))
        gens[-1].bit_generator.state = gen.bit_generator.state
    return gens


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, n=st.integers(1, 8), data=st.data())
def test_batched_draws_equal_numpy_generators_call_for_call(seed, n, data):
    """Any interleaving of integers(k) and random(m), on every row or on some, draws what numpy's
    Generator draws on each row; the buffered upper half of a 64-bit output carries across calls."""
    streams, gens = _FrameStreams(seed, _STREAM_FRAME, n), [_rng(seed, _STREAM_FRAME, i) for i in range(n)]
    call = st.tuples(st.just("integers"), st.sampled_from(BOUNDS)) | st.tuples(st.just("random"), st.integers(0, 3))
    subsets = st.just(list(range(n))) | st.lists(st.integers(0, n - 1), unique=True).map(sorted)
    for (kind, arg), picked in data.draw(st.lists(st.tuples(call, subsets), max_size=12)):
        rows = np.array(picked, dtype=int)
        got = getattr(streams, kind)(arg, rows)
        want = np.array([getattr(gens[i], kind)(arg) for i in picked], dtype=got.dtype).reshape(got.shape)
        assert got.shape == ((len(rows),) if kind == "integers" else (len(rows), arg))
        assert got.tobytes() == want.tobytes()
    assert [g.bit_generator.state for g in _restored(streams)] == [g.bit_generator.state for g in gens]


@settings(max_examples=40, deadline=None)
@given(k=st.sampled_from([3, 2**31 + 1, 2**32 - 1]) | st.integers(1, 2**31 - 1).map(lambda j: 2 * j + 1),
       offset=st.sampled_from([-1, 0]), seed=SEEDS)
def test_lemire_rejection_boundary(k, offset, seed):
    """A buffered word whose leftover is the threshold is kept, one below it is redrawn, as numpy does.
    For odd k every leftover has exactly one word, so the word is planted in the buffer."""
    threshold = (2**32 - k) % k
    streams = _FrameStreams(seed, _STREAM_FRAME, 1)
    streams.has_uint32[:] = True
    streams.uinteger[:] = (threshold + offset) % 2**32 * pow(k, -1, 2**32) % 2**32
    assert streams.uinteger[0] * k % 2**32 == (threshold + offset) % 2**32
    (want,) = _restored(streams)
    assert streams.integers(k, np.arange(1)).tolist() == [want.integers(k)]
    assert [g.bit_generator.state for g in _restored(streams)] == [want.bit_generator.state]


@pytest.mark.parametrize("k", [0, -3, 2**32 + 1, 2**40])
def test_batched_integers_reject_bounds_outside_one_to_two_to_the_32(k):
    streams = _FrameStreams(0, _STREAM_FRAME, 2)
    with pytest.raises(ValueError, match="k must be in"):
        streams.integers(k, np.arange(2))


def _per_frame_heads(spec):
    """_sample_heads as a per-frame loop: each frame redraws from its own generator until visible."""
    rig, cam_from_plane = spec.rig, spec.plane.transform.inverse()
    heads, targets = [], []
    for i in range(spec.frames):
        rng = _rng(spec.seed, _STREAM_FRAME, i)
        for _ in range(MAX_RESAMPLE):
            lo, hi = (np.asarray(b, dtype=float) for b in spec.participants[rng.integers(len(spec.participants))])
            head = cam_from_plane.apply_points(rng.uniform(lo, hi)[None])
            target = rng.integers(len(spec.grid.target_map))
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
