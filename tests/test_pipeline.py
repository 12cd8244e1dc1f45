import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planegaze.geometry import (
    RigidTransform,
    angular_error_deg,
    yaw_pitch_to_dir,
)
from planegaze.pipeline import (
    CONVENTION_ABSOLUTE,
    CONVENTIONS,
    STATUS_AWAY,
    STATUS_NO_DIRECTION,
    STATUS_NO_INTERSECTION,
    STATUS_OK,
    correct_gaze_to_camera_frame,
    gaze_point_on_surface,
    ground_truth_direction,
)
from planegaze.plane import PlanePose
from planegaze.synthetic import MethodSpec, _encode_predictions

from conftest import heads_at, prediction_table, random_rotation, random_unit_vectors

IDENTITY_PLANE = PlanePose(RigidTransform.identity())


def head_at(x, y, z):
    return heads_at([x, y, z])


class TestCorrection:
    def test_head_on_axis_needs_no_correction(self):
        yaw, pitch = np.array([0.0, 0.2, -0.7]), np.array([0.0, -0.4, 0.1])
        got = correct_gaze_to_camera_frame(prediction_table(yaw, pitch), heads_at([[0, 0, 0.6]] * 3))
        np.testing.assert_allclose(got, yaw_pitch_to_dir(yaw, pitch), atol=1e-12)

    def test_zero_prediction_points_at_camera(self):
        s, c = math.sin(math.radians(20)), math.cos(math.radians(20))
        head = head_at(0.6 * s, 0.0, 0.6 * c)
        got = correct_gaze_to_camera_frame(prediction_table(0.0, 0.0), head)
        np.testing.assert_allclose(got, [[-s, 0.0, -c]], atol=1e-12)

    def test_zero_prediction_ray_contains_camera_center_100_heads(self):
        rng = np.random.default_rng(2)
        heads = heads_at(rng.uniform([-0.4, -0.4, 0.2], [0.4, 0.4, 1.2], size=(100, 3)))
        d = correct_gaze_to_camera_frame(prediction_table(np.zeros(100), np.zeros(100)), heads)
        # distance from the origin to the line head + t*d
        assert np.all(np.linalg.norm(np.cross(heads.position, d), axis=1) < 1e-9)

    def test_absolute_convention_passthrough(self):
        head = head_at(0.3, -0.2, 0.5)
        pred = prediction_table(0.3, -0.25, CONVENTION_ABSOLUTE)
        np.testing.assert_allclose(
            correct_gaze_to_camera_frame(pred, head), [yaw_pitch_to_dir(0.3, -0.25)], atol=1e-15
        )

    @pytest.mark.parametrize("convention", CONVENTIONS)
    def test_head_behind_camera_rejected(self, convention):
        """A head at z <= 0 (or NaN) gets a NaN row; every other row keeps the clean batch's bits."""
        yaw, pitch = np.array([0.1, -0.2, 0.3, 0.0, -0.4]), np.array([0.05, 0.0, -0.1, 0.2, 0.3])
        clean = [[0.1, 0.0, 0.6], [0.0, 0.1, 0.5], [-0.1, 0.0, 0.7], [0.2, 0.2, 0.4], [0.0, -0.1, 0.8]]
        bad = [clean[0], [0.0, 0.0, -0.5], clean[2], [0.0, 0.0, 0.0], [np.nan] * 3]
        table = prediction_table(yaw, pitch, convention)
        want = correct_gaze_to_camera_frame(table, heads_at(clean))
        got = correct_gaze_to_camera_frame(table, heads_at(bad))
        assert np.isnan(got[[1, 3, 4]]).all()
        assert np.array_equal(got[[0, 2]], want[[0, 2]])


@pytest.mark.parametrize("convention", CONVENTIONS)
@settings(max_examples=300, deadline=None)
@given(
    head=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5), st.floats(0.05, 3.0)),
    direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 1e-3),
)
@example(head=(0.3, 0.2, 0.5), direction=(1e-8, 1.0, 0.0))  # 1e-8 off a pole
def test_correction_inverts_the_generators_encoding(convention, head, direction):
    """correct_gaze_to_camera_frame gives back, to 1e-10, the direction that synthetic's
    ideal network encoded for a head in front of the camera, at the pitch poles too."""
    d = np.array([direction]) / np.linalg.norm(direction)
    heads = heads_at(head)
    yaw_pitch = _encode_predictions(MethodSpec("m", convention), heads.position, d)
    got = correct_gaze_to_camera_frame(prediction_table(*yaw_pitch.T, convention), heads)
    assert np.abs(got - d).max() <= 1e-10


class TestGazePointOnSurface:
    def test_straight_down_hit(self):
        est = gaze_point_on_surface(head_at(0, 0, 0.4), np.array([[0, 0, -1.0]]), IDENTITY_PLANE)
        assert est.status.tolist() == [STATUS_OK]
        np.testing.assert_allclose(est.point, [[0, 0, 0]], atol=1e-15)
        assert est.alpha[0] == pytest.approx(0.4)

    def test_parallel_direction(self):
        est = gaze_point_on_surface(head_at(0, 0, 0.4), np.array([[1.0, 0, 0]]), IDENTITY_PLANE)
        assert est.status.tolist() == [STATUS_NO_INTERSECTION]
        assert np.all(np.isnan(est.point)) and np.isnan(est.alpha[0])

    def test_zero_or_nan_direction_is_marked(self):
        """A zero or non-finite direction row gets its own status and NaN values;
        every other row keeps the clean batch's bits."""
        heads = heads_at([[0, 0, 0.4], [0.1, 0.2, 0.5], [0.2, 0.0, 0.3], [0.0, 0.1, 0.6]])
        dirs = np.array([[0, 0, -1.0], [0, 0.6, -0.8], [0.1, 0.2, -0.9], [0.3, 0.0, -0.7]])
        clean = gaze_point_on_surface(heads, dirs, IDENTITY_PLANE)
        bad = dirs.copy()
        bad[1], bad[3] = 0.0, [np.nan, 0.0, -1.0]
        est = gaze_point_on_surface(heads, bad, IDENTITY_PLANE)
        assert est.status.tolist() == [STATUS_OK, STATUS_NO_DIRECTION, STATUS_OK, STATUS_NO_DIRECTION]
        assert np.isnan(est.point[[1, 3]]).all() and np.isnan(est.alpha[[1, 3]]).all()
        assert np.isnan(est.direction_cc[[1, 3]]).all()
        for field in ("point", "alpha", "direction_cc"):
            assert np.array_equal(getattr(est, field)[[0, 2]], getattr(clean, field)[[0, 2]])

    def test_upward_direction_away(self):
        est = gaze_point_on_surface(head_at(0, 0, 0.4), np.array([[0, 0, 1.0]]), IDENTITY_PLANE)
        assert est.status.tolist() == [STATUS_AWAY]

    def test_closed_form_example(self):
        est = gaze_point_on_surface(head_at(0.1, 0.2, 0.5), np.array([[0, 0.6, -0.8]]), IDENTITY_PLANE)
        assert est.alpha[0] == pytest.approx(0.625, abs=1e-15)
        np.testing.assert_allclose(est.point, [[0.1, 0.575, 0.0]], atol=1e-15)

    def test_point_on_ray_componentwise(self):
        rng = np.random.default_rng(17)
        origins, dirs = [], []
        for _ in range(200):
            origin = rng.uniform([-1, -1, 0.05], [1, 1, 2])
            d = random_unit_vectors(rng, 1)[0]
            if d[2] > -0.05:
                d = d * np.array([1, 1, -1.0])
                if abs(d[2]) < 0.05:
                    continue
                d /= np.linalg.norm(d)
            origins.append(origin)
            dirs.append(d)
        origins, dirs = np.array(origins), np.array(dirs)
        est = gaze_point_on_surface(heads_at(origins), dirs, IDENTITY_PLANE)
        np.testing.assert_allclose(est.point, origins + est.alpha[:, None] * dirs, atol=1e-12)
        assert np.all(np.abs(est.point[:, 2]) < 1e-12)

    def test_status_matches_geometry_predicate(self):
        rng = np.random.default_rng(6)
        origins, dirs = [], []
        for _ in range(300):
            origins.append(rng.uniform([-1, -1, -0.5], [1, 1, 1.0]))
            dirs.append(random_unit_vectors(rng, 1)[0])
        origins, dirs = np.array(origins), np.array(dirs)
        est = gaze_point_on_surface(heads_at(origins), dirs, IDENTITY_PLANE)
        should_be_ok = (dirs[:, 2] < -1e-12) & (origins[:, 2] > 0)
        ok = est.status == STATUS_OK
        np.testing.assert_array_equal(ok, should_be_ok)
        assert np.all(est.alpha[ok] > 0)
        assert np.all(np.abs(est.point[ok, 2]) < 1e-9)

    def test_hits_target_with_exact_direction(self, small_dataset):
        from planegaze.grid import target_centers

        ds = small_dataset
        est = gaze_point_on_surface(heads_at(ds.head_cc[:20]), ds.direction_cc[:20], ds.plane)
        assert est.status.tolist() == [STATUS_OK] * 20
        targets = target_centers(ds.grid, ds.frames.target_id[:20])
        assert np.all(np.linalg.norm(est.point - targets, axis=1) < 1e-8)


class TestGroundTruthDirection:
    def test_straight_down(self):
        d = ground_truth_direction(head_at(0, 0, 0.5), IDENTITY_PLANE, [[0, 0, 0]])
        np.testing.assert_allclose(d, [[0, 0, -1.0]], atol=1e-15)

    def test_three_four_five(self):
        d = ground_truth_direction(head_at(0.3, 0, 0.4), IDENTITY_PLANE, [[0, 0, 0]])
        np.testing.assert_allclose(d, [[-0.6, 0, -0.8]], atol=1e-15)

    def test_head_on_target_row_is_nan(self):
        d = ground_truth_direction(heads_at([[0.1, 0.2, 1e-12], [0.0, 0.0, 0.5]]), IDENTITY_PLANE,
                                   [[0.1, 0.2, 0], [0, 0, 0]])
        assert np.all(np.isnan(d[0]))
        np.testing.assert_allclose(d[1], [0, 0, -1.0], atol=1e-15)

    def test_round_trip_recovers_target(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            from planegaze.geometry import rotation_from_axis_angle

            R = rotation_from_axis_angle(axis * rng.uniform(0, 0.6))
            plane = PlanePose(RigidTransform(R, rng.normal(0, 0.3, 3)))
            target = np.array([[rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), 0.0]])
            head_plane = rng.uniform([-0.3, -0.3, 0.2], [0.3, 0.3, 1.0])
            head = heads_at(plane.transform.inverse().apply_points(head_plane))
            d = ground_truth_direction(head, plane, target)
            est = gaze_point_on_surface(head, d, plane)
            assert est.status.tolist() == [STATUS_OK]
            assert np.linalg.norm(est.point - target) < 1e-9

    def test_angular_error_frame_invariant(self):
        rng = np.random.default_rng(10)
        a, b = random_unit_vectors(rng, 2)
        base = angular_error_deg(a[None], b[None])
        R = np.array([random_rotation(rng) for _ in range(20)])
        np.testing.assert_allclose(angular_error_deg(R @ a, R @ b), np.full(20, base[0]), rtol=0, atol=1e-7)
