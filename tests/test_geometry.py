import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planegaze.geometry import (
    RigidTransform,
    angular_error_deg,
    directions_to_yaw_pitch,
    require_rotation,
    rotation_from_axis_angle,
    yaw_pitch_to_dir,
)
from planegaze.pipeline import (
    STATUS_AWAY,
    STATUS_NO_INTERSECTION,
    STATUS_OK,
    gaze_point_on_surface,
)
from planegaze.plane import PlanePose

from conftest import heads_at, random_rotation, random_unit_vectors


class TestGazeAngles:
    def test_zero_angles_point_at_camera(self):
        np.testing.assert_allclose(yaw_pitch_to_dir(0.0, 0.0), [0, 0, -1], atol=1e-15)

    def test_pure_yaw(self):
        np.testing.assert_allclose(yaw_pitch_to_dir(math.pi / 2, 0.0), [-1, 0, 0], atol=1e-15)

    def test_pure_pitch_up_in_y_down_frame(self):
        np.testing.assert_allclose(yaw_pitch_to_dir(0.0, math.pi / 2), [0, -1, 0], atol=1e-15)

    def test_inverse_trivial_cases(self):
        (yp0, (yaw, pitch)) = directions_to_yaw_pitch(np.array([[0, 0, -1.0], [-1.0, 0, 0]]))
        assert yp0 == pytest.approx((0.0, 0.0))
        assert yaw == pytest.approx(math.pi / 2)
        assert pitch == pytest.approx(0.0)

    def test_gimbal_pole_gets_zero_yaw(self):
        (yaw, pitch), = directions_to_yaw_pitch(np.array([[0, -1.0, 0]]))
        assert yaw == 0.0
        assert pitch == pytest.approx(math.pi / 2)

    def test_round_trip_1000_random_unit_vectors(self):
        rng = np.random.default_rng(42)
        dirs = random_unit_vectors(rng, 1000)
        yp = directions_to_yaw_pitch(dirs)
        back = yaw_pitch_to_dir(yp[:, 0], yp[:, 1])
        assert np.abs(back - dirs).max() < 1e-9

    def test_canonical_ranges(self):
        rng = np.random.default_rng(7)
        yp = directions_to_yaw_pitch(random_unit_vectors(rng, 500))
        assert np.all(yp[:, 0] > -math.pi) and np.all(yp[:, 0] <= math.pi)
        assert np.all(np.abs(yp[:, 1]) <= math.pi / 2)


class TestAngularError:
    def test_identical_directions(self):
        assert angular_error_deg([[0, 0, -1]], [[0, 0, -1]]).tolist() == [0.0]

    def test_ten_degrees(self):
        d = [0, -math.sin(math.radians(10)), -math.cos(math.radians(10))]
        assert angular_error_deg([[0, 0, -1]], [d])[0] == pytest.approx(10.0, abs=1e-9)

    def test_opposite_directions(self):
        assert angular_error_deg([[0, 0, -1]], [[0, 0, 1]])[0] == pytest.approx(180.0)

    def test_symmetric_nonnegative_and_rotation_invariant(self):
        rng = np.random.default_rng(3)
        a, b, R = [], [], []
        for _ in range(50):
            pair = random_unit_vectors(rng, 2)
            a.append(pair[0])
            b.append(pair[1])
            R.append(random_rotation(rng))
        a, b, R = np.array(a), np.array(b), np.array(R)
        e = angular_error_deg(a, b)
        assert e.shape == (50,) and np.all(e >= 0.0)
        np.testing.assert_allclose(angular_error_deg(b, a), e, rtol=0, atol=1e-12)
        rotated = angular_error_deg((R @ a[:, :, None])[:, :, 0], (R @ b[:, :, None])[:, :, 0])
        np.testing.assert_allclose(rotated, e, rtol=0, atol=1e-7)

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(8)
        a, b = random_unit_vectors(rng, 2)
        # arccos near 1 amplifies float noise to ~sqrt(eps) radians
        same, different = angular_error_deg([a, a], [a, b])
        assert same == pytest.approx(0.0, abs=5e-6)
        assert different > 1e-3


class TestRigidTransform:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3) * 1.1, np.zeros(3))

    def test_rejects_reflection(self):
        R = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            RigidTransform(R, np.zeros(3))

    def test_compose_and_inverse(self):
        rng = np.random.default_rng(11)
        T1 = RigidTransform(random_rotation(rng), rng.normal(size=3))
        T2 = RigidTransform(random_rotation(rng), rng.normal(size=3))
        p = rng.normal(size=3)
        np.testing.assert_allclose(
            T2.compose(T1).apply_points(p), T2.apply_points(T1.apply_points(p)), atol=1e-12
        )
        roundtrip = T1.inverse().apply_points(T1.apply_points(p))
        np.testing.assert_allclose(roundtrip, p, atol=1e-12)

    def test_exp_map_is_second_order_accurate_near_zero(self):
        """Below and above the series switch at 1e-8 rad, exp([w]x) is I + [w]x + [w]x^2 / 2 to
        |w|^3, so the map is smooth through zero; exp(0) is I exactly."""
        rng = np.random.default_rng(5)
        assert np.array_equal(rotation_from_axis_angle(np.zeros(3)), np.eye(3))
        for theta in [1e-12, 1e-9, 1e-8 * (1 - 1e-9), 1e-8, 1e-8 * (1 + 1e-9), 1e-6, 1e-4]:
            axis = rng.normal(size=3)
            w = axis / np.linalg.norm(axis) * theta
            K = np.cross(np.eye(3), w)  # [w]x: row i is e_i x w
            taylor = np.eye(3) + K + K @ K / 2.0
            assert np.abs(rotation_from_axis_angle(w) - taylor).max() <= theta ** 3 + 4e-16


@settings(max_examples=300, deadline=None)
@given(
    axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 1e-3),
    other=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
    angle=st.one_of(
        st.floats(0.0, math.pi), st.floats(math.pi - 1e-6, math.pi), st.floats(0.0, 1e-7)
    ),
)
def test_exp_map_turns_about_its_axis_up_to_pi(axis, other, angle):
    """exp(theta a) fixes a, turns u perpendicular to a into cos(theta) u + sin(theta) a x u,
    has trace 1 + 2 cos(theta) and is a proper rotation, for every angle in [0, pi]."""
    a = np.array(axis) / np.linalg.norm(axis)
    u = np.cross(a, other)
    R = rotation_from_axis_angle(a * angle)
    require_rotation(R)
    np.testing.assert_allclose(R @ a, a, rtol=0, atol=1e-12)
    want = math.cos(angle) * u + math.sin(angle) * np.cross(a, u)
    np.testing.assert_allclose(R @ u, want, rtol=0, atol=1e-12)
    assert abs(np.trace(R) - (1.0 + 2.0 * math.cos(angle))) <= 1e-12


def test_exp_map_batch_rows_equal_single_calls():
    rng = np.random.default_rng(8)
    axes = random_unit_vectors(rng, 8)
    angles = [0.0, 1e-10, 1e-8, 0.4, 2.0, math.pi - 1e-6, math.pi - 1e-9, math.pi]
    rvecs = axes * np.array(angles)[:, None]
    batch = rotation_from_axis_angle(rvecs)
    assert batch.shape == (8, 3, 3)
    for rvec, R in zip(rvecs, batch):
        assert np.array_equal(rotation_from_axis_angle(rvec), R)


class TestRayPlaneIntersection:
    """Ray/plane cases on the one remaining intersection, with the plane at z = 0."""

    plane = PlanePose(RigidTransform.identity())

    def intersect(self, origin, direction):
        return gaze_point_on_surface(heads_at(origin), np.array([direction], dtype=float), self.plane)

    def test_straight_down(self):
        est = self.intersect([0, 0, 1.0], [0, 0, -1.0])
        assert est.status.tolist() == [STATUS_OK]
        np.testing.assert_allclose(est.point, [[0, 0, 0]], atol=1e-15)
        assert est.alpha[0] == pytest.approx(1.0)

    def test_parallel_ray(self):
        est = self.intersect([0, 0, 1.0], [0, 1.0, 0])
        assert est.status.tolist() == [STATUS_NO_INTERSECTION]
        assert np.all(np.isnan(est.point))

    def test_away_from_plane(self):
        est = self.intersect([0, 0, 1.0], [0, 0, 1.0])
        assert est.status.tolist() == [STATUS_AWAY]
        assert np.all(np.isnan(est.point))
