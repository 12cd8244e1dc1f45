import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from planegaze.calibration import StereoRig
from planegaze.camera import CameraIntrinsics, project_points
from planegaze.geometry import RigidTransform, rotation_from_axis_angle
from planegaze.synthetic import default_scene
from planegaze.triangulation import (
    SOURCE_BBOX,
    SOURCE_EYES,
    _pixel_directions,
    head_point,
    triangulate_midpoint,
)

from conftest import face_table

K_LEFT = CameraIntrinsics(
    fx=1000.0, fy=1000.0, cx=640.0, cy=360.0,
    dist=(-0.1, 0.02, 1e-4, -1e-4, 0.0), image_size=(1280, 720),
)
K_RIGHT = CameraIntrinsics(
    fx=995.0, fy=990.0, cx=642.0, cy=358.0,
    dist=(-0.12, 0.025, -2e-4, 1e-4, 0.0), image_size=(1280, 720),
)


def make_rig(baseline=0.06, toe_in=0.0) -> StereoRig:
    R = rotation_from_axis_angle([0.0, toe_in, 0.0])
    return StereoRig(K_LEFT, K_RIGHT, RigidTransform(R, -(R @ np.array([baseline, 0, 0]))))


def project_pair(rig: StereoRig, X):
    """Left and right pixels (N, 2) of points X (N, 3), or (1, 2) of one point (3,)."""
    X = np.reshape(X, (-1, 3))
    return project_points(rig.left, RigidTransform.identity(), X), project_points(rig.right, rig.right_from_left, X)


class TestPixelDirections:
    """Back-projection: the ray from the camera center through each pixel."""

    def test_principal_point_gives_optical_axis(self):
        K = CameraIntrinsics(fx=1000.0, fy=1000.0, cx=640.0, cy=360.0, image_size=(1280, 720))
        np.testing.assert_allclose(_pixel_directions(K, [(640.0, 360.0)]), [[0, 0, 1.0]], atol=1e-12)

    def test_known_offset_pixel(self):
        K = CameraIntrinsics(fx=1000.0, fy=1000.0, cx=640.0, cy=360.0, image_size=(1280, 720))
        expected = np.array([0.1, 0, 1.0])
        np.testing.assert_allclose(_pixel_directions(K, [(740.0, 360.0)]), [expected / np.linalg.norm(expected)],
                                   atol=1e-12)

    def test_back_projected_ray_passes_through_source_point(self):
        rng = np.random.default_rng(4)
        X = rng.uniform([-0.3, -0.2, 0.4], [0.3, 0.2, 1.2], size=(100, 3))
        d = _pixel_directions(K_LEFT, project_points(K_LEFT, RigidTransform.identity(), X))
        # distance from X to the ray through the origin
        assert np.all(np.linalg.norm(np.cross(X, d), axis=1) < 1e-9)


class TestTriangulateMidpoint:
    def test_exact_recovery(self):
        rig = make_rig()
        X = np.array([0.1, -0.05, 0.6])
        pl, pr = project_pair(rig, X)
        hp = triangulate_midpoint(rig, pl, pr)
        assert hp.failure.tolist() == [""]
        assert np.linalg.norm(hp.position[0] - X) < 1e-8
        assert hp.ray_gap[0] < 1e-9

    def test_noise_under_one_centimeter_at_depth(self):
        rig = make_rig()
        X = np.array([0.05, -0.02, 0.6])
        pl, pr = project_pair(rig, X)
        rng = np.random.default_rng(77)
        noise = rng.normal(0, 0.5, (100, 2, 2))  # per trial: left (u, v), then right (u, v)
        hp = triangulate_midpoint(rig, pl + noise[:, 0], pr + noise[:, 1])
        errs = np.linalg.norm(hp.position - X, axis=1)
        assert np.median(errs) < 0.01

    def test_zero_baseline_parallel_rays(self):
        rig = StereoRig(K_LEFT, K_LEFT, RigidTransform.identity())
        hp = triangulate_midpoint(rig, [(640.0, 360.0)], [(640.0, 360.0)])
        assert hp.failure.tolist() == ["ParallelRaysError"]
        assert np.all(np.isnan(hp.position)) and np.isnan(hp.ray_gap[0])

    def test_crossing_behind_cameras(self):
        K = CameraIntrinsics(fx=1000.0, fy=1000.0, cx=640.0, cy=360.0, image_size=(1280, 720))
        rig = StereoRig(K, K, RigidTransform(np.eye(3), [-0.06, 0, 0]))
        # left ray along the axis, right ray tilted outward: they diverge in
        # front, so the closest approach sits behind the cameras
        hp = triangulate_midpoint(rig, [(640.0, 360.0)], [(640.0 + 1000.0 * 0.75, 360.0)])
        assert hp.failure.tolist() == ["BehindCameraError"]
        assert np.all(np.isnan(hp.position)) and np.isnan(hp.ray_gap[0])

    def test_swap_symmetry(self):
        rig = make_rig(toe_in=-0.02)
        swapped = StereoRig(rig.right, rig.left, rig.right_from_left.inverse())
        rng = np.random.default_rng(13)
        X = rng.uniform([-0.1, -0.1, 0.4], [0.2, 0.1, 1.0], size=(20, 3))
        pl, pr = project_pair(rig, X)
        a = triangulate_midpoint(rig, pl, pr).position
        b_right_frame = triangulate_midpoint(swapped, pr, pl).position
        b = rig.right_from_left.inverse().apply_points(b_right_frame)
        assert np.all(np.linalg.norm(a - b, axis=1) < 1e-9)

    def test_depth_decreases_with_disparity(self):
        K = CameraIntrinsics(fx=1000.0, fy=1000.0, cx=640.0, cy=360.0, image_size=(1280, 720))
        rig = StereoRig(K, K, RigidTransform(np.eye(3), [-0.06, 0, 0]))
        disparity = np.linspace(20.0, 200.0, 12)
        hp = triangulate_midpoint(rig, np.tile([640.0, 360.0], (12, 1)),
                                  np.column_stack([640.0 - disparity, np.full(12, 360.0)]))
        depths = hp.position[:, 2]
        assert np.all(depths[:-1] > depths[1:])

    @settings(max_examples=200, deadline=None)
    @given(points=st.lists(st.tuples(st.floats(-2.2, 2.2), st.floats(-1.5, 1.5), st.floats(0.1, 5.0)),
                           min_size=5, max_size=40))
    def test_inverts_projection_over_the_field_both_default_cameras_see(self, points):
        """Exact projections of a point into both default cameras triangulate back to it, over the
        whole field the two images share: the points are drawn at depths of 0.1-5 m along left
        normalized coordinates |x| <= 2.2, |y| <= 1.5, which hold the left image's whole border
        (|x| <= 1.96, |y| <= 1.34), and each one both images see is kept."""
        rig = default_scene().rig
        x, y, z = np.array(points).T
        X = np.column_stack([x * z, y * z, z])
        pl, pr = project_pair(rig, X)
        seen = np.all((pl >= 0) & (pl <= rig.left.image_size) & (pr >= 0) & (pr <= rig.right.image_size), axis=1)
        assume(seen.any())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hp = triangulate_midpoint(rig, pl[seen], pr[seen])
        assert hp.failure.tolist() == [""] * seen.sum()
        assert np.all(np.linalg.norm(hp.position - X[seen], axis=1) <= 1e-9 * np.linalg.norm(X[seen], axis=1))


def faces(frame="f0", camera="left", bbox=(600.0, 300.0, 700.0, 420.0), eyes=(650.0, 340.0)):
    """A one-row FaceTable; None leaves a source out (NaN)."""
    return face_table([(frame, camera, bbox, eyes)])


class TestHeadPoint:
    def test_prefers_eye_midpoint_when_available(self):
        rig = make_rig()
        X = np.array([0.02, -0.03, 0.55])
        pl, pr = project_pair(rig, X)
        left = faces("f0", "left", bbox=(0.0, 0.0, 10.0, 10.0), eyes=pl[0])
        right = faces("f0", "right", bbox=(0.0, 0.0, 10.0, 10.0), eyes=pr[0])
        hp = head_point(left, right, rig, SOURCE_EYES)
        assert hp.source.tolist() == [SOURCE_EYES]
        assert np.linalg.norm(hp.position[0] - X) < 1e-8

    def test_falls_back_to_bbox_center(self):
        rig = make_rig()
        X = np.array([0.02, -0.03, 0.55])
        (pl,), (pr,) = project_pair(rig, X)
        left = faces("f0", "left", bbox=(pl[0] - 40, pl[1] - 50, pl[0] + 40, pl[1] + 50), eyes=None)
        right = faces("f0", "right", bbox=(pr[0] - 40, pr[1] - 50, pr[0] + 40, pr[1] + 50), eyes=None)
        hp = head_point(left, right, rig, SOURCE_EYES)
        assert hp.source.tolist() == [SOURCE_BBOX]
        assert np.linalg.norm(hp.position[0] - X) < 1e-8

    def test_no_shared_source_row_is_marked(self):
        rig = make_rig()
        hp = head_point(faces(eyes=None), faces(camera="right", bbox=None), rig)
        assert hp.failure.tolist() == ["MissingObservationError"]
        assert np.all(np.isnan(hp.position)) and np.isnan(hp.ray_gap[0])

    def test_frame_mismatch(self):
        rig = make_rig()
        with pytest.raises(ValueError):
            head_point(faces(frame="f0"), faces(frame="f1", camera="right"), rig)
