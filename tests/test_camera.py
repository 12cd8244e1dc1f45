import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planegaze.camera import CameraIntrinsics, project_points, undistort_pixels
from planegaze.geometry import RigidTransform, rotation_from_axis_angle
from planegaze.synthetic import default_scene


def plain_camera(**kwargs) -> CameraIntrinsics:
    base = dict(fx=1000.0, fy=1000.0, cx=640.0, cy=360.0, image_size=(1280, 720))
    base.update(kwargs)
    return CameraIntrinsics(**base)


IDENTITY = RigidTransform.identity()
DEFAULT_RIG = default_scene().rig


def fold(k1, k2, k3) -> float:
    """s, the smallest positive root of 1 + 3 k1 s + 5 k2 s^2 + 7 k3 s^3 (inf if none): past
    r^2 = s the radial map r (1 + k1 r^2 + k2 r^4 + k3 r^6) turns over."""
    roots = np.roots([7 * k3, 5 * k2, 3 * k1, 1])
    return min((r.real for r in roots if abs(r.imag) < 1e-12 and r.real > 0), default=np.inf)


class TestProjection:
    def test_optical_axis_hits_principal_point(self):
        K = plain_camera()
        assert project_points(K, IDENTITY, [[0, 0, 1.0]]).tolist() == [pytest.approx((640.0, 360.0))]

    def test_plain_pinhole_example(self):
        K = plain_camera()
        assert project_points(K, IDENTITY, [[0.1, 0, 1.0]]).tolist() == [pytest.approx((740.0, 360.0))]

    def test_radial_distortion_example(self):
        # r2 = 0.01, radial factor 1 - 0.2 * 0.01 = 0.998
        K = plain_camera(dist=(-0.2, 0, 0, 0, 0))
        (u, v), = project_points(K, IDENTITY, [[0.1, 0, 1.0]])
        assert u == pytest.approx(640.0 + 1000.0 * 0.1 * 0.998, abs=1e-12)
        assert v == pytest.approx(360.0)

    @settings(max_examples=200, deadline=None)
    @given(
        points=st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.one_of(
            st.floats(-2, 2), st.sampled_from([0.0, 1e-9, np.nextafter(1e-9, 1.0), 1e-9 * (1 - 1e-15)]))),
            min_size=1, max_size=12),
        rvec=st.tuples(*[st.floats(-0.3, 0.3)] * 3),
        t=st.tuples(*[st.floats(-0.5, 0.5)] * 3),
        posed=st.booleans(),
    )
    def test_point_behind_camera_marks_its_row(self, points, rvec, t, posed):
        """A point at z <= 1e-9 after the pose gets a NaN row, without a warning; every
        other row equals the one-row call on its own point, under the same pose, bit for bit."""
        K = plain_camera(dist=(-0.2, 0.05, 1e-3, -1e-3, 0.01))
        pose = RigidTransform(rotation_from_axis_angle(np.array(rvec)), t) if posed else IDENTITY
        X = np.array(points)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            uv = project_points(K, pose, X)
        Xc = pose.apply_points(X)
        behind = Xc[:, 2] <= 1e-9
        assert np.array_equal(np.isnan(uv).any(axis=1), behind) and np.isnan(uv[behind]).all()
        for k in np.flatnonzero(~behind):
            assert uv[k].tobytes() == project_points(K, pose, X[k:k + 1])[0].tobytes()

    def test_scale_invariance_without_distortion(self):
        K = plain_camera()
        rng = np.random.default_rng(0)
        X, c = [], []
        for _ in range(50):
            X.append(rng.uniform([-0.4, -0.3, 0.5], [0.4, 0.3, 2.0]))
            c.append(rng.uniform(0.1, 10.0))
        X, c = np.array(X), np.array(c)
        np.testing.assert_allclose(project_points(K, IDENTITY, X), project_points(K, IDENTITY, c[:, None] * X), atol=1e-9)

    def test_intrinsics_validation(self):
        with pytest.raises(ValueError):
            plain_camera(fx=-1.0)
        with pytest.raises(ValueError):
            plain_camera(cx=2000.0)


class TestUndistortion:
    def test_zero_distortion_is_affine_inverse(self):
        K = plain_camera()
        (x, y), = undistort_pixels(K, [(740.0, 410.0)])
        assert x == pytest.approx((740.0 - 640.0) / 1000.0)
        assert y == pytest.approx((410.0 - 360.0) / 1000.0)

    def test_principal_point_maps_to_origin_for_any_distortion(self):
        for dist in [(0, 0, 0, 0, 0), (-0.3, 0.1, 1e-3, -2e-3, 0.01), (0.2, -0.05, 0, 0, 0)]:
            K = plain_camera(dist=dist)
            assert undistort_pixels(K, [(640.0, 360.0)]).tolist() == [pytest.approx((0.0, 0.0), abs=1e-12)]

    def test_round_trip_1000_random_pixels(self):
        # project-then-undistort oracle on a strongly distorted camera
        K = plain_camera(fx=600.0, fy=600.0, dist=(-0.3, 0.06, 3e-4, -2e-4, 0.0))
        rng = np.random.default_rng(99)
        xy = rng.uniform(-0.6, 0.6, size=(1000, 2))
        pts = np.column_stack([xy, np.ones(1000)])
        pixels = project_points(K, IDENTITY, pts)
        normalized = undistort_pixels(K, pixels)
        back = project_points(K, IDENTITY, np.column_stack([normalized, np.ones(1000)]))
        assert np.abs(back - pixels).max() < 1e-6

    def test_not_invertible_far_outside_model(self):
        # r_d = r (1 - 0.5 r^2) peaks at about 0.544, so a pixel at r_d = 3.7 has no
        # preimage: its row is NaN, and the pixel passed with it still goes through
        K = plain_camera(fx=200.0, fy=200.0, dist=(-0.5, 0, 0, 0, 0))
        good = (660.0, 370.0)
        both = undistort_pixels(K, [(1280.0, 720.0), good])
        assert both.shape == (2, 2) and np.isnan(both[0]).all()
        assert both[1].tobytes() == undistort_pixels(K, [good])[0].tobytes()
        assert np.isnan(undistort_pixels(K, [(np.nan, 360.0)])).all()

    @settings(max_examples=200, deadline=None)
    @given(camera=st.sampled_from(["left", "right"]), uv=st.lists(
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=50))
    def test_round_trip_over_the_full_image_of_the_default_lenses(self, camera, uv):
        """Every pixel of either default lens's image, its corners included, undistorts
        to a point that projects back onto it to 1e-6 px, without a warning."""
        K = getattr(DEFAULT_RIG, camera)
        pixels = np.array(uv) * K.image_size
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            normalized = undistort_pixels(K, pixels)
        assert not np.isnan(normalized).any()
        back = project_points(K, IDENTITY, np.column_stack([normalized, np.ones(len(pixels))]))
        assert np.abs(back - pixels).max() <= 1e-6

    @settings(max_examples=300, deadline=None)
    @given(k=st.tuples(*[st.floats(-1.0, 1.0).map(lambda v: round(v, 4))] * 3),  # keeps np.roots finite
           p=st.tuples(*[st.floats(-0.01, 0.01)] * 2),
           xy=st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)), min_size=1, max_size=20))
    def test_every_returned_row_lies_inside_the_fold(self, k, p, xy):
        """For any lens, a row that comes back lies inside the radial fold, r^2 < s, with s
        found by an eigensolver here, and projects back onto its pixel."""
        (k1, k2, k3), (p1, p2) = k, p
        K = plain_camera(fx=200.0, fy=200.0, dist=(k1, k2, p1, p2, k3))
        pixels = np.array(xy) * 200.0 + (640.0, 360.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            normalized = undistort_pixels(K, pixels)
        returned = ~np.isnan(normalized).any(axis=1)
        assert np.all((normalized[returned] ** 2).sum(axis=1) < fold(k1, k2, k3))
        back = project_points(K, IDENTITY, np.column_stack([normalized[returned], np.ones(returned.sum())]))
        assert np.abs(back - pixels[returned]).max(initial=0.0) <= 1e-6
