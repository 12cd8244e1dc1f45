import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planegaze.calibration import CornerTable
from planegaze.camera import CameraIntrinsics, project_points
from planegaze.errors import DegenerateConfigurationError
from planegaze.geometry import RigidTransform, rotation_from_axis_angle
from planegaze.grid import GridConfig, corner_position, default_target_map, target_centers
from planegaze.plane import estimate_plane_pose

from test_calibration import rotation_angle


class TestGrid:
    def test_origin_corner(self):
        cfg = GridConfig(square_size=0.05, rows=4, cols=4)
        np.testing.assert_allclose(corner_position(cfg, 0, 0), [0, 0, 0])

    def test_corner_formula(self):
        cfg = GridConfig(square_size=0.05, rows=4, cols=4)
        np.testing.assert_allclose(corner_position(cfg, 2, 3), [0.10, 0.15, 0.0])

    def test_all_corners_on_plane(self):
        cfg = GridConfig(square_size=0.03, rows=5, cols=8)
        pts = corner_position(cfg, *np.array(cfg.corner_indices()).T)
        assert pts.shape == (6 * 9, 3)
        assert np.all(pts[:, 2] == 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        square=st.floats(1e-4, 10.0),
        ij=st.lists(st.tuples(st.integers(-3, 60), st.integers(-3, 60)), max_size=30),
    )
    def test_corner_position_arrays_match_scalars(self, square, ij):
        cfg = GridConfig(square_size=square, rows=4, cols=4)
        i, j = np.array(ij, dtype=int).reshape(-1, 2).T
        scalars = np.array([corner_position(cfg, a, b) for a, b in ij]).reshape(-1, 3)
        formula = np.array([(square * a, square * b, 0.0) for a, b in ij]).reshape(-1, 3)
        batch = corner_position(cfg, i, j)
        assert batch.shape == (len(ij), 3)
        assert batch.tobytes() == scalars.tobytes() == formula.tobytes()
        table = corner_position(cfg, i[:, None], j[None, :])
        assert table.shape == (len(ij), len(ij), 3)
        assert table[np.arange(len(ij)), np.arange(len(ij))].tobytes() == batch.tobytes()

    def test_target_centers_cells(self):
        cfg = GridConfig(square_size=0.05, rows=4, cols=4, target_map={1: (0, 0), 2: (2, 3)})
        centers = target_centers(cfg, [2, 1, 2])
        np.testing.assert_allclose(centers, [[0.125, 0.175, 0.0], [0.025, 0.025, 0.0], [0.125, 0.175, 0.0]])
        assert centers.tobytes() == np.array([[0.05 * 2.5, 0.05 * 3.5, 0.0], [0.05 * 0.5, 0.05 * 0.5, 0.0],
                                              [0.05 * 2.5, 0.05 * 3.5, 0.0]]).tobytes()

    def test_unknown_target_is_a_nan_row(self):
        cfg = GridConfig(square_size=0.05, rows=5, cols=8, target_map=default_target_map(5, 8, 20))
        centers = target_centers(cfg, [21, 1, 0, -3, 20])
        assert np.isnan(centers[[0, 2, 3]]).all() and np.isfinite(centers[[1, 4]]).all()
        empty = GridConfig(square_size=0.05, rows=5, cols=8)
        assert np.isnan(target_centers(empty, [1, 2])).all() and target_centers(empty, []).shape == (0, 3)

    def test_centers_strictly_inside_grid(self):
        cfg = GridConfig(square_size=0.06, rows=5, cols=8, target_map=default_target_map(5, 8, 20))
        c = target_centers(cfg, list(cfg.target_map))
        assert np.all((0 < c[:, 0]) & (c[:, 0] < cfg.square_size * cfg.rows))
        assert np.all((0 < c[:, 1]) & (c[:, 1] < cfg.square_size * cfg.cols))

    def test_default_layout_has_twenty_alternating_cells(self):
        mapping = default_target_map(5, 8, 20)
        assert sorted(mapping) == list(range(1, 21))
        assert all((i + j) % 2 == 0 for i, j in mapping.values())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GridConfig(square_size=0.0, rows=4, cols=4)
        with pytest.raises(ValueError):
            GridConfig(square_size=0.05, rows=2, cols=2, target_map={1: (5, 5)})
        with pytest.raises(ValueError):
            GridConfig(square_size=0.05, rows=2, cols=2, target_map={1: (0, 0), 2: (0, 0)})


GRID = GridConfig(square_size=0.05, rows=4, cols=6)
K = CameraIntrinsics(
    fx=700.0, fy=705.0, cx=640.0, cy=360.0,
    dist=(-0.18, 0.035, 3e-4, -2e-4, 0.001), image_size=(1280, 720),
)


def observed_corners(cam_from_plane: RigidTransform, sigma=0.0, rng=None):
    """The grid's corners seen from ``cam_from_plane``, as one left-camera view."""
    idx = np.array(list(GRID.corner_indices()))
    uv = project_points(K, cam_from_plane, corner_position(GRID, idx[:, 0], idx[:, 1]))
    if sigma > 0:
        uv = uv + rng.normal(0, sigma, uv.shape)
    return CornerTable(np.full(len(idx), "plane"), np.full(len(idx), "left"), idx, uv)


def straight_down_pose() -> RigidTransform:
    """Camera 0.5 m above the grid center looking straight down."""
    center = np.array([GRID.square_size * GRID.rows / 2, GRID.square_size * GRID.cols / 2, 0.0])
    # camera axes in plane frame: x -> +X, y -> +Y, z -> -Z (down)
    R_plane_from_cam = np.column_stack([[1, 0, 0], [0, -1, 0], [0, 0, -1.0]])
    cam_pos_plane = center + np.array([0, 0, 0.5])
    return RigidTransform(R_plane_from_cam.T, -(R_plane_from_cam.T @ cam_pos_plane))


class TestEstimatePlanePose:
    def test_straight_down_view_recovered_exactly(self):
        cam_from_plane = straight_down_pose()
        pose = estimate_plane_pose(observed_corners(cam_from_plane), GRID, K)
        assert pose.rms_reprojection < 1e-8
        true_cam_to_plane = cam_from_plane.inverse()
        assert rotation_angle(pose.transform.rotation, true_cam_to_plane.rotation) < 1e-6
        assert np.linalg.norm(pose.transform.translation - true_cam_to_plane.translation) < 1e-6

    def test_oblique_view_noise_translation_within_2mm_median(self):
        R_tilt = rotation_from_axis_angle([math.radians(45.0), 0, 0])
        base = straight_down_pose()
        cam_from_plane = RigidTransform(
            R_tilt @ base.rotation, R_tilt @ base.translation + np.array([0, 0.25, 0.1])
        )
        true_cam_to_plane = cam_from_plane.inverse()
        errs = []
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            pose = estimate_plane_pose(observed_corners(cam_from_plane, 0.2, rng), GRID, K)
            errs.append(np.linalg.norm(pose.transform.translation - true_cam_to_plane.translation))
        assert np.median(errs) < 2e-3

    def test_zero_noise_corners_land_on_plane(self):
        cam_from_plane = straight_down_pose()
        pose = estimate_plane_pose(observed_corners(cam_from_plane), GRID, K)
        idx = GRID.corner_indices()
        pts_plane = np.array([corner_position(GRID, i, j) for i, j in idx])
        pts_cam = cam_from_plane.apply_points(pts_plane)
        z = pose.transform.apply_points(pts_cam)[:, 2]
        assert np.abs(z).max() < 1e-6

    def test_single_row_degenerate(self):
        cam_from_plane = straight_down_pose()
        corners = observed_corners(cam_from_plane)
        corners = corners.take(corners.ij[:, 0] == 2)
        with pytest.raises(DegenerateConfigurationError):
            estimate_plane_pose(corners, GRID, K)

    def test_too_few_corners(self):
        cam_from_plane = straight_down_pose()
        with pytest.raises(DegenerateConfigurationError):
            estimate_plane_pose(observed_corners(cam_from_plane).take(slice(3)), GRID, K)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(55)
        corners = observed_corners(straight_down_pose(), 0.3, rng)
        a = estimate_plane_pose(corners, GRID, K)
        order = np.arange(len(corners))
        rng.shuffle(order)
        b = estimate_plane_pose(corners.take(order), GRID, K)
        assert np.abs(a.transform.rotation - b.transform.rotation).max() < 1e-9
        assert np.abs(a.transform.translation - b.transform.translation).max() < 1e-9
