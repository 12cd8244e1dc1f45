import re
from dataclasses import replace

import numpy as np
import pytest

from planegaze.calibration import (
    CornerTable,
    calibrate_camera,
    calibrate_stereo,
    estimate_homography,
    intrinsics_from_homographies,
    pose_from_homography,
    refine_calibration,
)
from planegaze.camera import CameraIntrinsics, project_points
from planegaze.errors import (
    DegenerateConfigurationError,
    IllConditionedError,
    InvalidPoseError,
    NoSharedViewsError,
)
from planegaze.geometry import RigidTransform, rotation_from_axis_angle
from planegaze.grid import GridConfig, corner_position

from conftest import all_shared, calibration_result, view_poses


# --- forward synthesis oracle -------------------------------------------------

TEST_GRID = GridConfig(square_size=0.04, rows=4, cols=6)


def board_points(grid=TEST_GRID):
    return np.array([corner_position(grid, i, j) for i, j in grid.corner_indices()])


def sample_pose(rng, z_range=(0.5, 1.0)) -> RigidTransform:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    R = rotation_from_axis_angle(axis * rng.uniform(0.05, 0.5))
    center = board_points().mean(axis=0)
    pos = np.array([rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05), rng.uniform(*z_range)])
    return RigidTransform(R, pos - R @ center)


def synth_observations(K, poses, camera_id="left", sigma=0.0, rng=None, grid=TEST_GRID):
    """Exact (optionally noisy) projections of the board through known poses."""
    pts = board_points(grid)
    ij = np.array(list(grid.corner_indices()))
    views = []
    for vid, pose in sorted(poses.items()):
        uv = project_points(K, pose, pts)
        if sigma > 0:
            uv = uv + rng.normal(0.0, sigma, uv.shape)
        views.append(CornerTable(np.full(len(ij), vid), np.full(len(ij), camera_id), ij, uv))
    return CornerTable.concat(views)


def residuals(K, poses, corners, grid=TEST_GRID):
    """Reprojection residuals (N, 2) of a corner table's views through known poses."""
    lookup = {ij: k for k, ij in enumerate(grid.corner_indices())}
    pts = board_points(grid)[[lookup[tuple(ij)] for ij in corners.ij.tolist()]]
    res = np.zeros(corners.uv.shape)
    for vid in np.unique(corners.view_id).tolist():
        rows = corners.view_id == vid
        res[rows] = project_points(K, poses[vid], pts[rows]) - corners.uv[rows]
    return res


def rotation_angle(Ra, Rb) -> float:
    # atan2(|vee(R)|, (tr R - 1) / 2): exact near zero, unlike arccos of the trace
    R = Ra @ Rb.T
    vee = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]]) / 2.0
    return float(np.arctan2(np.linalg.norm(vee), (np.trace(R) - 1.0) / 2.0))


TRUE_K = CameraIntrinsics(fx=800.0, fy=810.0, cx=320.0, cy=240.0, image_size=(640, 480))


class TestHomography:
    def test_identity_mapping(self):
        pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        H = estimate_homography(pts, pts)
        np.testing.assert_allclose(H / H[2, 2], np.eye(3), atol=1e-9)

    def test_recovers_known_homography(self):
        rng = np.random.default_rng(12)
        H_true = np.eye(3) + rng.normal(0, 0.2, (3, 3))
        H_true[2, 2] = 1.0
        src = rng.uniform(-1, 1, (20, 2))
        h = np.column_stack([src, np.ones(20)]) @ H_true.T
        dst = h[:, :2] / h[:, 2:]
        H = estimate_homography(src, dst)
        err = np.linalg.norm(H / H[2, 2] - H_true) / np.linalg.norm(H_true)
        assert err < 1e-8

    @pytest.mark.parametrize("n", [4, 5])
    def test_recovers_homography_from_few_points(self, n):
        # 4 points give an 8 x 9 system: its null vector is only in a full SVD's Vt
        rng = np.random.default_rng(13)
        H_true = np.eye(3) + rng.normal(0, 0.2, (3, 3))
        H_true[2, 2] = 1.0
        src = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1], [0.2, -0.3]])[:n] + rng.uniform(-0.1, 0.1, (n, 2))
        h = np.column_stack([src, np.ones(n)]) @ H_true.T
        H = estimate_homography(src, h[:, :2] / h[:, 2:])
        assert np.linalg.norm(H / H[2, 2] - H_true) / np.linalg.norm(H_true) < 1e-8

    def test_collinear_points_degenerate(self):
        src = np.array([[0, 0], [1, 1], [2, 2], [3, 3]], dtype=float)
        dst = np.array([[0, 0], [1, 0], [2, 0], [3, 0]], dtype=float)
        with pytest.raises(DegenerateConfigurationError):
            estimate_homography(src, dst)

    def test_too_few_points(self):
        pts = np.array([[0, 0], [1, 0], [0, 1]], dtype=float)
        with pytest.raises(DegenerateConfigurationError):
            estimate_homography(pts, pts)


def homographies_for(K: CameraIntrinsics, poses) -> list[np.ndarray]:
    """Exact plane-to-pixel homographies K [r1 r2 t] for known poses."""
    out = []
    for pose in poses:
        out.append(K.matrix() @ np.column_stack([pose.rotation[:, 0], pose.rotation[:, 1], pose.translation]))
    return out


class TestIntrinsicsFromHomographies:
    def test_recovers_known_intrinsics_five_views(self):
        rng = np.random.default_rng(31)
        poses = [sample_pose(rng) for _ in range(5)]
        K = intrinsics_from_homographies(homographies_for(TRUE_K, poses), (640, 480))
        for got, want in [(K.fx, 800.0), (K.fy, 810.0), (K.cx, 320.0), (K.cy, 240.0)]:
            assert abs(got - want) / want < 1e-6
        assert K.dist == (0.0, 0.0, 0.0, 0.0, 0.0)

    def test_two_views_enough(self):
        rng = np.random.default_rng(32)
        poses = [sample_pose(rng) for _ in range(2)]
        K = intrinsics_from_homographies(homographies_for(TRUE_K, poses), (640, 480))
        assert abs(K.fx - 800.0) / 800.0 < 1e-6
        assert abs(K.fy - 810.0) / 810.0 < 1e-6

    def test_parallel_orientations_ill_conditioned(self):
        # same board orientation at three offsets: constraints are dependent
        R = rotation_from_axis_angle(np.array([0.2, -0.1, 0.05]))
        poses = [
            RigidTransform(R, np.array([x, 0.02, z]))
            for x, z in [(-0.05, 0.6), (0.0, 0.8), (0.06, 1.0)]
        ]
        with pytest.raises(IllConditionedError):
            intrinsics_from_homographies(homographies_for(TRUE_K, poses), (640, 480))

    def test_single_view_rejected(self):
        rng = np.random.default_rng(33)
        with pytest.raises(IllConditionedError):
            intrinsics_from_homographies(homographies_for(TRUE_K, [sample_pose(rng)]), (640, 480))


class TestPoseFromHomography:
    def test_recovers_known_pose(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            pose = sample_pose(rng)
            H = homographies_for(TRUE_K, [pose])[0]
            (R,), (t,) = pose_from_homography(TRUE_K, H[None])
            assert rotation_angle(R, pose.rotation) < 1e-8
            assert np.linalg.norm(t - pose.translation) < 1e-8

    def test_frontal_plane_at_one_meter(self):
        pose = RigidTransform(np.eye(3), np.array([-0.1, -0.2, 1.0]))
        (R,), (t,) = pose_from_homography(TRUE_K, homographies_for(TRUE_K, [pose])[0][None])
        np.testing.assert_allclose(t, [-0.1, -0.2, 1.0], atol=1e-9)
        assert rotation_angle(R, np.eye(3)) < 1e-9

    def test_homography_equal_to_k_is_frontal_board_at_unit_depth(self):
        # K^-1 H = I decomposes to the identity rotation with the board one
        # unit along the axis, the zero-offset case of the frontal example
        (R,), (t,) = pose_from_homography(TRUE_K, TRUE_K.matrix()[None])
        np.testing.assert_allclose(t, [0, 0, 1.0], atol=1e-12)
        assert rotation_angle(R, np.eye(3)) < 1e-12

    def test_board_plane_through_camera_center_invalid(self):
        H = TRUE_K.matrix() @ np.column_stack([[1, 0, 0], [0, 1, 0], [0.3, 0.2, 0.0]])
        with pytest.raises(InvalidPoseError):
            pose_from_homography(TRUE_K, H[None])


DIST_K = CameraIntrinsics(
    fx=800.0, fy=810.0, cx=320.0, cy=240.0,
    dist=(-0.15, 0.03, 2e-4, -1e-4, 0.001), image_size=(640, 480),
)


def calibration_problem(seed, n_views=12, sigma=0.0, K=DIST_K):
    rng = np.random.default_rng(seed)
    poses = {f"v{k:02d}": sample_pose(rng) for k in range(n_views)}
    obs = synth_observations(K, poses, sigma=sigma, rng=rng)
    return poses, obs


class TestRefineCalibration:
    def test_noiseless_recovery_from_perturbed_init(self):
        poses, obs = calibration_problem(seed=50)
        init_K = CameraIntrinsics(
            fx=DIST_K.fx * 1.01, fy=DIST_K.fy * 0.99, cx=DIST_K.cx, cy=DIST_K.cy,
            dist=(0.0,) * 5, image_size=DIST_K.image_size,
        )
        init = calibration_result(init_K, poses)
        result = refine_calibration(obs, TEST_GRID, init)
        assert result.rms_reprojection < 1e-8
        assert abs(result.intrinsics.fx - DIST_K.fx) / DIST_K.fx < 1e-6
        assert abs(result.intrinsics.fy - DIST_K.fy) / DIST_K.fy < 1e-6
        np.testing.assert_allclose(result.intrinsics.dist, DIST_K.dist, atol=1e-6)

    def test_noisy_views_land_in_expected_band(self):
        poses, obs = calibration_problem(seed=51, n_views=15, sigma=0.2)
        result = calibrate_camera(obs, TEST_GRID, (640, 480))
        assert 0.15 <= result.rms_reprojection <= 0.25
        assert abs(result.intrinsics.fx - DIST_K.fx) / DIST_K.fx < 0.01
        assert abs(result.intrinsics.fy - DIST_K.fy) / DIST_K.fy < 0.01

    def test_optimal_init_is_a_fixed_point(self):
        from planegaze.optimize import fd_jacobian, levenberg_marquardt

        poses, obs = calibration_problem(seed=52)
        init = calibration_result(DIST_K, poses, 0.0)
        result = refine_calibration(obs, TEST_GRID, init)
        assert result.rms_reprojection < 1e-10
        assert result.intrinsics.fx == pytest.approx(DIST_K.fx, rel=1e-10)
        # engine-level: already-optimal start stops within two sweeps
        def f(x):
            return x - 1.0

        def plus(x, dx):
            return x + dx

        lm = levenberg_marquardt(lambda x: (f(x), lambda: all_shared(fd_jacobian(f, x, plus, 3))), np.ones(3),
                                 plus=plus, n_increments=3)
        assert lm.iterations <= 2
        assert lm.cost == 0.0

    def test_never_worse_than_init(self):
        for seed in range(3):
            poses, obs = calibration_problem(seed=60 + seed, sigma=0.4)
            init_K = CameraIntrinsics(
                fx=DIST_K.fx * 1.02, fy=DIST_K.fy * 0.98, cx=DIST_K.cx + 3, cy=DIST_K.cy - 2,
                dist=(0.0,) * 5, image_size=DIST_K.image_size,
            )
            init_rms = np.sqrt(np.mean(residuals(init_K, poses, obs) ** 2))
            result = refine_calibration(obs, TEST_GRID, calibration_result(init_K, poses, init_rms))
            assert result.rms_reprojection <= init_rms

    def test_missing_init_pose_rejected(self):
        poses, obs = calibration_problem(seed=53, n_views=3)
        incomplete = dict(list(poses.items())[:2])
        init = calibration_result(DIST_K, incomplete, 0.0)
        with pytest.raises(ValueError):
            refine_calibration(obs, TEST_GRID, init)

    def test_deterministic(self):
        poses, obs = calibration_problem(seed=54, sigma=0.2)
        a = calibrate_camera(obs, TEST_GRID, (640, 480))
        b = calibrate_camera(obs, TEST_GRID, (640, 480))
        assert a.intrinsics == b.intrinsics
        assert a.rms_reprojection == b.rms_reprojection


RIGHT_K = CameraIntrinsics(
    fx=790.0, fy=795.0, cx=325.0, cy=238.0,
    dist=(-0.12, 0.02, -1e-4, 2e-4, 0.0), image_size=(640, 480),
)


def stereo_problem(seed, rel: RigidTransform, sigma=0.0, n_views=15):
    rng = np.random.default_rng(seed)
    left_poses = {f"v{k:02d}": sample_pose(rng) for k in range(n_views)}
    right_poses = {vid: rel.compose(pose) for vid, pose in left_poses.items()}
    obs = synth_observations(DIST_K, left_poses, "left", sigma, rng)
    return CornerTable.concat([obs, synth_observations(RIGHT_K, right_poses, "right", sigma, rng)])


class TestCalibrateStereo:
    def test_zero_baseline_gives_identity(self):
        obs = stereo_problem(70, RigidTransform.identity())
        left = calibrate_camera(obs.take(obs.camera == "left"), TEST_GRID, (640, 480))
        right = calibrate_camera(obs.take(obs.camera == "right"), TEST_GRID, (640, 480))
        rig = calibrate_stereo(left, right, obs, TEST_GRID)
        assert np.abs(rig.right_from_left.rotation - np.eye(3)).max() < 1e-9
        assert np.linalg.norm(rig.right_from_left.translation) < 1e-9

    def test_recovers_axis_baseline(self):
        rel = RigidTransform(np.eye(3), np.array([0.06, 0.0, 0.0]))
        obs = stereo_problem(71, rel)
        left = calibrate_camera(obs.take(obs.camera == "left"), TEST_GRID, (640, 480))
        right = calibrate_camera(obs.take(obs.camera == "right"), TEST_GRID, (640, 480))
        rig = calibrate_stereo(left, right, obs, TEST_GRID)
        assert np.linalg.norm(rig.right_from_left.translation - [0.06, 0, 0]) < 1e-6
        assert rotation_angle(rig.right_from_left.rotation, np.eye(3)) < 1e-7

    def test_noisy_baseline_within_one_percent(self):
        rel = RigidTransform(rotation_from_axis_angle([0, -0.03, 0]), np.array([-0.0599, 0.001, 0.002]))
        true_baseline = np.linalg.norm(rel.translation)
        obs = stereo_problem(72, rel, sigma=0.2)
        left = calibrate_camera(obs.take(obs.camera == "left"), TEST_GRID, (640, 480))
        right = calibrate_camera(obs.take(obs.camera == "right"), TEST_GRID, (640, 480))
        rig = calibrate_stereo(left, right, obs, TEST_GRID)
        assert abs(rig.baseline - true_baseline) / true_baseline < 0.01

    def test_no_shared_views(self):
        obs = stereo_problem(73, RigidTransform.identity(), n_views=4)
        left = calibrate_camera(obs.take(obs.camera == "left"), TEST_GRID, (640, 480))
        right = calibrate_camera(obs.take(obs.camera == "right"), TEST_GRID, (640, 480))
        renamed = replace(right, view_id=np.char.add("other_", right.view_id))
        with pytest.raises(NoSharedViewsError):
            calibrate_stereo(left, renamed, obs, TEST_GRID)

    def test_no_right_corner_of_a_shared_view(self):
        """The results share every view, but the corner table holds only the left camera's
        corners: there is nothing to refine the relative pose against."""
        obs = stereo_problem(73, RigidTransform.identity(), n_views=4)
        left = calibrate_camera(obs.take(obs.camera == "left"), TEST_GRID, (640, 480))
        right = calibrate_camera(obs.take(obs.camera == "right"), TEST_GRID, (640, 480))
        with pytest.raises(NoSharedViewsError, match="no right-camera corner"):
            calibrate_stereo(left, right, obs.take(obs.camera == "left"), TEST_GRID)

    def test_frame_consistency(self):
        # composing left pose with the rig reprojects right corners about as
        # well as the right camera's own fit
        rel = RigidTransform(rotation_from_axis_angle([0.01, -0.04, 0.005]), np.array([-0.06, 0.002, -0.001]))
        obs = stereo_problem(74, rel, sigma=0.2)
        left = calibrate_camera(obs.take(obs.camera == "left"), TEST_GRID, (640, 480))
        right = calibrate_camera(obs.take(obs.camera == "right"), TEST_GRID, (640, 480))
        rig = calibrate_stereo(left, right, obs, TEST_GRID)
        through_rig = {vid: rig.right_from_left.compose(pose) for vid, pose in view_poses(left).items()}
        rms_through_rig = np.sqrt(np.mean(residuals(rig.right, through_rig, obs.take(obs.camera == "right")) ** 2))
        assert rms_through_rig <= 2.0 * max(right.rms_reprojection, 0.15)


class TestLatticeCheck:
    """Every calibration entry rejects a corner outside the grid lattice and names its index."""

    @pytest.mark.parametrize("bad", [(TEST_GRID.rows + 1, 0), (0, -1)])
    @pytest.mark.parametrize(
        "entry", ["calibrate_camera", "refine_calibration", "calibrate_stereo", "estimate_plane_pose"]
    )
    def test_out_of_lattice_corner_named(self, entry, bad):
        from planegaze.plane import estimate_plane_pose

        poses, obs = calibration_problem(seed=41, n_views=4)
        ij = obs.ij.copy()
        ij[5] = bad
        obs = replace(obs, ij=ij)
        fitted = calibration_result(DIST_K, poses, 0.0)
        calls = {
            "calibrate_camera": lambda: calibrate_camera(obs, TEST_GRID, (640, 480)),
            "refine_calibration": lambda: refine_calibration(obs, TEST_GRID, fitted),
            "calibrate_stereo": lambda: calibrate_stereo(fitted, fitted, obs, TEST_GRID),
            "estimate_plane_pose": lambda: estimate_plane_pose(
                obs.take(obs.view_id == obs.view_id[5]), TEST_GRID, DIST_K
            ),
        }
        with pytest.raises(ValueError, match=re.escape(f"corner index {bad} outside grid lattice")):
            calls[entry]()


class TestFullChainZeroNoise:
    def test_rms_below_1e8_across_seeds(self):
        ok = 0
        seeds = range(80, 88)
        for seed in seeds:
            poses, obs = calibration_problem(seed=seed, n_views=10)
            result = calibrate_camera(obs, TEST_GRID, (640, 480))
            if result.rms_reprojection < 1e-8:
                ok += 1
        assert ok >= round(0.95 * len(list(seeds)))

    def test_view_with_few_corners_dropped(self, caplog):
        poses, obs = calibration_problem(seed=90, n_views=6)
        keep_first = CornerTable.concat([obs.take(obs.view_id != "v00"),
                                         obs.take(np.flatnonzero(obs.view_id == "v00")[:3])])
        result = calibrate_camera(keep_first, TEST_GRID, (640, 480))
        assert "v00" not in result.view_id
        assert result.rms_reprojection < 1e-8
