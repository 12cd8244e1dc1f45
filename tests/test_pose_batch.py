"""The batched pose kernels keep the bits of their one-item calls.

``pose_from_homography`` on V stacked homographies equals V one-view calls,
``nearest_rotation`` on a stack equals per-matrix calls, and
``calibrate_stereo`` does not depend on the order in which either
calibration lists its views.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from planegaze.calibration import CornerTable, calibrate_stereo, pose_from_homography
from planegaze.camera import CameraIntrinsics, project_points
from planegaze.geometry import RigidTransform, nearest_rotation, rotation_from_axis_angle
from planegaze.grid import GridConfig, corner_position

from conftest import calibration_result

GRID = GridConfig(square_size=0.03, rows=5, cols=7)
K = CameraIntrinsics(fx=910.0, fy=905.0, cx=640.0, cy=360.0,
                     dist=(-0.1, 0.02, 1e-4, -2e-4, 0.0), image_size=(1280, 720))


def random_poses(rng, n, max_angle=0.8):
    """``n`` board poses, each a rotation of up to ``max_angle`` rad about a random axis, 0.6-1.4 m ahead."""
    axis = rng.normal(size=(n, 3))
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    R = rotation_from_axis_angle(axis * rng.uniform(0, max_angle, (n, 1)))
    t = np.column_stack([rng.uniform(-0.2, 0.2, (n, 2)), rng.uniform(0.6, 1.4, n)])
    return R, t


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_views=st.integers(1, 8))
def test_stacked_poses_equal_one_view_calls(seed, n_views):
    rng = np.random.default_rng(seed)
    R, t = random_poses(rng, n_views)
    # noisy homographies K [r1 r2 t] at an arbitrary scale and sign
    H = K.matrix() @ np.stack([R[:, :, 0], R[:, :, 1], t], axis=2)
    H = (H + rng.normal(0, 1e-3, H.shape) * np.abs(H)) * rng.choice([-2.0, 0.5, 3.0], (n_views, 1, 1))
    R_all, t_all = pose_from_homography(K, H)
    assert R_all.shape == (n_views, 3, 3) and t_all.shape == (n_views, 3)
    for k in range(n_views):
        R_one, t_one = pose_from_homography(K, H[k:k + 1])
        assert R_all[k].tobytes() == R_one[0].tobytes()
        assert t_all[k].tobytes() == t_one[0].tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12))
def test_stacked_nearest_rotations_equal_per_matrix_calls(seed, n):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, 3, 3))
    M[::2] = -rotation_from_axis_angle(rng.normal(size=(len(M[::2]), 3))) + rng.normal(0, 0.1, (len(M[::2]), 3, 3))
    R = nearest_rotation(M)
    for k in range(n):
        assert R[k].tobytes() == nearest_rotation(M[k]).tobytes()
    assert np.allclose(np.linalg.det(R), 1.0)
    assert np.allclose(R @ R.transpose(0, 2, 1), np.eye(3))


def test_reflections_are_projected_to_rotations():
    """Every other matrix is a reflection (det < 0); the stack has both kinds."""
    rng = np.random.default_rng(3)
    M = rotation_from_axis_angle(rng.normal(size=(6, 3)))
    M[::2] *= -1.0
    assert (np.linalg.det(M) < 0).sum() == 3
    R = nearest_rotation(M)
    assert np.allclose(np.linalg.det(R), 1.0)
    for k in range(6):
        assert R[k].tobytes() == nearest_rotation(M[k]).tobytes()


def permuted(result, order):
    """``result`` with its views listed in ``order``."""
    return replace(result, view_id=result.view_id[order], rotation=result.rotation[order],
                   translation=result.translation[order], view_rms=result.view_rms[order])


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_shared=st.integers(1, 5))
def test_stereo_does_not_depend_on_view_order(seed, n_shared):
    rng = np.random.default_rng(seed)
    rel = RigidTransform(rotation_from_axis_angle(rng.normal(0, 0.05, 3)), [-0.06, 0.002, 0.001])
    R, t = random_poses(rng, n_shared + 2)
    R_noisy = rotation_from_axis_angle(rng.normal(0, 1e-3, (len(R), 3))) @ R
    left_ids = [f"v{k}" for k in range(n_shared)] + ["left_only"]
    right_ids = [f"v{k}" for k in range(n_shared)] + ["right_only"]
    shared = range(n_shared)
    left_poses = {v: RigidTransform(R[k], t[k]) for k, v in zip([*shared, n_shared], left_ids)}
    right_poses = {v: rel.compose(RigidTransform(R_noisy[k], t[k])) for k, v in zip([*shared, n_shared + 1], right_ids)}
    left, right = calibration_result(K, left_poses, 0.0), calibration_result(K, right_poses, 0.0)

    ij = np.array(GRID.corner_indices())
    obj = corner_position(GRID, *ij.T)
    corners = CornerTable.concat(
        CornerTable(np.full(len(ij), v), np.full(len(ij), "right"), ij,
                    project_points(K, pose, obj) + rng.normal(0, 0.2, (len(ij), 2)))
        for v, pose in right_poses.items()
    )

    want = calibrate_stereo(left, right, corners, GRID).right_from_left
    got = calibrate_stereo(permuted(left, rng.permutation(len(left_ids))),
                           permuted(right, rng.permutation(len(right_ids))), corners, GRID).right_from_left
    assert got.rotation.tobytes() == want.rotation.tobytes()
    assert got.translation.tobytes() == want.translation.tobytes()
