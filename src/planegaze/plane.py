"""Pose of the work-surface plane relative to the left camera.

The estimated transform maps camera-frame points into the workspace frame,
where the surface is Z = 0. Estimation: undistort the detected grid
corners, fit a homography against the metric grid, decompose it into the
camera-from-plane pose, refine on pixel reprojection, then invert.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import estimate_homography, pose_from_homography, refine_pose
from .camera import CameraIntrinsics, undistort_pixels
from .errors import DegenerateConfigurationError
from .geometry import FRAME_CAMERA, FRAME_PLANE, RigidTransform
from .grid import GridConfig


@dataclass(frozen=True)
class PlanePose:
    """Camera-to-workspace transform plus the reprojection RMS of its fit."""

    transform: RigidTransform
    rms_reprojection: float = 0.0

    def __post_init__(self):
        T = self.transform
        if T.src_frame != FRAME_CAMERA or T.dst_frame != FRAME_PLANE:
            object.__setattr__(
                self,
                "transform",
                RigidTransform(T.rotation, T.translation, FRAME_CAMERA, FRAME_PLANE),
            )


def estimate_plane_pose(corners, config: GridConfig, K: CameraIntrinsics) -> PlanePose:
    """Estimate the camera-to-workspace transform from detected grid corners.

    ``corners`` is a sequence of ((i, j), (u, v)) pairs. Needs at least 4
    corners in general position. The result is invariant under permutation
    of the corner list.
    """
    items = sorted(corners, key=lambda c: (c[0][0], c[0][1], c[1][0], c[1][1]))
    if len(items) < 4:
        raise DegenerateConfigurationError(f"plane pose needs >= 4 corners, got {len(items)}")
    for (i, j), _ in items:
        if not config.in_bounds(i, j):
            raise ValueError(f"corner index ({i}, {j}) outside grid lattice")

    s = config.square_size
    plane_pts = np.array([(s * i, s * j) for (i, j), _ in items])
    pixels = np.array([uv for _, uv in items], dtype=float)

    normalized = undistort_pixels(K, pixels)
    H = estimate_homography(plane_pts, normalized)
    cam_from_plane = pose_from_homography(np.eye(3), H)

    obj = np.column_stack([plane_pts, np.zeros(len(items))])
    refined, res = refine_pose(K.packed(), obj, pixels, cam_from_plane, "plane pose")
    rms = float(np.sqrt(np.mean(res ** 2)))
    camera_to_plane = RigidTransform(
        refined.rotation.T,
        -(refined.rotation.T @ refined.translation),
        FRAME_CAMERA,
        FRAME_PLANE,
    )
    return PlanePose(camera_to_plane, rms)
