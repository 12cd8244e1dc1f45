"""Pose of the work-surface plane relative to the left camera.

The estimated transform maps camera-frame points into the workspace frame,
where the surface is Z = 0. Estimation: undistort the detected grid
corners, fit a homography against the metric grid, decompose it into the
camera-from-plane pose, refine on pixel reprojection, then invert.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import CornerTable, board_points, estimate_homography, pose_from_homography, refine_pose
from .camera import CameraIntrinsics, undistort_pixels
from .errors import DegenerateConfigurationError, NotInvertibleError
from .geometry import RigidTransform
from .grid import GridConfig


@dataclass(frozen=True)
class PlanePose:
    """Camera-to-workspace transform plus the reprojection RMS of its fit."""

    transform: RigidTransform
    rms_reprojection: float = 0.0


def estimate_plane_pose(corners: CornerTable, config: GridConfig, K: CameraIntrinsics) -> PlanePose:
    """Estimate the camera-to-workspace transform from detected grid corners.

    Needs at least 4 corners in general position, each of which can be
    undistorted (else NotInvertibleError). The result is invariant under
    permutation of the corners.
    """
    ij, pixels = corners.ij, corners.uv
    if len(ij) < 4:
        raise DegenerateConfigurationError(f"plane pose needs >= 4 corners, got {len(ij)}")
    order = np.lexsort((pixels[:, 1], pixels[:, 0], ij[:, 1], ij[:, 0]))
    obj, pixels = board_points(corners.take(order), config)
    normalized = undistort_pixels(K, pixels)
    k = np.isnan(normalized).any(axis=1).argmax()  # the first corner that does not undistort, if any
    if np.isnan(normalized[k]).any():
        raise NotInvertibleError(f"plane corner (i, j) = {tuple(ij[order[k]].tolist())} at pixel "
                                 f"{tuple(pixels[k].tolist())} has no preimage inside the lens fold")
    R, t = pose_from_homography(np.eye(3), estimate_homography(obj[:, :2], normalized)[None])
    refined, res = refine_pose(K.packed(), obj, pixels, RigidTransform(R[0], t[0]), "plane pose")
    return PlanePose(refined.inverse(), float(np.sqrt(np.mean(res ** 2))))
