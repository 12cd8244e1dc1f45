"""From a network's yaw/pitch output to a point on the work surface.

Networks emit either absolute camera-frame angles or angles relative to
the ray from the face to the camera center ("camera offset": zero output
means the person is looking straight into the camera). For offset outputs
the head-to-camera yaw/pitch is added before the angles become a
direction, as additive angle correction. This mirrors the evaluated
pipeline exactly; the approximation degrades at large offsets, so offsets
beyond 30 degrees are logged.

Every stage function takes a batch: a HeadPoint batch, (N, 3) directions
and targets, a PredictionTable. A row never depends on its neighbours; a
row that has no answer is marked (a status, NaN values), never raised.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .geometry import directions_to_yaw_pitch, norm, unit, vecmat, yaw_pitch_to_dir
from .plane import PlanePose
from .triangulation import HeadPoint

logger = logging.getLogger(__name__)

CONVENTION_OFFSET = "camera_offset"
CONVENTION_ABSOLUTE = "absolute"
CONVENTIONS = (CONVENTION_OFFSET, CONVENTION_ABSOLUTE)

STATUS_OK = "ok"
STATUS_NO_INTERSECTION = "no_intersection"
STATUS_AWAY = "away_from_plane"
STATUS_NO_DIRECTION = "no_direction"

LARGE_OFFSET_RAD = math.radians(30.0)


@dataclass(frozen=True)
class PredictionTable:
    """Predictions as columns, one row per frame. Angles are radians.

    A table holds one convention, as a prediction file does. ``line`` is
    each row's line in the file it was read from, None for a table built
    in memory.
    """

    frame_id: np.ndarray
    method: np.ndarray
    yaw: np.ndarray
    pitch: np.ndarray
    convention: str
    line: np.ndarray | None

    def take(self, rows) -> PredictionTable:
        """The rows at ``rows`` (indices or a mask), in that order."""
        line = None if self.line is None else self.line[rows]
        return PredictionTable(self.frame_id[rows], self.method[rows], self.yaw[rows], self.pitch[rows],
                               self.convention, line)


@dataclass(frozen=True)
class SurfaceGazeEstimate:
    """Where a gaze ray meets the work surface, or why it does not.

    ``point`` (N, 3) and ``alpha`` (N,) are NaN on the rows whose
    ``status`` (N,) is not ok; ``direction_cc`` is (N, 3).
    """

    point: np.ndarray
    alpha: np.ndarray
    direction_cc: np.ndarray
    status: np.ndarray


def _in_front(position: np.ndarray) -> np.ndarray:
    """Which head positions (N, 3) are finite and at z > 0, in front of the camera."""
    return np.isfinite(position).all(axis=1) & (position[:, 2] > 0)


def camera_offset_angles(position: np.ndarray):
    """Yaw/pitch of the direction from each head position (N, 3) to the camera center; NaN for a head not
    in front of it."""
    front = _in_front(position)
    yp = directions_to_yaw_pitch(unit(-np.where(front[:, None], position, 1.0)))
    yp[~front] = np.nan
    return yp[..., 0], yp[..., 1]


def correct_gaze_to_camera_frame(table: PredictionTable, head: HeadPoint) -> np.ndarray:
    """Camera-frame gaze directions (N, 3) for an N-row PredictionTable and head batch.

    Offset-convention angles get the head-to-camera yaw/pitch added;
    absolute angles convert directly. A head not in front of the camera
    (z <= 0, or not finite) gets a NaN row.
    """
    yaw, pitch = table.yaw, table.pitch
    if table.convention == CONVENTION_OFFSET:
        yaw_h, pitch_h = camera_offset_angles(head.position)
        large = (np.abs(yaw_h) > LARGE_OFFSET_RAD) | (np.abs(pitch_h) > LARGE_OFFSET_RAD)
        if large.any():
            logger.warning("%d of %d frames have head offset angles over 30 deg; additive correction "
                           "degrades", np.count_nonzero(large), large.size)
        yaw, pitch = yaw + yaw_h, pitch + pitch_h
    d = yaw_pitch_to_dir(yaw, pitch)
    d[~_in_front(head.position)] = np.nan
    return d


def gaze_point_on_surface(head: HeadPoint, direction_cc, plane: PlanePose) -> SurfaceGazeEstimate:
    """Intersect camera-frame gaze rays (N, 3) with the work surface.

    Failures are encoded in the status, never raised, so batch evaluation
    can keep going: ``no_direction`` for a zero or non-finite direction
    (its ``direction_cc`` row is NaN too), ``no_intersection`` for rays
    parallel to the surface, ``away_from_plane`` when the ray leaves the
    surface behind (or the head is on the wrong side of it). Status ``ok``
    means the workspace-frame direction points down onto the surface from
    above.
    """
    direction_cc = np.asarray(direction_cc, dtype=float)
    length = norm(direction_cc)
    aimed = np.isfinite(length) & (length >= 1e-12)
    d_cc = unit(np.where(aimed[:, None], direction_cc, 1.0))
    T = plane.transform
    origin = T.apply_points(head.position)
    d = vecmat(d_cc, T.rotation.T)
    oz, dz = origin[:, 2], d[:, 2]
    parallel = np.abs(dz) < 1e-12
    hit = aimed & ~parallel & (dz < 0) & (oz > 0)
    status = np.where(parallel, STATUS_NO_INTERSECTION, np.where(hit, STATUS_OK, STATUS_AWAY))
    status[~aimed] = STATUS_NO_DIRECTION
    d_cc[~aimed] = np.nan
    alpha = np.divide(-oz, dz, out=np.full(dz.shape, np.nan), where=hit)
    return SurfaceGazeEstimate(origin + alpha[:, None] * d, alpha, d_cc, status)


def ground_truth_direction(head: HeadPoint, plane: PlanePose, target) -> np.ndarray:
    """Unit camera-frame directions (N, 3) from the heads to on-surface targets (N, 3).

    A row whose head coincides with its target, or whose head or target is
    NaN, comes back NaN.
    """
    delta = plane.transform.inverse().apply_points(target) - head.position
    length = norm(delta)[:, None]
    length[length < 1e-9] = np.nan
    return delta / length
