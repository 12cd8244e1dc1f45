"""From a network's yaw/pitch output to a point on the work surface.

Networks emit either absolute camera-frame angles or angles relative to
the ray from the face to the camera center ("camera offset": zero output
means the person is looking straight into the camera). For offset outputs
the head-to-camera yaw/pitch is added before the angles become a
direction, as additive angle correction. This mirrors the evaluated
pipeline exactly; the approximation degrades at large offsets, so offsets
beyond 30 degrees are logged.

Every stage function takes one frame or a batch: a HeadPoint batch, (N, 3)
directions and targets, a PredictionTable. One frame runs as a batch of
one and comes back as the single-frame types.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import raise_row_failure
from .geometry import directions_to_yaw_pitch, norm, normalized, unit, vecmat, yaw_pitch_to_dir
from .plane import PlanePose
from .triangulation import HeadPoint

logger = logging.getLogger(__name__)

CONVENTION_OFFSET = "camera_offset"
CONVENTION_ABSOLUTE = "absolute"
CONVENTIONS = (CONVENTION_OFFSET, CONVENTION_ABSOLUTE)

STATUS_OK = "ok"
STATUS_NO_INTERSECTION = "no_intersection"
STATUS_AWAY = "away_from_plane"

LARGE_OFFSET_RAD = math.radians(30.0)


@dataclass(frozen=True)
class GazePrediction:
    """One network output for one frame. Angles are radians."""

    frame_id: str
    method_id: str
    yaw: float
    pitch: float
    convention: str = CONVENTION_OFFSET

    def __post_init__(self):
        if not (math.isfinite(self.yaw) and math.isfinite(self.pitch)):
            raise ValueError(f"non-finite gaze angles in frame {self.frame_id!r}")
        if self.convention not in CONVENTIONS:
            raise ValueError(f"unknown prediction convention {self.convention!r}")


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

    @classmethod
    def from_predictions(cls, predictions) -> PredictionTable:
        preds = list(predictions)
        conventions = {p.convention for p in preds}
        if len(conventions) > 1:
            raise ValueError(f"predictions mix conventions: {sorted(conventions)}")
        return cls(
            np.array([p.frame_id for p in preds], dtype=str),
            np.array([p.method_id for p in preds], dtype=str),
            np.array([p.yaw for p in preds], dtype=float),
            np.array([p.pitch for p in preds], dtype=float),
            conventions.pop() if conventions else CONVENTION_OFFSET,
            None,
        )

    def take(self, rows) -> PredictionTable:
        """The rows at ``rows`` (indices or a mask), in that order."""
        line = None if self.line is None else self.line[rows]
        return PredictionTable(self.frame_id[rows], self.method[rows], self.yaw[rows], self.pitch[rows],
                               self.convention, line)


@dataclass(frozen=True)
class SurfaceGazeEstimate:
    """Where a gaze ray meets the work surface, or why it does not.

    One frame: ``point`` (3,) and float ``alpha``, both None unless the
    status is ok. A batch holds (N, 3) and (N,) arrays, NaN on the rows
    whose status is not ok.
    """

    point: np.ndarray | None
    alpha: float | np.ndarray | None
    direction_cc: np.ndarray
    status: str | np.ndarray


def camera_offset_angles(head: HeadPoint):
    """Yaw/pitch of the direction from the head to the camera center."""
    yp = directions_to_yaw_pitch(normalized(-head.position))
    return yp[..., 0], yp[..., 1]


def correct_gaze_to_camera_frame(pred, head: HeadPoint) -> np.ndarray:
    """Camera-frame gaze direction(s) for one prediction or a PredictionTable.

    Offset-convention angles get the head-to-camera yaw/pitch added;
    absolute angles convert directly. A table gives (N, 3) directions for
    an N-row head batch.
    """
    single = isinstance(pred, GazePrediction)
    table = PredictionTable.from_predictions([pred]) if single else pred
    pos = np.reshape(head.position, (-1, 3))
    if np.any(pos[:, 2] <= 0):
        raise ValueError("head point must lie in front of the camera")
    yaw, pitch = table.yaw, table.pitch
    if table.convention == CONVENTION_OFFSET:
        yaw_h, pitch_h = np.reshape(camera_offset_angles(head), (2, -1))
        large = (np.abs(yaw_h) > LARGE_OFFSET_RAD) | (np.abs(pitch_h) > LARGE_OFFSET_RAD)
        if large.any():
            logger.warning("%d of %d frames have head offset angles over 30 deg; additive correction "
                           "degrades", np.count_nonzero(large), large.size)
        yaw, pitch = yaw + yaw_h, pitch + pitch_h
    d = yaw_pitch_to_dir(yaw, pitch)
    return d[0] if single else d


def gaze_point_on_surface(head: HeadPoint, direction_cc, plane: PlanePose) -> SurfaceGazeEstimate:
    """Intersect camera-frame gaze ray(s) with the work surface.

    Failures are encoded in the status, never raised, so batch evaluation
    can keep going: ``no_intersection`` for rays parallel to the surface,
    ``away_from_plane`` when the ray leaves the surface behind (or the head
    is on the wrong side of it). Status ``ok`` means the workspace-frame
    direction points down onto the surface from above.
    """
    single = np.ndim(direction_cc) == 1
    d_cc = np.reshape(normalized(direction_cc), (-1, 3))
    T = plane.transform
    origin = T.apply_points(np.reshape(head.position, (-1, 3)))
    # renormalized around the rotation exactly as planegaze 0.1.0's per-ray
    # path did, so surface points keep their bits
    d = unit(unit(vecmat(unit(d_cc), T.rotation.T)))
    oz, dz = origin[:, 2], d[:, 2]
    parallel = np.abs(dz) < 1e-12
    hit = ~parallel & (dz < 0) & (oz > 0)
    status = np.where(parallel, STATUS_NO_INTERSECTION, np.where(hit, STATUS_OK, STATUS_AWAY))
    alpha = np.divide(-oz, dz, out=np.full(dz.shape, np.nan), where=hit)
    point = origin + alpha[:, None] * d
    if not single:
        return SurfaceGazeEstimate(point, alpha, d_cc, status)
    if hit[0]:
        return SurfaceGazeEstimate(point[0], float(alpha[0]), d_cc[0], STATUS_OK)
    return SurfaceGazeEstimate(None, None, d_cc[0], str(status[0]))


def ground_truth_direction(head: HeadPoint, plane: PlanePose, target) -> np.ndarray:
    """Unit camera-frame direction(s) from the head to on-surface target(s).

    A head batch takes (N, 3) targets and gives (N, 3) directions; a row
    whose head coincides with its target (DegenerateGeometryError for one
    frame) or whose head or target is NaN comes back NaN.
    """
    single = np.ndim(head.position) == 1
    T = plane.transform.inverse()
    target_cc = T.apply_points(np.reshape(target, (-1, 3)))
    delta = target_cc - np.reshape(head.position, (-1, 3))
    length = norm(delta)[:, None]
    on_target = length < 1e-9
    length[on_target] = np.nan
    d = delta / length
    if not single:
        return d
    raise_row_failure("DegenerateGeometryError" if on_target[0, 0] else "")
    return d[0]
