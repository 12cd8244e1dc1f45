"""Head-point reconstruction from paired face observations.

The 3D head point lives in the left-camera frame. Triangulation takes the
midpoint of the shortest segment between the two back-projected rays
(Hartley & Zisserman, *Multiple View Geometry*, 12.5); the segment length
is kept as ``ray_gap``, a direct diagnostic of how consistent the two
observations are.

Both stage functions take a batch of frames. A bad frame never raises: its
row is marked with the name of the error class that says what went wrong,
and its values are NaN.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .calibration import StereoRig
from .camera import CameraIntrinsics, undistort_pixels
from .geometry import dot, norm, unit

logger = logging.getLogger(__name__)

SOURCE_BBOX = "bbox_center"
SOURCE_EYES = "eye_midpoint"

RAY_GAP_WARN_M = 0.03


@dataclass(frozen=True)
class FaceTable:
    """Face observations as columns, one row per (frame, camera).

    ``bbox`` is (N, 4) and ``eye`` (N, 2), NaN where the observation lacks
    that source.
    """

    frame_id: np.ndarray
    camera: np.ndarray
    bbox: np.ndarray
    eye: np.ndarray

    def take(self, rows) -> FaceTable:
        """The rows at ``rows`` (indices or a mask), in that order."""
        return FaceTable(self.frame_id[rows], self.camera[rows], self.bbox[rows], self.eye[rows])

    def pixels(self, source: str) -> np.ndarray:
        """(N, 2) head pixels from one source, NaN where a row lacks it."""
        if source == SOURCE_EYES:
            return self.eye
        if source == SOURCE_BBOX:
            return (self.bbox[:, :2] + self.bbox[:, 2:]) / 2.0
        raise ValueError(f"unknown head-point source {source!r}")


@dataclass(frozen=True)
class HeadPoint:
    """Triangulated head position in the left-camera frame.

    ``position`` is (N, 3); ``ray_gap``, ``source`` and ``failure`` are
    (N,). ``failure`` is "" on a good row, else the name of the error class
    the row is marked with (its position and gap are NaN).
    """

    position: np.ndarray
    ray_gap: np.ndarray
    source: np.ndarray
    failure: np.ndarray

    def __post_init__(self):
        p = np.array(self.position, dtype=float)
        p.setflags(write=False)
        object.__setattr__(self, "position", p)

    def take(self, rows) -> HeadPoint:
        """The rows at ``rows`` (indices or a mask), in that order."""
        return HeadPoint(self.position[rows], self.ray_gap[rows], self.source[rows], self.failure[rows])

    def scatter(self, rows, size: int, failure) -> HeadPoint:
        """A batch of ``size`` rows with this batch's rows at ``rows`` (indices or a mask).
        Every other row is NaN, has no source and fails with ``failure`` (one name, or one per row)."""
        position, gap = np.full((size, 3), np.nan), np.full(size, np.nan)
        source, failures = np.full(size, "", dtype=object), np.full(size, failure, dtype=object)
        position[rows], gap[rows], source[rows], failures[rows] = self.position, self.ray_gap, self.source, self.failure
        return HeadPoint(position, gap, source, failures)


def _pixel_directions(K: CameraIntrinsics, pixels) -> np.ndarray:
    xy = undistort_pixels(K, pixels)
    return unit(np.concatenate([xy, np.ones((len(xy), 1))], axis=-1))


def triangulate_midpoint(rig: StereoRig, pixel_left, pixel_right) -> HeadPoint:
    """Closest-point midpoint between the two back-projected rays.

    Pixels are (N, 2); the result is expressed in the left-camera frame.
    A row with a pixel that cannot be undistorted is marked
    NotInvertibleError, one whose rays are (near-)parallel
    ParallelRaysError, one whose midpoint lies behind either camera
    BehindCameraError.
    """
    d1 = _pixel_directions(rig.left, pixel_left)
    T = rig.right_from_left
    o2 = -(T.rotation.T @ T.translation)  # right camera center in the left frame
    d2 = (T.rotation.T @ _pixel_directions(rig.right, pixel_right)[:, :, None])[:, :, 0]
    # the left ray starts at the origin, so w0 = o1 - o2 = -o2
    b, d, e = dot(d1, d2), dot(d1, -o2), dot(d2, -o2)
    denom = 1.0 - b * b
    parallel = denom < 1e-12
    denom[parallel] = np.nan
    p1 = ((b * e - d) / denom)[:, None] * d1
    p2 = o2 + ((e - b * d) / denom)[:, None] * d2
    mid, gap = (p1 + p2) / 2.0, norm(p1 - p2)

    z_right = dot(mid, T.rotation[2]) + T.translation[2]
    behind = ~parallel & ((mid[:, 2] <= 0) | (z_right <= 0))
    mid[behind], gap[behind] = np.nan, np.nan
    wide = np.count_nonzero(gap > RAY_GAP_WARN_M)
    if wide:
        logger.warning("%d of %d triangulations have a ray gap over %.2f m", wide, gap.size, RAY_GAP_WARN_M)
    # a pixel undistort_pixels could not invert has a NaN ray, so a NaN cosine b
    failure = np.where(np.isnan(b), "NotInvertibleError",
                       np.where(parallel, "ParallelRaysError", np.where(behind, "BehindCameraError", "")))
    return HeadPoint(mid, gap, np.full(gap.shape, "pixel"), failure)


def head_point(
    left_obs: FaceTable,
    right_obs: FaceTable,
    rig: StereoRig,
    source_preference: str = SOURCE_EYES,
) -> HeadPoint:
    """Triangulate the head from paired face observations.

    Takes two FaceTables whose rows pair up frame by frame. Uses the
    preferred source when both cameras provide it, otherwise falls back to
    the other one. The source actually used is recorded on the result; a
    frame with no source in both cameras is marked MissingObservationError.
    """
    if not np.array_equal(left_obs.frame_id, right_obs.frame_id):
        raise ValueError("left and right observations must pair up frame by frame")
    fallback = SOURCE_BBOX if source_preference == SOURCE_EYES else SOURCE_EYES
    preferred, other = (
        np.hstack([left_obs.pixels(s), right_obs.pixels(s)]) for s in (source_preference, fallback)
    )
    use_preferred = ~np.isnan(preferred).any(axis=1)
    px = np.where(use_preferred[:, None], preferred, other)
    found = ~np.isnan(px).any(axis=1)
    sources = np.where(found, np.where(use_preferred, source_preference, fallback), "")
    tri = triangulate_midpoint(rig, px[found, :2], px[found, 2:])
    return replace(tri, source=sources[found]).scatter(found, found.size, "MissingObservationError")
