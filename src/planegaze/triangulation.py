"""Head-point reconstruction from paired face observations.

The 3D head point lives in the left-camera frame. Triangulation takes the
midpoint of the shortest segment between the two back-projected rays
(Hartley & Zisserman, *Multiple View Geometry*, 12.5); the segment length
is kept as ``ray_gap``, a direct diagnostic of how consistent the two
observations are.

Both stage functions take one frame or a batch of frames. A batch never
raises for a bad frame: the row is marked with the name of the error a
single-frame call would raise, and its values are NaN.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .calibration import StereoRig
from .camera import CameraIntrinsics, undistort_pixels
from .errors import raise_row_failure
from .geometry import FRAME_CAMERA, GazeRay, dot, norm, unit

logger = logging.getLogger(__name__)

SOURCE_BBOX = "bbox_center"
SOURCE_EYES = "eye_midpoint"

RAY_GAP_WARN_M = 0.03


@dataclass(frozen=True)
class FaceObservation:
    """Detection output for one camera in one frame.

    At least one of ``bbox`` (u_min, v_min, u_max, v_max) and
    ``eye_midpoint`` (u, v) must be present.
    """

    frame_id: str
    camera_id: str
    bbox: tuple[float, float, float, float] | None = None
    eye_midpoint: tuple[float, float] | None = None

    def __post_init__(self):
        if self.bbox is None and self.eye_midpoint is None:
            raise ValueError("face observation needs a bbox or an eye midpoint")
        if self.bbox is not None:
            u0, v0, u1, v1 = self.bbox
            if not (u0 <= u1 and v0 <= v1):
                raise ValueError(f"bbox is not well-ordered: {self.bbox}")

    def point(self, source: str) -> tuple[float, float] | None:
        if source == SOURCE_EYES:
            return self.eye_midpoint
        if source == SOURCE_BBOX:
            if self.bbox is None:
                return None
            u0, v0, u1, v1 = self.bbox
            return ((u0 + u1) / 2.0, (v0 + v1) / 2.0)
        raise ValueError(f"unknown head-point source {source!r}")


@dataclass(frozen=True)
class HeadPoint:
    """Triangulated head position in the left-camera frame.

    One frame: ``position`` (3,), float ``ray_gap``, str ``source``. A batch
    holds (N, 3) and (N,) arrays, plus ``failure``: "" on a good row, else
    the name of the error that frame raises on its own (its position and
    gap are NaN).
    """

    position: np.ndarray
    ray_gap: float | np.ndarray
    source: str | np.ndarray
    failure: str | np.ndarray = ""

    def __post_init__(self):
        p = np.array(self.position, dtype=float)
        p.setflags(write=False)
        object.__setattr__(self, "position", p)


def _single(hp: HeadPoint) -> HeadPoint:
    """The one row of a batch as a single-frame result, or its failure raised."""
    raise_row_failure(hp.failure[0])
    return HeadPoint(hp.position[0], float(hp.ray_gap[0]), str(hp.source[0]))


def _pixel_directions(K: CameraIntrinsics, pixels) -> np.ndarray:
    xy = undistort_pixels(K, np.reshape(np.asarray(pixels, dtype=float), (-1, 2)))
    # normalized twice: the rounding of planegaze 0.1.0's per-pixel rays,
    # which keeps every head point, and so every report, bit-identical
    return unit(unit(np.concatenate([xy, np.ones((len(xy), 1))], axis=-1)))


def pixel_ray(K: CameraIntrinsics, pixel) -> GazeRay:
    """Back-project a pixel to a camera-frame ray from the camera center."""
    return GazeRay(np.zeros(3), _pixel_directions(K, pixel)[0], FRAME_CAMERA)


def triangulate_midpoint(rig: StereoRig, pixel_left, pixel_right) -> HeadPoint:
    """Closest-point midpoint between the two back-projected rays.

    Pixels are (2,) for one frame or (N, 2) for a batch; the result is
    expressed in the left-camera frame. (Near-)parallel rays fail with
    ParallelRaysError, a midpoint behind either camera with
    BehindCameraError: raised for one frame, marked per row in a batch.
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
    failure = np.where(parallel, "ParallelRaysError", np.where(behind, "BehindCameraError", ""))
    hp = HeadPoint(mid, gap, np.full(gap.shape, "pixel"), failure)
    return _single(hp) if np.ndim(pixel_left) == 1 else hp


def _shared_source(left, right, preference: str) -> str:
    """The first of ``preference``, bbox, eyes that both observations give, or ""."""
    if left is None or right is None:
        return ""
    if left.frame_id != right.frame_id:
        raise ValueError(f"frame mismatch: {left.frame_id!r} vs {right.frame_id!r}")
    return next((s for s in (preference, SOURCE_BBOX, SOURCE_EYES)
                 if left.point(s) is not None and right.point(s) is not None), "")


def head_point(
    left_obs,
    right_obs,
    rig: StereoRig,
    source_preference: str = SOURCE_EYES,
) -> HeadPoint:
    """Triangulate the head from paired face observations.

    Takes one left/right pair, or two equally long lists of them for a
    batch. Uses the preferred source when both cameras provide it,
    otherwise falls back to bounding-box centers. The source actually used
    is recorded on the result; a frame that lacks an observation, or has
    no source in both cameras, fails with MissingObservationError.
    """
    single = not isinstance(left_obs, (list, tuple))
    pairs = list(zip([left_obs], [right_obs]) if single else zip(left_obs, right_obs, strict=True))
    sources = np.array([_shared_source(a, b, source_preference) for a, b in pairs], dtype=str)
    found = sources != ""
    px = np.reshape([(*a.point(s), *b.point(s)) for (a, b), s in zip(pairs, sources) if s], (-1, 4))
    tri = triangulate_midpoint(rig, px[:, :2], px[:, 2:])

    position, gap = np.full((found.size, 3), np.nan), np.full(found.size, np.nan)
    failure = np.full(found.size, "MissingObservationError")
    position[found], gap[found], failure[found] = tri.position, tri.ray_gap, tri.failure
    hp = HeadPoint(position, gap, sources, failure)
    return _single(hp) if single else hp
