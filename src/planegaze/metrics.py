"""Evaluation metrics: angular error, surface distance, precision, CDFs.

Frames whose gaze ray never reaches the surface carry an infinite surface
distance. Infinities stay in every denominator and never count as covered,
so a failure can only lower the reported precision. Medians use the
mid-average convention for even counts; an infinity at the midpoint makes
the median infinite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySelectionError
from .geometry import angular_error_deg, as_vec3, directions_to_yaw_pitch, norm
from .pipeline import STATUS_OK, SurfaceGazeEstimate

DEFAULT_THRESHOLDS_CM = (10.0, 20.0, 50.0)

DEFAULT_YAW_EDGES_DEG = np.arange(-90.0, 90.0 + 2.0, 2.0)
DEFAULT_PITCH_EDGES_DEG = np.arange(-120.0, 30.0 + 2.0, 2.0)


@dataclass(frozen=True, eq=False)
class FrameErrors:
    """Per-frame errors of one method, as columns with one row per frame.

    ``frame_id`` (N,), ``angular_deg`` (N,) and ``distance_m`` (N,), +inf
    where the gaze ray missed the surface. Rows are stored in frame-id
    order whatever order they come in, so every aggregate has the same
    bits for any frame order.
    """

    frame_id: np.ndarray
    angular_deg: np.ndarray
    distance_m: np.ndarray

    def __post_init__(self):
        frame_id = np.asarray(self.frame_id, dtype=str).reshape(-1)
        angles = np.asarray(self.angular_deg, dtype=float).reshape(-1)
        distances = np.asarray(self.distance_m, dtype=float).reshape(-1)
        if not len(frame_id) == len(angles) == len(distances):
            raise ValueError("frame_id, angular_deg and distance_m differ in length")
        # NaN fails both tests; a distance may be +inf but never -inf
        if not (np.all((angles >= 0.0) & (angles <= 180.0)) and np.all(distances >= 0.0)):
            raise ValueError("angular errors must lie in [0, 180] and surface distances be >= 0 or +inf")
        order = np.argsort(frame_id, kind="stable")
        object.__setattr__(self, "frame_id", frame_id[order])
        object.__setattr__(self, "angular_deg", angles[order])
        object.__setattr__(self, "distance_m", distances[order])


@dataclass(frozen=True)
class FrameTable:
    """Annotated frames as columns: ``frame_id`` (N,), ``target_id`` (N,) and one tag tuple per row.

    ``id_order`` holds the rows in frame-id order. It is sorted once, when
    the table is built, so :meth:`rows_of` is one binary search.
    """

    frame_id: np.ndarray
    target_id: np.ndarray
    tags: tuple
    id_order: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "id_order", np.argsort(self.frame_id, kind="stable"))

    def __len__(self) -> int:
        return len(self.frame_id)

    def rows_of(self, frame_ids) -> tuple[np.ndarray, np.ndarray]:
        """The row of each of ``frame_ids``, and whether the table has that frame at all (row 0 if not)."""
        frame_ids = np.asarray(frame_ids, dtype=str)
        if not len(self):
            return np.zeros(frame_ids.shape, dtype=int), np.zeros(frame_ids.shape, dtype=bool)
        at = np.searchsorted(self.frame_id, frame_ids, sorter=self.id_order)
        rows = self.id_order[np.minimum(at, len(self) - 1)]
        found = self.frame_id[rows] == frame_ids
        return np.where(found, rows, 0), found


@dataclass(frozen=True)
class MetricsSummary:
    mean_angular_deg: float
    median_distance_cm: float
    precision_at: dict[float, float]
    n_frames: int
    n_failures: int


@dataclass(frozen=True)
class Histogram2D:
    yaw_edges: np.ndarray
    pitch_edges: np.ndarray
    counts: np.ndarray


def evaluate_frame(pred_directions, gt_directions, estimate: SurfaceGazeEstimate, targets, *,
                   frame_id) -> FrameErrors:
    """Errors per frame: angle between directions, distance on the surface.

    Directions and targets are (N, 3), ``estimate`` has N rows, and
    ``frame_id`` holds one entry per row. The surface distance is infinite
    whenever the intersection status is not ok; the angular error is
    always finite.
    """
    angles = angular_error_deg(pred_directions, gt_directions)
    offset = estimate.point[:, :2] - as_vec3(targets)[:, :2]
    distances = np.where(estimate.status == STATUS_OK, norm(offset), math.inf)
    return FrameErrors(frame_id, angles, distances)


def tag_masks(tags, names) -> dict[str, np.ndarray]:
    """Which rows carry each tag of ``names``, as boolean masks over ``tags`` (one tag tuple per row)."""
    return {name: np.array([name in row for row in tags], dtype=bool) for name in names}


def _select(errors: FrameErrors, mask):
    """The rows ``mask`` (a boolean array over the rows) keeps, or all rows when it is None."""
    keep = slice(None) if mask is None else mask
    if not errors.angular_deg[keep].size:
        raise EmptySelectionError("no records selected")
    return keep


def summarize(errors: FrameErrors, thresholds_cm=DEFAULT_THRESHOLDS_CM, *, mask=None) -> MetricsSummary:
    """Aggregate per-frame errors into the headline numbers.

    Mean over angular errors; median over distances with infinities
    participating as larger than any finite value; Precision@X = share of
    frames with distance <= X cm (boundary inclusive). ``mask``, a boolean
    array over the rows such as a :func:`tag_masks` entry, keeps only its
    rows.
    """
    keep = _select(errors, mask)
    angles = errors.angular_deg[keep]
    dist_cm = errors.distance_m[keep] * 100.0
    n = len(angles)
    precision = {
        float(x): float(100.0 * np.count_nonzero(dist_cm <= x) / n)
        for x in sorted(set(float(t) for t in thresholds_cm))
    }
    return MetricsSummary(
        mean_angular_deg=float(np.mean(angles)),
        median_distance_cm=float(_median(dist_cm)),
        precision_at=precision,
        n_frames=n,
        n_failures=int(np.count_nonzero(np.isinf(dist_cm))),
    )


def _median(values: np.ndarray) -> np.floating:
    """``np.median`` of a non-empty 1-D float array, by its own arithmetic: a partition at the
    middle one or two indices and at the last, the mean of the middle, and NaN when the
    partition ends in NaN. ``np.median`` also checks its NaN mask for a masked array, and
    that check imports ``numpy.ma`` into every process that takes a median."""
    n = values.size
    middle = [n // 2 - 1, n // 2] if n % 2 == 0 else [n // 2]
    part = np.partition(values, [*middle, -1])
    return part[-1] if np.isnan(part[-1]) else np.mean(part[middle[0]:middle[-1] + 1])


def error_cdf(errors: FrameErrors, which: str, *, mask=None) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF as columns: distinct thresholds ascending, and the fraction at each.

    ``which`` is "angular" (degrees) or "distance" (centimeters). Infinite
    distances count in the denominator but never appear as thresholds, so
    the curve plateaus below 1 when failures exist. ``mask`` is as in
    :func:`summarize`.
    """
    keep = _select(errors, mask)
    if which == "angular":
        values = errors.angular_deg[keep]
    elif which == "distance":
        values = errors.distance_m[keep] * 100.0
    else:
        raise ValueError(f"which must be 'angular' or 'distance', got {which!r}")
    thresholds, counts = np.unique(values[np.isfinite(values)], return_counts=True)
    return thresholds, np.cumsum(counts) / len(values)


def cdf_fraction_at(cdf: tuple[np.ndarray, np.ndarray], threshold: float) -> float:
    """Value of a step CDF at ``threshold`` (0 before the first point)."""
    thresholds, fractions = cdf
    k = np.searchsorted(thresholds, threshold, side="right")
    return float(fractions[k - 1]) if k else 0.0


def continued_yaw_pitch_deg(directions) -> np.ndarray:
    """Yaw/pitch in degrees with pitch continued below -90 for steep downward gaze.

    A direction pointing down and past the vertical would canonically flip
    its yaw by 180 degrees; instead the yaw is kept in (-90, 90] and the
    pitch runs on past -90, which keeps tabletop distributions in one
    connected blob.
    """
    d = as_vec3(directions)
    yp = np.degrees(directions_to_yaw_pitch(d))
    yaw, pitch = yp[..., 0].copy(), yp[..., 1].copy()
    flip = (np.abs(yaw) > 90.0) & (pitch < 0.0)
    yaw = np.where(flip, yaw - np.sign(yaw) * 180.0, yaw)
    pitch = np.where(flip, -180.0 - pitch, pitch)
    return np.stack([yaw, pitch], axis=-1)


def yaw_pitch_histogram(
    directions,
    yaw_edges_deg=DEFAULT_YAW_EDGES_DEG,
    pitch_edges_deg=DEFAULT_PITCH_EDGES_DEG,
) -> Histogram2D:
    """2D histogram of gaze directions over yaw/pitch bins in degrees.

    Every input lands in a bin: angles outside the edge range are clipped
    into the boundary bins, so the counts always total the input size. The
    counts are those of ``np.histogram2d`` on the same edges.
    """
    d = np.atleast_2d(as_vec3(directions))
    if d.shape[0] == 0:
        raise EmptySelectionError("no directions to histogram")
    yp = continued_yaw_pitch_deg(d)
    yaw_edges = np.asarray(yaw_edges_deg, dtype=float)
    pitch_edges = np.asarray(pitch_edges_deg, dtype=float)
    yaw, pitch = (np.clip(yp[:, k], e[0], e[-1]) for k, e in enumerate((yaw_edges, pitch_edges)))
    counts = np.histogram2d(yaw, pitch, bins=(yaw_edges, pitch_edges))[0]
    return Histogram2D(yaw_edges, pitch_edges, counts.astype(int))
