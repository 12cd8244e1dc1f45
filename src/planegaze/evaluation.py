"""Batch evaluation of prediction files against a dataset manifest.

Each head source the methods use is triangulated once, from the stereo
face observations of the frames those methods predict. Then, for each
method and frame: turn the predicted angles into a camera-frame direction,
intersect with the work surface, build the ground-truth direction from the
same head point and the target center, and record both error measures.
Frames that cannot be evaluated (missing prediction, missing face,
triangulation failure) are counted and reported as skipped, never silently
dropped. Rays that miss the surface count as frames with infinite
distance.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .calibration import CAMERA_LEFT, CAMERA_RIGHT, StereoRig
from .errors import FormatError
from .formats import (
    CDF_COLUMNS,
    HIST_COLUMNS,
    DatasetManifest,
    input_keys,
    precision_thresholds,
    provenance,
    read_faces,
    read_grid_config,
    read_plane_pose,
    read_predictions,
    read_stereo,
)
from .grid import GridConfig, target_centers
from .metrics import (
    DEFAULT_THRESHOLDS_CM,
    FrameErrors,
    error_cdf,
    evaluate_frame,
    summarize,
    tag_masks,
    yaw_pitch_histogram,
)
from .pipeline import (
    PredictionTable,
    correct_gaze_to_camera_frame,
    gaze_point_on_surface,
    ground_truth_direction,
)
from .plane import PlanePose
from .triangulation import FaceTable, HeadPoint, head_point

logger = logging.getLogger(__name__)


@dataclass
class MethodReport:
    method: str
    errors: FrameErrors  # one row per evaluated frame, in frame-id order
    skipped: list[tuple[str, str]]  # (frame_id, reason) in manifest frame order
    pred_directions: np.ndarray  # (n evaluated frames, 3), rows as in errors
    gt_directions: np.ndarray
    rows: np.ndarray  # the manifest frame row of each errors row


@dataclass
class ReportBundle:
    """Everything cmd_evaluate writes: summary rows, and the curves and histograms as column tables."""

    summary_rows: list[dict]
    cdf: dict[str, np.ndarray]  # the columns of cdf.csv
    histogram: dict[str, np.ndarray]  # the columns of histogram.csv
    thresholds_cm: tuple[float, ...]
    provenance: dict
    methods: dict[str, MethodReport] = field(default_factory=dict)


def read_method_predictions(manifest: DatasetManifest, method: str) -> PredictionTable:
    """A method's predictions with one row per manifest frame, in manifest order; a frame the
    file has no row for has NaN angles and line 0. A row for another method or frame is a FormatError."""
    ref = manifest.predictions[method]
    preds = read_predictions(ref.path)
    rows, known = manifest.frames.rows_of(preds.frame_id)
    wrong = np.flatnonzero(~known | (preds.method != method))
    if wrong.size:
        k = wrong[0]
        message = (f"prediction frame {str(preds.frame_id[k])!r} not in manifest" if not known[k]
                   else f"prediction row for method {str(preds.method[k])!r} in file of {method!r}")
        raise FormatError(message, file=str(ref.path), line=int(preds.line[k]))
    n = len(manifest.frames)
    yaw, pitch, line = np.full(n, np.nan), np.full(n, np.nan), np.zeros(n, dtype=int)
    yaw[rows], pitch[rows], line[rows] = preds.yaw, preds.pitch, preds.line
    return PredictionTable(manifest.frames.frame_id, np.full(n, method), yaw, pitch, preds.convention, line)


def frame_heads(manifest: DatasetManifest, faces: FaceTable, rig: StereoRig,
                predictions: dict[str, PredictionTable]) -> dict[str, HeadPoint]:
    """One head row per manifest frame for each head source the methods use.

    ``predictions`` are :func:`read_method_predictions` tables. Each source
    is triangulated once, over the frames that both cameras see and that
    one of its methods has a prediction for. Every other frame fails with
    its skip reason: "missing_face_observation", or else
    "missing_prediction" (no method of that source predicts it).
    """
    n = len(manifest.frames)
    rows, known = manifest.frames.rows_of(faces.frame_id)
    face_row = np.full((2, n), -1)  # each frame's left and right face row
    for side, camera in enumerate((CAMERA_LEFT, CAMERA_RIGHT)):
        mine = np.flatnonzero(known & (faces.camera == camera))
        face_row[side, rows[mine]] = mine
    seen = (face_row >= 0).all(axis=0)
    unseen = np.where(seen, "missing_prediction", "missing_face_observation")
    heads = {}
    for source in sorted({manifest.predictions[m].head_source for m in predictions}):
        predicted = np.logical_or.reduce(
            [~np.isnan(p.yaw) for m, p in predictions.items() if manifest.predictions[m].head_source == source])
        rows = np.flatnonzero(predicted & seen)
        head = head_point(faces.take(face_row[0, rows]), faces.take(face_row[1, rows]), rig, source)
        heads[source] = head.scatter(rows, n, unseen)
    return heads


def evaluate_method(
    manifest: DatasetManifest,
    method: str,
    predictions: PredictionTable,
    heads: dict[str, HeadPoint],
    plane: PlanePose,
    grid: GridConfig,
) -> MethodReport:
    """Score one method's predictions over every manifest frame, as one batch.

    ``predictions`` is :func:`read_method_predictions` of the method and
    ``heads`` is :func:`frame_heads` of the manifest's methods. A frame
    without a prediction or without a face in both cameras is skipped with
    that reason; a frame whose head, target or ground truth cannot be built
    is skipped with the name of the error class its row is marked with.
    The frames are scored in frame-id order, the order of the errors.
    """
    frames = manifest.frames
    frame_head = heads[manifest.predictions[method].head_source]
    reasons = np.where(np.isnan(predictions.yaw), "missing_prediction", frame_head.failure).astype(object)
    rows = frames.id_order[reasons[frames.id_order] == ""]

    head = frame_head.take(rows)
    targets = target_centers(grid, frames.target_id[rows])
    gt_dirs = ground_truth_direction(head, plane, targets)
    # a row keeps the first failure it meets: an unknown target before a degenerate direction
    failure = np.where(np.isnan(targets[:, 0]), "UnknownTargetError",
                       np.where(np.isnan(gt_dirs[:, 0]), "DegenerateGeometryError", ""))
    reasons[rows] = failure

    keep = failure == ""
    rows, head = rows[keep], head.take(keep)
    pred_dirs = correct_gaze_to_camera_frame(predictions.take(rows), head)
    estimate = gaze_point_on_surface(head, pred_dirs, plane)
    errors = evaluate_frame(pred_dirs, gt_dirs[keep], estimate, targets[keep], frame_id=frames.frame_id[rows])
    bad = np.flatnonzero(reasons != "")
    skipped = list(zip(frames.frame_id[bad].tolist(), reasons[bad].tolist()))
    if skipped:
        logger.warning("method %s: skipped %d of %d frames", method, len(skipped), len(frames))
    return MethodReport(method, errors, skipped, pred_dirs, gt_dirs[keep], rows)


def evaluate_manifest(
    manifest: DatasetManifest,
    *,
    methods=None,
    tag_filters=None,
    thresholds_cm=DEFAULT_THRESHOLDS_CM,
) -> ReportBundle:
    """Run the full evaluation and assemble the report bundle.

    ``tag_filters`` defaults to the overall split plus one per distinct tag
    in the manifest. Output ordering is deterministic: methods and tags
    sorted unless given, thresholds ascending. A repeated method, tag filter
    or threshold counts once, at its first place; thresholds that share a
    summary column name are a ValueError. A method the manifest has no
    predictions for, or a tag filter no manifest frame carries, is a
    FormatError.
    """
    thresholds_cm = precision_thresholds(thresholds_cm)
    grid = read_grid_config(manifest.grid_config)
    rig = read_stereo(manifest.stereo)
    plane = read_plane_pose(manifest.plane_pose)

    selected = sorted(manifest.predictions) if methods is None else list(dict.fromkeys(methods))
    for m in selected:
        if m not in manifest.predictions:
            raise FormatError(f"method {m!r} not in manifest predictions")
    tags = sorted({t for tags in manifest.frames.tags for t in tags})
    tag_filters = [None] + tags if tag_filters is None else list(dict.fromkeys(tag_filters))
    for t in tag_filters:
        if t is not None and t not in tags:
            raise FormatError(f"tag {t!r} not in manifest frames")

    faces = read_faces(manifest.faces)
    predictions = {m: read_method_predictions(manifest, m) for m in selected}
    heads = frame_heads(manifest, faces, rig, predictions)
    reports = {m: evaluate_method(manifest, m, predictions[m], heads, plane, grid) for m in selected}
    del faces, predictions, heads  # the report tables below need none of them: a lower peak

    frames = manifest.frames
    masks = tag_masks(frames.tags, [t for t in tag_filters if t is not None])
    masks[None] = np.ones(len(frames), dtype=bool)
    summary_rows = []
    cdf_parts, hist_parts = [], []
    for m in selected:
        rep = reports[m]
        for tag in tag_filters:
            kept = masks[tag][rep.rows]
            if not kept.any():
                continue
            s = summarize(rep.errors, thresholds_cm, mask=kept)
            summary_rows.append(
                {
                    "method": m,
                    "tag_filter": tag or "",
                    "n_frames": s.n_frames,
                    "n_skipped": int(np.count_nonzero(masks[tag])) - s.n_frames,  # the frames not evaluated
                    "n_failures": s.n_failures,
                    "mean_angular_deg": s.mean_angular_deg,
                    "median_distance_cm": s.median_distance_cm,
                    "precision_at": s.precision_at,
                }
            )
            for kind in ("angular", "distance"):
                cdf_parts.append((m, tag or "", kind, *error_cdf(rep.errors, kind, mask=kept)))
        if rep.errors.frame_id.size:
            hist_parts.append(_hist_columns(m, yaw_pitch_histogram(rep.pred_directions)))
            hist_parts.append(_hist_columns(f"{m}:ground_truth", yaw_pitch_histogram(rep.gt_directions)))

    paths = [manifest.path, *manifest.referenced_files()]
    prov = provenance(
        inputs=dict(zip(input_keys(paths, base=manifest.path.parent), paths)),
        config={
            "methods": selected,
            "tag_filters": [t or "" for t in tag_filters],
            "thresholds_cm": list(thresholds_cm),
        },
    )
    return ReportBundle(
        summary_rows=summary_rows,
        cdf=_concat(CDF_COLUMNS, cdf_parts),
        histogram=_concat(HIST_COLUMNS, hist_parts),
        thresholds_cm=thresholds_cm,
        provenance=prov,
        methods=reports,
    )


def _hist_columns(label: str, hist) -> tuple:
    """The histogram.csv columns of one histogram: a row per non-empty bin, yaw-major like the counts."""
    a, b = np.nonzero(hist.counts)
    ye, pe = hist.yaw_edges, hist.pitch_edges
    return label, ye[a], ye[a + 1], pe[b], pe[b + 1], hist.counts[a, b]


def _concat(columns: dict[str, str], parts) -> dict[str, np.ndarray]:
    """One column table from parts that each hold every column, in schema order. A part holds
    each text column as one label, which becomes a run of that label as long as the part."""
    sizes = [len(part[-1]) for part in parts]
    return {name: np.repeat(np.array([part[k] for part in parts], dtype=object), sizes) if kind == "text"
            else np.concatenate([part[k] for part in parts] or [[]])
            for k, (name, kind) in enumerate(columns.items())}
