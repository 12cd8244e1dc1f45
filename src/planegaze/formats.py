"""File schemas: JSON for configs and calibrations, CSV for bulk tables.

Every file starts with a schema tag. CSV files may carry leading ``#``
comment lines holding key: value metadata (the prediction files use them
for the mandatory angle unit and convention). All writes go through a
temp-file-then-rename so interrupted runs never leave partial output, and
every emitted file embeds the tool version plus content hashes of its
inputs. Floats are written with shortest round-trip repr, so parse(emit(x))
reproduces x exactly.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import CornerObservation, StereoRig
from .camera import CameraIntrinsics
from .errors import FormatError
from .geometry import FRAME_CAMERA, FRAME_PLANE, RigidTransform
from .grid import GridConfig
from .pipeline import CONVENTIONS, GazePrediction
from .plane import PlanePose
from .triangulation import SOURCE_BBOX, SOURCE_EYES, FaceObservation

TOOL_TAG = f"planegaze {__version__}"

ANGLE_UNITS = ("radians", "degrees")


def _fmt(x: float) -> str:
    return repr(float(x))


def atomic_write_text(path: Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def provenance(inputs: dict[str, str | Path] | None = None, config: dict | None = None) -> dict:
    """Provenance block: tool version, input hashes, config echo. No timestamps."""
    block: dict = {"tool": TOOL_TAG}
    if inputs:
        block["inputs"] = {
            str(name): sha256_file(Path(p)) for name, p in sorted(inputs.items())
        }
    if config:
        block["config"] = config
    return block


def write_json(path: Path, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_json(path: Path, schema: str) -> dict:
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise FormatError("file not found", file=str(path)) from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc.msg}", file=str(path), line=exc.lineno) from None
    if payload.get("schema") != schema:
        raise FormatError(
            f"expected schema {schema!r}, found {payload.get('schema')!r}", file=str(path)
        )
    return payload


# --- CSV plumbing ---------------------------------------------------------

def _write_csv(path: Path, header: list[str], rows, meta: dict[str, str] | None = None) -> None:
    buf = io.StringIO()
    for k, v in (meta or {}).items():
        buf.write(f"# {k}: {v}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow(row)
    atomic_write_text(path, buf.getvalue())


def _read_csv(path: Path, expected_header: list[str]):
    """Yield (line_number, row) pairs; returns the comment metadata dict."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise FormatError("file not found", file=str(path)) from None
    meta: dict[str, str] = {}
    rows = []
    header_seen = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if ":" in body:
                k, v = body.split(":", 1)
                meta[k.strip()] = v.strip()
            continue
        cells = next(csv.reader([line]))
        if not header_seen:
            if cells != expected_header:
                raise FormatError(
                    f"bad header {cells!r}, expected {expected_header!r}",
                    file=str(path), line=lineno,
                )
            header_seen = True
            continue
        if len(cells) != len(expected_header):
            raise FormatError(
                f"expected {len(expected_header)} fields, got {len(cells)}",
                file=str(path), line=lineno,
            )
        rows.append((lineno, cells))
    if not header_seen:
        raise FormatError("missing header row", file=str(path))
    return meta, rows


def _parse_float(cell: str, path: Path, lineno: int, name: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise FormatError(f"field {name!r} is not a number: {cell!r}", file=str(path), line=lineno) from None
    if not math.isfinite(value):
        raise FormatError(f"field {name!r} is not finite: {cell!r}", file=str(path), line=lineno)
    return value


def _parse_int(cell: str, path: Path, lineno: int, name: str) -> int:
    try:
        return int(cell)
    except ValueError:
        raise FormatError(f"field {name!r} is not an integer: {cell!r}", file=str(path), line=lineno) from None


# --- grid config ------------------------------------------------------------

GRID_SCHEMA = "planegaze-grid-v1"


def write_grid_config(path: Path, grid: GridConfig) -> None:
    write_json(
        Path(path),
        {
            "schema": GRID_SCHEMA,
            "square_size_m": grid.square_size,
            "rows": grid.rows,
            "cols": grid.cols,
            "targets": {str(tid): list(cell) for tid, cell in sorted(grid.target_map.items())},
            "origin_note": grid.origin_note,
            "provenance": provenance(),
        },
    )


def read_grid_config(path: Path) -> GridConfig:
    payload = _load_json(path, GRID_SCHEMA)
    try:
        return GridConfig(
            square_size=float(payload["square_size_m"]),
            rows=int(payload["rows"]),
            cols=int(payload["cols"]),
            target_map={int(k): tuple(v) for k, v in payload.get("targets", {}).items()},
            origin_note=str(payload.get("origin_note", "")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad grid config: {exc}", file=str(path)) from None


# --- intrinsics / stereo / plane pose ----------------------------------------

INTRINSICS_SCHEMA = "planegaze-intrinsics-v1"
STEREO_SCHEMA = "planegaze-stereo-v1"
PLANE_SCHEMA = "planegaze-plane-pose-v1"


def _intrinsics_payload(K: CameraIntrinsics) -> dict:
    return {
        "fx": K.fx, "fy": K.fy, "cx": K.cx, "cy": K.cy, "skew": K.skew,
        "dist": list(K.dist), "image_size": list(K.image_size),
    }


def _intrinsics_from_payload(p: dict, path: Path) -> CameraIntrinsics:
    try:
        return CameraIntrinsics(
            fx=float(p["fx"]), fy=float(p["fy"]), cx=float(p["cx"]), cy=float(p["cy"]),
            skew=float(p.get("skew", 0.0)), dist=tuple(p["dist"]),
            image_size=tuple(int(v) for v in p["image_size"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad intrinsics block: {exc}", file=str(path)) from None


def write_intrinsics(path: Path, K: CameraIntrinsics, *, camera: str, rms_px: float | None = None,
                     per_view_rms: dict[str, float] | None = None, prov: dict | None = None) -> None:
    payload = {"schema": INTRINSICS_SCHEMA, "camera": camera, **_intrinsics_payload(K)}
    if rms_px is not None:
        payload["rms_px"] = rms_px
    if per_view_rms:
        payload["per_view_rms_px"] = dict(sorted(per_view_rms.items()))
    payload["provenance"] = prov or provenance()
    write_json(Path(path), payload)


def read_intrinsics(path: Path) -> CameraIntrinsics:
    payload = _load_json(path, INTRINSICS_SCHEMA)
    return _intrinsics_from_payload(payload, Path(path))


def _transform_payload(T: RigidTransform) -> dict:
    return {
        "rotation": [[float(v) for v in row] for row in T.rotation],
        "translation_m": [float(v) for v in T.translation],
    }


def _transform_from_payload(p: dict, path: Path, src=None, dst=None) -> RigidTransform:
    try:
        return RigidTransform(np.asarray(p["rotation"], dtype=float),
                              np.asarray(p["translation_m"], dtype=float), src, dst)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad rigid transform block: {exc}", file=str(path)) from None


def write_stereo(path: Path, rig: StereoRig, *, prov: dict | None = None) -> None:
    write_json(
        Path(path),
        {
            "schema": STEREO_SCHEMA,
            "left": _intrinsics_payload(rig.left),
            "right": _intrinsics_payload(rig.right),
            "right_from_left": _transform_payload(rig.right_from_left),
            "provenance": prov or provenance(),
        },
    )


def read_stereo(path: Path) -> StereoRig:
    payload = _load_json(path, STEREO_SCHEMA)
    p = Path(path)
    return StereoRig(
        left=_intrinsics_from_payload(payload.get("left", {}), p),
        right=_intrinsics_from_payload(payload.get("right", {}), p),
        right_from_left=_transform_from_payload(payload.get("right_from_left", {}), p),
    )


def write_plane_pose(path: Path, pose: PlanePose, *, prov: dict | None = None) -> None:
    write_json(
        Path(path),
        {
            "schema": PLANE_SCHEMA,
            **_transform_payload(pose.transform),
            "src_frame": FRAME_CAMERA,
            "dst_frame": FRAME_PLANE,
            "rms_px": pose.rms_reprojection,
            "provenance": prov or provenance(),
        },
    )


def read_plane_pose(path: Path) -> PlanePose:
    payload = _load_json(path, PLANE_SCHEMA)
    T = _transform_from_payload(payload, Path(path), FRAME_CAMERA, FRAME_PLANE)
    return PlanePose(T, float(payload.get("rms_px", 0.0)))


# --- corners ------------------------------------------------------------------

CORNERS_HEADER = ["view_id", "camera", "i", "j", "u", "v"]


def write_corners(path: Path, observations, meta: dict[str, str] | None = None) -> None:
    rows = [
        [ob.view_id, ob.camera_id, ob.grid_index[0], ob.grid_index[1], _fmt(ob.pixel[0]), _fmt(ob.pixel[1])]
        for ob in observations
    ]
    base = {"schema": "planegaze-corners-v1", "tool": TOOL_TAG}
    _write_csv(Path(path), CORNERS_HEADER, rows, {**base, **(meta or {})})


def read_corners(path: Path) -> list[CornerObservation]:
    p = Path(path)
    _, rows = _read_csv(p, CORNERS_HEADER)
    out = []
    for lineno, cells in rows:
        vid, cam, i, j, u, v = cells
        if cam not in ("left", "right"):
            raise FormatError(f"camera must be left or right, got {cam!r}", file=str(p), line=lineno)
        out.append(
            CornerObservation(
                vid, cam,
                (_parse_int(i, p, lineno, "i"), _parse_int(j, p, lineno, "j")),
                (_parse_float(u, p, lineno, "u"), _parse_float(v, p, lineno, "v")),
            )
        )
    return out


def write_plane_corners(path: Path, corners, meta: dict[str, str] | None = None) -> None:
    """Plane corners reuse the corner schema with view_id 'plane', camera 'left'."""
    obs = [CornerObservation("plane", "left", ij, uv) for ij, uv in corners]
    write_corners(path, obs, meta)


def read_plane_corners(path: Path) -> list[tuple[tuple[int, int], tuple[float, float]]]:
    return [(ob.grid_index, ob.pixel) for ob in read_corners(path)]


# --- face observations ----------------------------------------------------------

FACES_HEADER = ["frame_id", "camera", "u_min", "v_min", "u_max", "v_max", "eye_u", "eye_v"]


def write_faces(path: Path, observations, meta: dict[str, str] | None = None) -> None:
    rows = []
    for ob in observations:
        bbox = ["", "", "", ""] if ob.bbox is None else [_fmt(v) for v in ob.bbox]
        eye = ["", ""] if ob.eye_midpoint is None else [_fmt(v) for v in ob.eye_midpoint]
        rows.append([ob.frame_id, ob.camera_id, *bbox, *eye])
    base = {"schema": "planegaze-faces-v1", "tool": TOOL_TAG}
    _write_csv(Path(path), FACES_HEADER, rows, {**base, **(meta or {})})


def read_faces(path: Path) -> list[FaceObservation]:
    p = Path(path)
    _, rows = _read_csv(p, FACES_HEADER)
    out = []
    for lineno, cells in rows:
        fid, cam, u0, v0, u1, v1, eu, ev = cells
        bbox_cells = [u0, v0, u1, v1]
        if any(c != "" for c in bbox_cells) and any(c == "" for c in bbox_cells):
            raise FormatError("bbox must have all four fields or none", file=str(p), line=lineno)
        bbox = None
        if u0 != "":
            bbox = tuple(_parse_float(c, p, lineno, n) for c, n in zip(bbox_cells, FACES_HEADER[2:6]))
        if (eu == "") != (ev == ""):
            raise FormatError("eye midpoint needs both eye_u and eye_v", file=str(p), line=lineno)
        eye = None
        if eu != "":
            eye = (_parse_float(eu, p, lineno, "eye_u"), _parse_float(ev, p, lineno, "eye_v"))
        try:
            out.append(FaceObservation(fid, cam, bbox=bbox, eye_midpoint=eye))
        except ValueError as exc:
            raise FormatError(str(exc), file=str(p), line=lineno) from None
    return out


# --- predictions -----------------------------------------------------------------

PREDICTIONS_HEADER = ["frame_id", "method", "yaw", "pitch"]


def write_predictions(path: Path, predictions, *, unit: str = "radians",
                      meta: dict[str, str] | None = None) -> None:
    """Emit predictions with the mandatory unit and convention headers.

    Internal angles are radians; ``unit`` selects the on-disk unit.
    All predictions in one file must share a convention.
    """
    predictions = list(predictions)
    if unit not in ANGLE_UNITS:
        raise ValueError(f"unit must be one of {ANGLE_UNITS}, got {unit!r}")
    conventions = {p.convention for p in predictions}
    if len(conventions) > 1:
        raise ValueError(f"predictions mix conventions: {sorted(conventions)}")
    convention = conventions.pop() if conventions else "camera_offset"
    scale = 1.0 if unit == "radians" else 180.0 / np.pi
    rows = [
        [p.frame_id, p.method_id, _fmt(p.yaw * scale), _fmt(p.pitch * scale)]
        for p in predictions
    ]
    base = {
        "schema": "planegaze-predictions-v1",
        "tool": TOOL_TAG,
        "unit": unit,
        "convention": convention,
    }
    _write_csv(Path(path), PREDICTIONS_HEADER, rows, {**base, **(meta or {})})


def read_predictions(path: Path) -> list[GazePrediction]:
    """Parse a prediction file; angles come back in radians.

    The unit header is mandatory: files without it are rejected rather
    than guessed at.
    """
    p = Path(path)
    meta, rows = _read_csv(p, PREDICTIONS_HEADER)
    unit = meta.get("unit")
    if unit not in ANGLE_UNITS:
        raise FormatError(
            f"prediction file must declare '# unit: radians|degrees', found {unit!r}", file=str(p)
        )
    convention = meta.get("convention")
    if convention not in CONVENTIONS:
        raise FormatError(
            f"prediction file must declare '# convention: {'|'.join(CONVENTIONS)}', found {convention!r}",
            file=str(p),
        )
    scale = 1.0 if unit == "radians" else np.pi / 180.0
    out = []
    seen = set()
    for lineno, cells in rows:
        fid, method, yaw, pitch = cells
        if (fid, method) in seen:
            raise FormatError(f"second prediction for frame {fid!r} method {method!r}",
                              file=str(p), line=lineno)
        seen.add((fid, method))
        out.append(
            GazePrediction(
                fid, method,
                _parse_float(yaw, p, lineno, "yaw") * scale,
                _parse_float(pitch, p, lineno, "pitch") * scale,
                convention,
            )
        )
    return out


# --- frame truth (synthetic datasets) ----------------------------------------------

TRUTH_HEADER = ["frame_id", "target_id", "tags", "head_x", "head_y", "head_z", "dir_x", "dir_y", "dir_z"]


def write_truth(path: Path, truths, meta: dict[str, str] | None = None) -> None:
    rows = [
        [
            t.frame_id, t.target_id, ";".join(t.tags),
            *(_fmt(v) for v in t.head_cc), *(_fmt(v) for v in t.direction_cc),
        ]
        for t in truths
    ]
    base = {"schema": "planegaze-truth-v1", "tool": TOOL_TAG}
    _write_csv(Path(path), TRUTH_HEADER, rows, {**base, **(meta or {})})


def read_truth(path: Path):
    from .synthetic import FrameTruth

    p = Path(path)
    _, rows = _read_csv(p, TRUTH_HEADER)
    out = []
    for lineno, cells in rows:
        fid, tid, tags, hx, hy, hz, dx, dy, dz = cells
        out.append(
            FrameTruth(
                fid,
                _parse_int(tid, p, lineno, "target_id"),
                tuple(t for t in tags.split(";") if t),
                np.array([_parse_float(c, p, lineno, n) for c, n in ((hx, "head_x"), (hy, "head_y"), (hz, "head_z"))]),
                np.array([_parse_float(c, p, lineno, n) for c, n in ((dx, "dir_x"), (dy, "dir_y"), (dz, "dir_z"))]),
            )
        )
    return out


# --- manifest -------------------------------------------------------------------

MANIFEST_SCHEMA = "planegaze-manifest-v1"


@dataclass(frozen=True)
class PredictionRef:
    path: Path
    head_source: str = SOURCE_BBOX


@dataclass(frozen=True)
class FrameEntry:
    frame_id: str
    target_id: int
    tags: tuple[str, ...] = ()


@dataclass(frozen=True)
class DatasetManifest:
    """Resolved dataset description (all paths absolute)."""

    root: Path
    grid_config: Path
    intrinsics_left: Path
    intrinsics_right: Path
    stereo: Path
    plane_corners: Path
    plane_pose: Path | None
    faces: Path
    predictions: dict[str, PredictionRef]
    frames: tuple[FrameEntry, ...]
    calibration_corners: Path | None = None
    truth: Path | None = None

    def referenced_files(self) -> list[Path]:
        out = [self.grid_config, self.intrinsics_left, self.intrinsics_right,
               self.stereo, self.plane_corners, self.faces]
        if self.plane_pose is not None:
            out.append(self.plane_pose)
        if self.calibration_corners is not None:
            out.append(self.calibration_corners)
        if self.truth is not None:
            out.append(self.truth)
        out.extend(ref.path for ref in self.predictions.values())
        return out


def write_manifest(path: Path, manifest_payload: dict) -> None:
    payload = {"schema": MANIFEST_SCHEMA, **manifest_payload}
    payload.setdefault("provenance", provenance())
    write_json(Path(path), payload)


def read_manifest(path: Path) -> DatasetManifest:
    path = Path(path)
    payload = _load_json(path, MANIFEST_SCHEMA)
    root = path.parent

    def resolve(key, required=True, parent=None):
        node = payload if parent is None else parent
        value = node.get(key)
        if value is None:
            if required:
                raise FormatError(f"manifest missing {key!r}", file=str(path))
            return None
        return (root / value).resolve()

    calib = payload.get("calibration") or {}
    preds = {}
    for name, entry in sorted((payload.get("predictions") or {}).items()):
        if not isinstance(entry, dict) or "path" not in entry:
            raise FormatError(f"prediction entry {name!r} needs a 'path'", file=str(path))
        source = entry.get("head_source", SOURCE_BBOX)
        if source not in (SOURCE_BBOX, SOURCE_EYES):
            raise FormatError(
                f"prediction entry {name!r}: unknown head_source {source!r}", file=str(path)
            )
        preds[name] = PredictionRef(path=(root / entry["path"]).resolve(), head_source=source)

    frames = []
    seen = set()
    for k, entry in enumerate(payload.get("frames") or []):
        try:
            fid, tags = str(entry["frame_id"]), entry.get("tags")
            if tags is not None and not (isinstance(tags, list) and all(isinstance(t, str) for t in tags)):
                raise ValueError(f"tags of frame {fid!r} must be a list of strings, got {tags!r}")
            fe = FrameEntry(frame_id=fid, target_id=int(entry["target_id"]), tags=tuple(tags or ()))
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad frame entry #{k}: {exc}", file=str(path)) from None
        if fe.frame_id in seen:
            raise FormatError(f"duplicate frame_id {fe.frame_id!r}", file=str(path))
        seen.add(fe.frame_id)
        frames.append(fe)

    manifest = DatasetManifest(
        root=root,
        grid_config=resolve("grid_config"),
        intrinsics_left=resolve("left", parent=calib),
        intrinsics_right=resolve("right", parent=calib),
        stereo=resolve("stereo", parent=calib),
        plane_corners=resolve("plane_corners"),
        plane_pose=resolve("plane_pose", required=False),
        faces=resolve("faces"),
        predictions=preds,
        frames=tuple(frames),
        calibration_corners=resolve("calibration_corners", required=False),
        truth=resolve("truth", required=False),
    )
    missing = [str(f) for f in manifest.referenced_files() if not f.is_file()]
    if missing:
        raise FormatError(f"manifest references missing files: {missing}", file=str(path))
    return manifest


# --- synthetic dataset layout -----------------------------------------------------

def write_dataset(ds, out_dir: Path) -> Path:
    """Write a synthetic dataset directory; returns the manifest path.

    The calibration and plane-pose files are seeded with the ground truth,
    at the same locations the calibrate/plane-pose commands later
    overwrite with their estimates.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    truth_prov = {"origin": "synthetic-ground-truth", "seed": str(ds.spec.seed)}

    write_grid_config(out / "grid.json", ds.grid)
    write_corners(out / "corners.csv", ds.calib_corners, truth_prov)
    write_plane_corners(out / "plane_corners.csv", ds.plane_corners, truth_prov)
    write_faces(out / "faces.csv", ds.faces, truth_prov)
    write_truth(out / "truth.csv", ds.truths, truth_prov)

    prov = provenance(config=truth_prov)
    write_intrinsics(out / "calib" / "intrinsics_left.json", ds.rig.left, camera="left", prov=prov)
    write_intrinsics(out / "calib" / "intrinsics_right.json", ds.rig.right, camera="right", prov=prov)
    write_stereo(out / "calib" / "stereo.json", ds.rig, prov=prov)
    write_plane_pose(out / "calib" / "plane.json", ds.plane, prov=prov)

    methods = {m.name: m for m in ds.spec.methods}
    pred_entries = {}
    for name in sorted(ds.predictions):
        fname = f"pred_{name}.csv"
        write_predictions(out / fname, ds.predictions[name], unit="radians", meta=truth_prov)
        pred_entries[name] = {"path": fname, "head_source": methods[name].head_source}

    manifest_path = out / "manifest.json"
    write_manifest(
        manifest_path,
        {
            "grid_config": "grid.json",
            "calibration": {
                "left": "calib/intrinsics_left.json",
                "right": "calib/intrinsics_right.json",
                "stereo": "calib/stereo.json",
            },
            "calibration_corners": "corners.csv",
            "plane_corners": "plane_corners.csv",
            "plane_pose": "calib/plane.json",
            "faces": "faces.csv",
            "truth": "truth.csv",
            "predictions": pred_entries,
            "frames": [
                {"frame_id": t.frame_id, "target_id": t.target_id, "tags": list(t.tags)}
                for t in ds.truths
            ],
            "provenance": provenance(config=truth_prov),
        },
    )
    return manifest_path


# --- report bundle ----------------------------------------------------------------

SUMMARY_BASE_HEADER = ["method", "tag_filter", "n_frames", "n_skipped", "n_failures", "mean_angular_deg", "median_distance_cm"]
CDF_HEADER = ["method", "tag_filter", "kind", "threshold", "fraction"]
HIST_HEADER = ["method", "yaw_lo_deg", "yaw_hi_deg", "pitch_lo_deg", "pitch_hi_deg", "count"]


def summary_header(thresholds_cm) -> list[str]:
    return SUMMARY_BASE_HEADER + [f"p_at_{_threshold_tag(t)}cm" for t in thresholds_cm]


def _threshold_tag(t: float) -> str:
    return f"{t:g}"


def write_summary_csv(path: Path, rows: list[dict], thresholds_cm, prov_meta: dict[str, str]) -> None:
    header = summary_header(thresholds_cm)
    table = []
    for r in rows:
        table.append(
            [
                r["method"], r["tag_filter"], r["n_frames"], r["n_skipped"], r["n_failures"],
                _fmt(r["mean_angular_deg"]), _fmt(r["median_distance_cm"]),
            ]
            + [_fmt(r["precision_at"][float(t)]) for t in thresholds_cm]
        )
    base = {"schema": "planegaze-summary-v1", "tool": TOOL_TAG}
    _write_csv(Path(path), header, table, {**base, **prov_meta})


def read_summary_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise FormatError("file not found", file=str(p)) from None
    header = None
    rows = []
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        cells = next(csv.reader([line]))
        if header is None:
            header = cells
        else:
            rows.append(cells)
    if header is None:
        raise FormatError("missing header row", file=str(p))
    return header, rows


def write_cdf_csv(path: Path, rows, prov_meta: dict[str, str]) -> None:
    base = {"schema": "planegaze-cdf-v1", "tool": TOOL_TAG}
    table = [[m, tag, kind, _fmt(t), _fmt(f)] for m, tag, kind, t, f in rows]
    _write_csv(Path(path), CDF_HEADER, table, {**base, **prov_meta})


def write_hist_csv(path: Path, rows, prov_meta: dict[str, str]) -> None:
    base = {"schema": "planegaze-histogram-v1", "tool": TOOL_TAG}
    table = [
        [m, _fmt(ylo), _fmt(yhi), _fmt(plo), _fmt(phi), int(c)]
        for m, ylo, yhi, plo, phi, c in rows
    ]
    _write_csv(Path(path), HIST_HEADER, table, {**base, **prov_meta})
