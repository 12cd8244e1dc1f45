"""Synthetic scenes with exactly known geometry.

Everything downstream is validated against these: the true rig, plane and
grid are chosen, heads and targets are sampled, and every observation the
real pipeline would ingest (checkerboard corners, face detections, gaze
predictions) is emitted by exact forward projection. A zero-noise dataset
pushed through the full pipeline must reproduce its targets to numerical
precision; the perturbation operator then adds calibrated amounts of pixel
and angular noise on top.

All randomness flows from explicit seeds. Per-frame generators are derived
from (seed, stream, index) so parallel and serial runs agree byte for byte.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .calibration import CAMERA_LEFT, CAMERA_RIGHT, CornerObservation, StereoRig
from .camera import CameraIntrinsics, project_points
from .errors import BehindCameraError, ResampleExceededError
from .geometry import (
    FRAME_CAMERA,
    FRAME_PLANE,
    RigidTransform,
    directions_to_yaw_pitch,
    rotation_from_axis_angle,
)
from .grid import GridConfig, corner_position, default_target_map, target_center
from .metrics import evaluate_frame, summarize
from .pipeline import CONVENTION_ABSOLUTE, CONVENTION_OFFSET, GazePrediction, gaze_point_on_surface
from .plane import PlanePose
from .triangulation import SOURCE_BBOX, SOURCE_EYES, FaceObservation, HeadPoint

MAX_RESAMPLE = 100

# rng stream ids
_STREAM_CALIB = 0
_STREAM_FRAME = 1
_STREAM_AMPLIFY = 2
_STREAM_PERTURB_CORNERS = 3
_STREAM_PERTURB_FACES = 4
_STREAM_PERTURB_PRED = 5

GLASSES_TAG_MIN_TARGET = 11


@dataclass(frozen=True)
class MethodSpec:
    """A simulated gaze method: its output convention and head-point source."""

    name: str
    convention: str = CONVENTION_OFFSET
    head_source: str = SOURCE_EYES


@dataclass(frozen=True)
class NoiseSpec:
    """Perturbation magnitudes. Zero everywhere means a no-op."""

    corner_px_sigma: float = 0.0
    face_px_sigma: float = 0.0
    gaze_angle_sigma_deg: float = 0.0
    gaze_bias_yaw_deg: float = 0.0
    gaze_bias_pitch_deg: float = 0.0

    def __post_init__(self):
        for name in ("corner_px_sigma", "face_px_sigma", "gaze_angle_sigma_deg"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    @property
    def is_zero(self) -> bool:
        return (
            self.corner_px_sigma == 0.0
            and self.face_px_sigma == 0.0
            and self.gaze_angle_sigma_deg == 0.0
            and self.gaze_bias_yaw_deg == 0.0
            and self.gaze_bias_pitch_deg == 0.0
        )


@dataclass(frozen=True)
class SceneSpec:
    """Ground-truth scene: rig, plane, grid, head sampling boxes, frame count."""

    rig: StereoRig
    plane: PlanePose
    grid: GridConfig
    participants: tuple[tuple[tuple[float, float, float], tuple[float, float, float]], ...]
    frames: int = 200
    seed: int = 0
    calib_views: int = 15
    methods: tuple[MethodSpec, ...] = (
        MethodSpec("oracle-offset", CONVENTION_OFFSET, SOURCE_EYES),
        MethodSpec("oracle-absolute", CONVENTION_ABSOLUTE, SOURCE_BBOX),
    )

    def __post_init__(self):
        if self.frames < 0 or self.calib_views < 0:
            raise ValueError("frames and calib_views must be >= 0")
        if not self.participants:
            raise ValueError("at least one head sampling box is required")
        for lo, hi in self.participants:
            if len(lo) != 3 or len(hi) != 3 or any(l > h for l, h in zip(lo, hi)):
                raise ValueError(f"malformed sampling box {lo} .. {hi}")
            if lo[2] <= 0:
                raise ValueError("head sampling boxes must lie above the plane (z > 0)")
        names = [m.name for m in self.methods]
        if len(names) != len(set(names)):
            raise ValueError("method names must be unique")


@dataclass(frozen=True)
class FrameTruth:
    """Exact per-frame ground truth in the left-camera frame."""

    frame_id: str
    target_id: int
    tags: tuple[str, ...]
    head_cc: np.ndarray
    direction_cc: np.ndarray


@dataclass(frozen=True)
class SyntheticDataset:
    """Everything a dataset directory holds, in memory."""

    spec: SceneSpec
    grid: GridConfig
    rig: StereoRig
    plane: PlanePose
    calib_corners: tuple[CornerObservation, ...]
    plane_corners: tuple[tuple[tuple[int, int], tuple[float, float]], ...]
    faces: tuple[FaceObservation, ...]
    truths: tuple[FrameTruth, ...]
    predictions: dict[str, tuple[GazePrediction, ...]]


def default_scene(frames: int = 200, seed: int = 0, calib_views: int = 15) -> SceneSpec:
    """Tabletop defaults: wide-FOV stereo pair above a 5x8 display grid.

    Cameras sit ~0.45 m above the surface tilted 24 degrees down; heads are
    sampled 0.4-0.8 m from the targets on the far side of the display.
    """
    left = CameraIntrinsics(
        fx=350.0, fy=350.0, cx=640.0, cy=360.0, skew=0.0,
        dist=(-0.20, 0.04, 4e-4, -3e-4, 0.002), image_size=(1280, 720),
    )
    right = CameraIntrinsics(
        fx=355.0, fy=354.0, cx=636.0, cy=363.0, skew=0.0,
        dist=(-0.21, 0.045, -2e-4, 3.5e-4, 0.002), image_size=(1280, 720),
    )
    # right camera 6 cm to the left camera's right with a slight toe-in
    r_rl = rotation_from_axis_angle(np.array([0.0, -0.03, 0.0]))
    rig = StereoRig(left, right, RigidTransform(r_rl, -r_rl @ np.array([0.06, 0.0, 0.0])))

    grid = GridConfig(square_size=0.06, rows=5, cols=8, target_map=default_target_map(5, 8, 20))

    tilt = math.radians(20.0)
    sin_t, cos_t = math.sin(tilt), math.cos(tilt)
    plane_from_camera = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, -sin_t, cos_t],
            [0.0, -cos_t, -sin_t],
        ]
    )
    camera_pos_plane = np.array([0.15, -0.15, 0.45])
    plane = PlanePose(
        RigidTransform(plane_from_camera, camera_pos_plane, FRAME_CAMERA, FRAME_PLANE), 0.0
    )

    participants = (((0.05, 0.65, 0.28), (0.25, 0.85, 0.45)),)
    return SceneSpec(
        rig=rig, plane=plane, grid=grid, participants=participants,
        frames=frames, seed=seed, calib_views=calib_views,
    )


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(key)))


def _in_image(uv: np.ndarray, K: CameraIntrinsics, margin: float) -> bool:
    w, h = K.image_size
    return bool(
        np.all(uv[..., 0] >= margin)
        and np.all(uv[..., 0] <= w - margin)
        and np.all(uv[..., 1] >= margin)
        and np.all(uv[..., 1] <= h - margin)
    )


def _board_points(grid: GridConfig) -> tuple[list[tuple[int, int]], np.ndarray]:
    idx = grid.corner_indices()
    pts = np.array([corner_position(grid, i, j) for i, j in idx])
    return idx, pts


def _sample_board_view(spec: SceneSpec, view: int) -> list[CornerObservation]:
    """One checkerboard view seen by both cameras, corners fully in-image."""
    rng = _rng(spec.seed, _STREAM_CALIB, view)
    grid = spec.grid
    idx, pts = _board_points(grid)
    center = pts.mean(axis=0)
    rig = spec.rig
    for _ in range(MAX_RESAMPLE):
        axis = rng.normal(size=3)
        axis /= max(np.linalg.norm(axis), 1e-12)
        angle = rng.uniform(0.0, 0.5)
        R = rotation_from_axis_angle(axis * angle)
        pos = np.array(
            [
                rng.uniform(-0.05, 0.20),
                rng.uniform(-0.10, 0.10),
                rng.uniform(0.45, 0.85),
            ]
        )
        pose_left = RigidTransform(R, pos - R @ center)
        try:
            uv_left = project_points(rig.left, pose_left, pts)
            uv_right = project_points(rig.right, rig.right_from_left.compose(pose_left), pts)
        except BehindCameraError:
            continue
        if not (_in_image(uv_left, rig.left, 12.0) and _in_image(uv_right, rig.right, 12.0)):
            continue
        vid = f"calib{view:03d}"
        obs = [
            CornerObservation(vid, CAMERA_LEFT, ij, (float(u), float(v)))
            for ij, (u, v) in zip(idx, uv_left)
        ]
        obs += [
            CornerObservation(vid, CAMERA_RIGHT, ij, (float(u), float(v)))
            for ij, (u, v) in zip(idx, uv_right)
        ]
        return obs
    raise ResampleExceededError(f"could not place calibration view {view} after {MAX_RESAMPLE} tries")


def _bbox_around(uv: np.ndarray, K: CameraIntrinsics, z: float) -> tuple[float, float, float, float]:
    # nominal 16 cm head width / 20 cm height at depth z
    half_u = K.fx * 0.08 / z
    half_v = K.fy * 0.10 / z
    return (float(uv[0] - half_u), float(uv[1] - half_v), float(uv[0] + half_u), float(uv[1] + half_v))


def _generate_frame(spec: SceneSpec, index: int):
    rng = _rng(spec.seed, _STREAM_FRAME, index)
    frame_id = f"f{index:05d}"
    cam_from_plane = spec.plane.transform.inverse()
    rig = spec.rig
    target_ids = sorted(spec.grid.target_map)

    for _ in range(MAX_RESAMPLE):
        box = spec.participants[rng.integers(len(spec.participants))]
        lo, hi = np.asarray(box[0], dtype=float), np.asarray(box[1], dtype=float)
        head_plane = rng.uniform(lo, hi)
        target_id = int(target_ids[rng.integers(len(target_ids))])

        head_cc = cam_from_plane.apply_point(head_plane)
        head_right = rig.right_from_left.apply_point(head_cc)
        if head_cc[2] <= 0.05 or head_right[2] <= 0.05:
            continue
        identity = RigidTransform.identity()
        try:
            uv_left = project_points(rig.left, identity, head_cc)
            uv_right = project_points(rig.right, rig.right_from_left, head_cc)
        except BehindCameraError:
            continue
        if not (_in_image(uv_left, rig.left, 60.0) and _in_image(uv_right, rig.right, 60.0)):
            continue

        target_cc = cam_from_plane.apply_point(target_center(spec.grid, target_id))
        direction = target_cc - head_cc
        direction /= np.linalg.norm(direction)

        tags = ("glasses",) if target_id >= GLASSES_TAG_MIN_TARGET else ("no_glasses",)
        truth = FrameTruth(frame_id, target_id, tags, head_cc, direction)
        faces = [
            FaceObservation(
                frame_id, CAMERA_LEFT,
                bbox=_bbox_around(uv_left, rig.left, head_cc[2]),
                eye_midpoint=(float(uv_left[0]), float(uv_left[1])),
            ),
            FaceObservation(
                frame_id, CAMERA_RIGHT,
                bbox=_bbox_around(uv_right, rig.right, head_right[2]),
                eye_midpoint=(float(uv_right[0]), float(uv_right[1])),
            ),
        ]
        preds = {m.name: _encode_prediction(m, frame_id, head_cc, direction) for m in spec.methods}
        return truth, faces, preds
    raise ResampleExceededError(
        f"could not sample a visible head for frame {index} after {MAX_RESAMPLE} tries"
    )


def _encode_prediction(
    method: MethodSpec, frame_id: str, head_cc: np.ndarray, direction_cc: np.ndarray
) -> GazePrediction:
    """Inverse of the evaluation-side correction: what an ideal network would emit."""
    yaw, pitch = directions_to_yaw_pitch(direction_cc)
    if method.convention == CONVENTION_OFFSET:
        to_cam = -head_cc / np.linalg.norm(head_cc)
        yaw_h, pitch_h = directions_to_yaw_pitch(to_cam)
        yaw, pitch = yaw - yaw_h, pitch - pitch_h
    return GazePrediction(frame_id, method.name, float(yaw), float(pitch), method.convention)


def generate_scene(spec: SceneSpec, threads: int = 1) -> SyntheticDataset:
    """Emit the full synthetic dataset for a scene, deterministic under seed."""
    calib = []
    for v in range(spec.calib_views):
        calib.extend(_sample_board_view(spec, v))

    idx, pts = _board_points(spec.grid)
    cam_from_plane = spec.plane.transform.inverse()
    uv = project_points(spec.rig.left, cam_from_plane, pts)
    if not _in_image(uv, spec.rig.left, 1.0):
        raise ResampleExceededError("display grid does not project inside the left image")
    plane_corners = tuple((ij, (float(u), float(v))) for ij, (u, v) in zip(idx, uv))

    if spec.frames and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda i: _generate_frame(spec, i), range(spec.frames)))
    else:
        results = [_generate_frame(spec, i) for i in range(spec.frames)]

    truths, faces = [], []
    predictions: dict[str, list[GazePrediction]] = {m.name: [] for m in spec.methods}
    for truth, frame_faces, preds in results:
        truths.append(truth)
        faces.extend(frame_faces)
        for name, p in preds.items():
            predictions[name].append(p)

    return SyntheticDataset(
        spec=spec,
        grid=spec.grid,
        rig=spec.rig,
        plane=spec.plane,
        calib_corners=tuple(calib),
        plane_corners=plane_corners,
        faces=tuple(faces),
        truths=tuple(truths),
        predictions={k: tuple(v) for k, v in predictions.items()},
    )


# --- perturbation ---------------------------------------------------------

def _perpendicular_axis(rng: np.random.Generator, d: np.ndarray) -> np.ndarray:
    raw = rng.normal(size=3)
    w = raw - (raw @ d) * d
    n = np.linalg.norm(w)
    if n < 1e-9:
        # essentially impossible; fall back to a deterministic perpendicular
        ref = np.array([1.0, 0.0, 0.0]) if abs(d[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        w = np.cross(d, ref)
        n = np.linalg.norm(w)
    return w / n


def _rotate_about(d: np.ndarray, axis: np.ndarray, angle) -> np.ndarray:
    # axis is perpendicular to d, so the Rodrigues formula loses its last term;
    # d and axis are (..., 3) and angle is (...)
    angle = np.asarray(angle)[..., None]
    return d * np.cos(angle) + np.cross(axis, d) * np.sin(angle)


def perturb(ds: SyntheticDataset, noise: NoiseSpec, seed: int) -> SyntheticDataset:
    """Noise-perturbed copy of a dataset; the zero spec returns it unchanged.

    Pixel noise is isotropic Gaussian on corners and face points. Gaze
    noise rotates the true direction by |N(0, sigma)| about a random
    perpendicular axis (so the angular error equals the rotation angle),
    then re-encodes the prediction in its method's convention; a fixed
    yaw/pitch bias is added last.
    """
    if noise.is_zero:
        return ds

    corners = ds.calib_corners
    plane_corners = ds.plane_corners
    if noise.corner_px_sigma > 0:
        rng = _rng(seed, _STREAM_PERTURB_CORNERS)
        corners = tuple(
            replace(ob, pixel=tuple(np.asarray(ob.pixel) + rng.normal(0.0, noise.corner_px_sigma, 2)))
            for ob in ds.calib_corners
        )
        plane_corners = tuple(
            (ij, tuple(np.asarray(uv) + rng.normal(0.0, noise.corner_px_sigma, 2)))
            for ij, uv in ds.plane_corners
        )

    faces = ds.faces
    if noise.face_px_sigma > 0:
        rng = _rng(seed, _STREAM_PERTURB_FACES)
        shifted = []
        for ob in ds.faces:
            bbox = ob.bbox
            if bbox is not None:
                du, dv = rng.normal(0.0, noise.face_px_sigma, 2)
                bbox = (bbox[0] + du, bbox[1] + dv, bbox[2] + du, bbox[3] + dv)
            eye = ob.eye_midpoint
            if eye is not None:
                de = rng.normal(0.0, noise.face_px_sigma, 2)
                eye = (eye[0] + de[0], eye[1] + de[1])
            shifted.append(replace(ob, bbox=bbox, eye_midpoint=eye))
        faces = tuple(shifted)

    truth_by_frame = {t.frame_id: t for t in ds.truths}
    sigma_rad = math.radians(noise.gaze_angle_sigma_deg)
    bias_yaw = math.radians(noise.gaze_bias_yaw_deg)
    bias_pitch = math.radians(noise.gaze_bias_pitch_deg)
    methods = {m.name: m for m in ds.spec.methods}

    predictions = {}
    for k, (name, preds) in enumerate(sorted(ds.predictions.items())):
        out = []
        rng = _rng(seed, _STREAM_PERTURB_PRED, k)
        for p in preds:
            if sigma_rad > 0:
                truth = truth_by_frame[p.frame_id]
                axis = _perpendicular_axis(rng, truth.direction_cc)
                angle = abs(rng.normal(0.0, sigma_rad))
                noisy_dir = _rotate_about(truth.direction_cc, axis, angle)
                p = _encode_prediction(methods[name], p.frame_id, truth.head_cc, noisy_dir)
            if bias_yaw or bias_pitch:
                p = replace(p, yaw=p.yaw + bias_yaw, pitch=p.pitch + bias_pitch)
            out.append(p)
        predictions[name] = tuple(out)

    return replace(
        ds, calib_corners=corners, plane_corners=plane_corners, faces=faces, predictions=predictions
    )


# --- angular-to-surface amplification --------------------------------------

@dataclass(frozen=True)
class AmplificationRow:
    sigma_deg: float
    median_distance_cm: float
    precision_at: dict[float, float]


def amplification_study(
    spec: SceneSpec, sigma_list, thresholds_cm=(10.0, 20.0, 50.0)
) -> list[AmplificationRow]:
    """How angular noise maps to surface distance on this geometry.

    Shares one unit-noise realization across all sigmas (each frame's
    rotation angle is sigma * |N(0,1)| about a fixed axis), so per-frame
    distances, and hence the medians, are non-decreasing in sigma.
    """
    ds = generate_scene(spec)
    axes, units = [], []
    for i, t in enumerate(ds.truths):
        rng = _rng(spec.seed, _STREAM_AMPLIFY, i)
        axes.append(_perpendicular_axis(rng, t.direction_cc))
        units.append(abs(rng.normal()))
    axes, units = np.array(axes).reshape(-1, 3), np.array(units)
    dirs = np.array([t.direction_cc for t in ds.truths]).reshape(-1, 3)
    heads = np.array([t.head_cc for t in ds.truths]).reshape(-1, 3)
    heads = HeadPoint(heads, np.zeros(len(heads)), SOURCE_EYES)
    targets = np.array([target_center(spec.grid, t.target_id) for t in ds.truths]).reshape(-1, 3)
    frame_ids = [t.frame_id for t in ds.truths]

    rows = []
    for sigma in sigma_list:
        d = _rotate_about(dirs, axes, math.radians(float(sigma)) * units)
        estimate = gaze_point_on_surface(heads, d, spec.plane)
        records = evaluate_frame(d, dirs, estimate, targets, frame_id=frame_ids,
                                 method_id=f"sigma={float(sigma)}")
        s = summarize(records, None, thresholds_cm)
        rows.append(AmplificationRow(float(sigma), s.median_distance_cm, s.precision_at))
    return rows
