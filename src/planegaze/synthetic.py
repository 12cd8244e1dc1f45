"""Synthetic scenes with exactly known geometry.

Everything downstream is validated against these: the true rig, plane and
grid are chosen, heads and targets are sampled, and every observation the
real pipeline would ingest (checkerboard corners, face detections, gaze
predictions) is emitted by exact forward projection, as the column tables
the dataset files hold. A zero-noise dataset
pushed through the full pipeline must reproduce its targets to numerical
precision; the perturbation operator then adds calibrated amounts of pixel
and angular noise on top.

All randomness flows from explicit seeds. A frame's draws are Philox4x32-10
blocks (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC
2011) keyed by the seed at counter (frame index, attempt, stream, block):
a pure function of those numbers, so frame i of a dataset does not depend
on how many frames come after it, and all frames draw at once as arrays
over a frame axis. Calibration views and the perturbations draw from
numpy generators seeded by (seed, stream[, index]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .calibration import CAMERA_LEFT, CAMERA_RIGHT, CornerTable, StereoRig
from .camera import CameraIntrinsics, project_points
from .errors import ResampleExceededError
from .geometry import (
    RigidTransform,
    directions_to_yaw_pitch,
    dot,
    norm,
    rotation_from_axis_angle,
    unit,
)
from .grid import GridConfig, corner_position, default_target_map, target_centers
from .metrics import FrameTable
from .pipeline import CONVENTION_ABSOLUTE, CONVENTION_OFFSET, CONVENTIONS, PredictionTable, camera_offset_angles
from .plane import PlanePose
from .triangulation import SOURCE_BBOX, SOURCE_EYES, FaceTable

MAX_RESAMPLE = 100

# rng stream ids: they key the draws, so each keeps its value (2 is retired)
_STREAM_CALIB = 0
_STREAM_FRAME = 1
_STREAM_PERTURB_CORNERS = 3
_STREAM_PERTURB_FACES = 4
_STREAM_PERTURB_PRED = 5

GLASSES_TAG_MIN_TARGET = 11


@dataclass(frozen=True)
class MethodSpec:
    """A simulated gaze method: its output convention and head-point source.

    The name becomes part of a file name, so it must be a non-empty string
    without a path separator or NUL.
    """

    name: str
    convention: str = CONVENTION_OFFSET
    head_source: str = SOURCE_EYES

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name or any(c in self.name for c in "/\\\0"):
            raise ValueError(f"method name must be a non-empty file-name stem, got {self.name!r}")
        if self.convention not in CONVENTIONS:
            raise ValueError(f"method {self.name!r}: unknown convention {self.convention!r}")
        if self.head_source not in (SOURCE_BBOX, SOURCE_EYES):
            raise ValueError(f"method {self.name!r}: unknown head_source {self.head_source!r}")


@dataclass(frozen=True)
class NoiseSpec:
    """Perturbation magnitudes. Zero everywhere means a no-op."""

    corner_px_sigma: float = 0.0
    face_px_sigma: float = 0.0
    gaze_angle_sigma_deg: float = 0.0
    gaze_bias_yaw_deg: float = 0.0
    gaze_bias_pitch_deg: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        for name in ("corner_px_sigma", "face_px_sigma", "gaze_angle_sigma_deg"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    @property
    def is_zero(self) -> bool:
        return all(getattr(self, f.name) == 0.0 for f in fields(self))


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
        if self.frames < 0 or self.calib_views < 0 or self.seed < 0:
            raise ValueError("frames, calib_views and seed must be >= 0")
        if self.seed >= 2**64:
            raise ValueError(f"seed must be < 2**64, got {self.seed}")
        if self.frames and not self.grid.target_map:
            raise ValueError(f"{self.frames} frames need at least one target, and the grid has none")
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
class SyntheticDataset:
    """Everything a dataset directory holds, in memory, as its files' column tables.

    ``faces`` holds a left and a right row per frame, in frame order;
    ``head_cc`` and ``direction_cc`` (N, 3) are each frame's exact head
    and gaze direction in the left-camera frame.
    """

    spec: SceneSpec
    grid: GridConfig
    rig: StereoRig
    plane: PlanePose
    calib_corners: CornerTable
    plane_corners: CornerTable
    faces: FaceTable
    frames: FrameTable
    head_cc: np.ndarray
    direction_cc: np.ndarray
    predictions: dict[str, PredictionTable]


def default_scene(frames: int = 200, seed: int = 0, calib_views: int = 15) -> SceneSpec:
    """Tabletop defaults: wide-FOV stereo pair above a 5x8 display grid.

    Cameras sit ~0.45 m above the surface tilted 24 degrees down; heads are
    sampled 0.4-0.8 m from the targets on the far side of the display.
    """
    left = CameraIntrinsics(
        fx=350.0, fy=350.0, cx=640.0, cy=360.0,
        dist=(-0.20, 0.04, 4e-4, -3e-4, 0.002), image_size=(1280, 720),
    )
    right = CameraIntrinsics(
        fx=355.0, fy=354.0, cx=636.0, cy=363.0,
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
        RigidTransform(plane_from_camera, camera_pos_plane), 0.0
    )

    participants = (((0.05, 0.65, 0.28), (0.25, 0.85, 0.45)),)
    return SceneSpec(
        rig=rig, plane=plane, grid=grid, participants=participants,
        frames=frames, seed=seed, calib_views=calib_views,
    )


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(key)))


_M32 = 0xFFFFFFFF


def _philox(key: tuple[int, int], counter) -> np.ndarray:
    """Philox4x32-10 (Salmon et al., SC 2011) of four counter words (each shape (...)) under a
    two-word key; the output block, shape (4, ...). Words are held in uint64 arrays, so each
    32 x 32-bit product keeps its high and low halves."""
    k0, k1 = key
    c0, c1, c2, c3 = counter
    for _ in range(10):
        p0, p1 = c0 * 0xD2511F53, c2 * 0xCD9E8D57
        c0, c1, c2, c3 = (p1 >> 32) ^ c1 ^ k0, p1 & _M32, (p0 >> 32) ^ c3 ^ k1, p0 & _M32
        k0, k1 = (k0 + 0x9E3779B9) & _M32, (k1 + 0xBB67AE85) & _M32
    return np.stack([c0, c1, c2, c3])


def _uniforms(seed: int, stream: int, index: np.ndarray, attempt: int, m: int) -> np.ndarray:
    """m uniforms in [0, 1) for each frame index (N,), shape (N, m).

    Block b of frame i is Philox under the seed's two 32-bit words, at
    counter (i, attempt, stream, b); each of its two word pairs gives one
    uniform of 53 bits. A frame's draws depend on nothing but these numbers.
    """
    index = np.asarray(index, dtype=np.uint64)
    blocks = np.arange(-(-m // 2), dtype=np.uint64)
    words = _philox((seed & _M32, seed >> 32), np.broadcast_arrays(
        index[:, None], np.uint64(attempt), np.uint64(stream), blocks))
    bits = (words[0::2] << 32 | words[1::2]) >> 11
    return (bits.transpose(1, 2, 0) * 2.0**-53).reshape(len(index), 2 * len(blocks))[:, :m]


def _in_image(uv: np.ndarray, K: CameraIntrinsics, margin: float) -> np.ndarray:
    """Per-point mask, shape (...): pixel at least ``margin`` inside the image."""
    w, h = K.image_size
    u, v = uv[..., 0], uv[..., 1]
    return (u >= margin) & (u <= w - margin) & (v >= margin) & (v <= h - margin)


def _board_points(grid: GridConfig) -> tuple[list[tuple[int, int]], np.ndarray]:
    idx = grid.corner_indices()
    return idx, corner_position(grid, *np.array(idx).T)


def _sample_board_view(spec: SceneSpec, view: int) -> CornerTable:
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
        uv_left = project_points(rig.left, pose_left, pts)
        uv_right = project_points(rig.right, rig.right_from_left.compose(pose_left), pts)
        # a point behind a camera projects to NaN, which no image holds
        if not (_in_image(uv_left, rig.left, 12.0).all() and _in_image(uv_right, rig.right, 12.0).all()):
            continue
        n = len(idx)
        return CornerTable(np.full(2 * n, f"calib{view:03d}"), np.repeat([CAMERA_LEFT, CAMERA_RIGHT], n),
                           np.tile(idx, (2, 1)), np.vstack([uv_left, uv_right]))
    raise ResampleExceededError(f"could not place calibration view {view} after {MAX_RESAMPLE} tries")


def _bbox_around(uv: np.ndarray, K: CameraIntrinsics, z: np.ndarray) -> np.ndarray:
    """Nominal 16 cm wide, 20 cm high head boxes at depths ``z`` (N,), shape (N, 4)."""
    half_u = K.fx * 0.08 / z
    half_v = K.fy * 0.10 / z
    u, v = uv[:, 0], uv[:, 1]
    return np.stack([u - half_u, v - half_v, u + half_u, v + half_v], axis=1)


def _sample_heads(spec: SceneSpec) -> tuple[np.ndarray, np.ndarray]:
    """Head of every frame in the left-camera frame (N, 3), and its target's index.

    Attempt r of frame i takes 5 uniforms of (seed, _STREAM_FRAME, i, r):
    a sampling box, a head inside it and a target. Frames redraw until the
    head is more than 5 cm in front of both cameras and 60 px inside both
    images; each attempt draws and tests every frame still pending at once.
    """
    rig = spec.rig
    cam_from_plane = spec.plane.transform.inverse()
    identity = RigidTransform.identity()
    lo, hi = np.array(spec.participants, dtype=float).transpose(1, 0, 2)
    span, n_targets = hi - lo, len(spec.grid.target_map)

    heads = np.empty((spec.frames, 3))
    targets = np.empty(spec.frames, dtype=int)
    pending = np.arange(spec.frames)
    for attempt in range(MAX_RESAMPLE):
        if not pending.size:
            break
        # floor(u * k) < k for u < 1 and every k < 2**53
        u = _uniforms(spec.seed, _STREAM_FRAME, pending, attempt, 5)
        box, target = (u[:, 0] * len(lo)).astype(int), (u[:, 4] * n_targets).astype(int)
        head = cam_from_plane.apply_points(lo[box] + span[box] * u[:, 1:4])
        right = rig.right_from_left.apply_points(head)
        ok = (head[:, 2] > 0.05) & (right[:, 2] > 0.05)
        ok[ok] = _in_image(project_points(rig.left, identity, head[ok]), rig.left, 60.0) & _in_image(
            project_points(rig.right, identity, right[ok]), rig.right, 60.0
        )
        heads[pending[ok]] = head[ok]
        targets[pending[ok]] = target[ok]
        pending = pending[~ok]
    if pending.size:
        raise ResampleExceededError(
            f"could not sample a visible head for frame {pending[0]} after {MAX_RESAMPLE} tries"
        )
    return heads, targets


def _encode_predictions(method: MethodSpec, head_cc: np.ndarray, direction_cc: np.ndarray) -> np.ndarray:
    """(yaw, pitch) an ideal network would emit, shape (N, 2).

    The inverse of the evaluation-side correction for the method's convention.
    """
    yaw_pitch = directions_to_yaw_pitch(direction_cc)
    if method.convention == CONVENTION_OFFSET:
        yaw_pitch = yaw_pitch - np.stack(camera_offset_angles(head_cc), axis=-1)
    return yaw_pitch


def generate_scene(spec: SceneSpec) -> SyntheticDataset:
    """Emit the full synthetic dataset for a scene, deterministic under seed."""
    calib = CornerTable.concat(_sample_board_view(spec, v) for v in range(spec.calib_views))

    idx, pts = _board_points(spec.grid)
    cam_from_plane = spec.plane.transform.inverse()
    uv = project_points(spec.rig.left, cam_from_plane, pts)
    if not _in_image(uv, spec.rig.left, 1.0).all():
        raise ResampleExceededError("display grid does not project inside the left image")
    plane_corners = CornerTable(np.full(len(idx), "plane"), np.full(len(idx), CAMERA_LEFT), np.array(idx), uv)

    rig = spec.rig
    target_ids = np.array(sorted(spec.grid.target_map))
    target_cc = cam_from_plane.apply_points(target_centers(spec.grid, target_ids))
    head, target = _sample_heads(spec)
    right = rig.right_from_left.apply_points(head)
    identity = RigidTransform.identity()
    uv_left = project_points(rig.left, identity, head)
    uv_right = project_points(rig.right, identity, right)
    direction = unit(target_cc[target] - head)
    target_id = target_ids[target]

    frame_id = np.array([f"f{i:05d}" for i in range(spec.frames)], dtype=str)
    tags = tuple(("glasses",) if tid >= GLASSES_TAG_MIN_TARGET else ("no_glasses",) for tid in target_id.tolist())
    # a left and a right row per frame, as faces.csv holds them
    faces = FaceTable(
        np.repeat(frame_id, 2),
        np.tile([CAMERA_LEFT, CAMERA_RIGHT], spec.frames),
        np.stack([_bbox_around(uv_left, rig.left, head[:, 2]),
                  _bbox_around(uv_right, rig.right, right[:, 2])], axis=1).reshape(-1, 4),
        np.stack([uv_left, uv_right], axis=1).reshape(-1, 2),
    )
    predictions = {
        m.name: PredictionTable(frame_id, np.full(spec.frames, m.name), *_encode_predictions(m, head, direction).T,
                                m.convention, None)
        for m in spec.methods
    }

    return SyntheticDataset(
        spec=spec,
        grid=spec.grid,
        rig=spec.rig,
        plane=spec.plane,
        calib_corners=calib,
        plane_corners=plane_corners,
        faces=faces,
        frames=FrameTable(frame_id, target_id, tags),
        head_cc=head,
        direction_cc=direction,
        predictions=predictions,
    )


# --- perturbation ---------------------------------------------------------

def _perpendicular_axes(raw: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Unit axes perpendicular to unit directions ``d`` (N, 3), from random draws ``raw`` (N, 3).

    Each axis is its draw's component orthogonal to d, normalized. A draw
    (essentially) parallel to d falls back to the deterministic d x e_x,
    or d x e_y when d lies close to e_x.
    """
    w = raw - dot(raw, d)[:, None] * d
    n = norm(w)
    fallback = n < 1e-9
    if fallback.any():
        dd = d[fallback]
        ref = np.where(np.abs(dd[:, :1]) < 0.9, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        w[fallback] = np.cross(dd, ref)
        n[fallback] = norm(w[fallback])
    return w / n[:, None]


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

    corners, plane_corners = ds.calib_corners, ds.plane_corners
    if noise.corner_px_sigma > 0:
        rng = _rng(seed, _STREAM_PERTURB_CORNERS)
        px = np.vstack([corners.uv, plane_corners.uv])
        px = px + rng.normal(0.0, noise.corner_px_sigma, px.shape)
        corners, plane_corners = replace(corners, uv=px[:len(corners)]), replace(plane_corners, uv=px[len(corners):])

    faces = ds.faces
    if noise.face_px_sigma > 0:
        # one (du, dv) per present source, row by row, the bbox's before the eye's
        present = ~np.isnan(np.column_stack([faces.bbox[:, 0], faces.eye[:, 0]]))
        shifts = np.zeros((len(present), 2, 2))
        shifts[present] = _rng(seed, _STREAM_PERTURB_FACES).normal(0.0, noise.face_px_sigma, (present.sum(), 2))
        faces = replace(faces, bbox=faces.bbox + np.tile(shifts[:, 0], 2), eye=faces.eye + shifts[:, 1])

    sigma_rad = math.radians(noise.gaze_angle_sigma_deg)
    bias = (math.radians(noise.gaze_bias_yaw_deg), math.radians(noise.gaze_bias_pitch_deg))
    methods = {m.name: m for m in ds.spec.methods}

    predictions = {}
    for k, (name, preds) in enumerate(sorted(ds.predictions.items())):
        yaw_pitch = np.column_stack([preds.yaw, preds.pitch])
        if sigma_rad > 0:
            rows, _ = ds.frames.rows_of(preds.frame_id)
            draws = _rng(seed, _STREAM_PERTURB_PRED, k).normal(size=(len(rows), 4))
            d = ds.direction_cc[rows]
            noisy = _rotate_about(d, _perpendicular_axes(draws[:, :3], d), np.abs(sigma_rad * draws[:, 3]))
            yaw_pitch = _encode_predictions(methods[name], ds.head_cc[rows], noisy)
        if any(bias):
            yaw_pitch = yaw_pitch + bias
        predictions[name] = replace(preds, yaw=yaw_pitch[:, 0], pitch=yaw_pitch[:, 1])

    return replace(
        ds, calib_corners=corners, plane_corners=plane_corners, faces=faces, predictions=predictions
    )

