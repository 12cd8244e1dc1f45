"""Camera and stereo-rig calibration from checkerboard corner observations.

The chain per camera: per-view homographies (normalized DLT), closed-form
intrinsics from the absolute-conic constraints, per-view pose
initialization from each homography, then joint damped-least-squares
refinement of intrinsics, distortion and all view poses against pixel
reprojection. Stereo: per-shared-view relative-pose candidates averaged,
then the single relative pose refined against the right-camera corners.

The camera model has no skew term, so the closed-form initialization
needs only two views.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields

import numpy as np

from .camera import CameraIntrinsics, project_packed_jacobian
from .errors import (
    DegenerateConfigurationError,
    IllConditionedError,
    InvalidPoseError,
    NoSharedViewsError,
)
from .geometry import RigidTransform, nearest_rotation, norm, rotation_from_axis_angle
from .grid import GridConfig, corner_position
from .optimize import BlockJacobian, levenberg_marquardt

logger = logging.getLogger(__name__)

MIN_CORNERS_PER_VIEW = 4
CONDITION_LIMIT = 1e8

CAMERA_LEFT = "left"
CAMERA_RIGHT = "right"


@dataclass(frozen=True)
class CornerTable:
    """Checkerboard corners as columns, one row per detection.

    ``view_id`` and ``camera`` are (N,) text, ``ij`` the (N, 2) lattice
    indices and ``uv`` the (N, 2) pixels.
    """

    view_id: np.ndarray
    camera: np.ndarray
    ij: np.ndarray
    uv: np.ndarray

    @classmethod
    def concat(cls, tables) -> CornerTable:
        """The rows of every table, in order."""
        empty = cls(np.array([], dtype=str), np.array([], dtype=str), np.zeros((0, 2), dtype=int), np.zeros((0, 2)))
        parts = [empty, *tables]
        return cls(*(np.concatenate([getattr(t, f.name) for t in parts]) for f in fields(cls)))

    def take(self, rows) -> CornerTable:
        """The rows at ``rows`` (indices or a mask), in that order."""
        return CornerTable(self.view_id[rows], self.camera[rows], self.ij[rows], self.uv[rows])

    def __len__(self) -> int:
        return len(self.view_id)


@dataclass(frozen=True)
class CalibrationResult:
    """One camera's fit, with its views as columns.

    ``view_id`` (V,) names the views, sorted in a fit's result; ``rotation``
    (V, 3, 3) and ``translation`` (V, 3) are their board-to-camera poses and
    ``view_rms`` (V,) their reprojection RMS. RMS values are per residual
    coordinate: sqrt(cost / (2 * corners)).
    """

    intrinsics: CameraIntrinsics
    view_id: np.ndarray
    rotation: np.ndarray
    translation: np.ndarray
    rms_reprojection: float
    view_rms: np.ndarray


@dataclass(frozen=True)
class StereoRig:
    """Two calibrated cameras plus the left-to-right relative pose.

    ``right_from_left`` maps left-camera coordinates into the right camera:
    X_right = R X_left + t. A usable rig has a nonzero baseline;
    triangulation rejects the degenerate zero-baseline case on its own.
    """

    left: CameraIntrinsics
    right: CameraIntrinsics
    right_from_left: RigidTransform

    @property
    def baseline(self) -> float:
        return float(np.linalg.norm(self.right_from_left.translation))


# --- homography ----------------------------------------------------------

def _normalize_points(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Isotropic normalization of each view's points (V, n, 2): centroid to origin, mean distance sqrt(2).

    Returns the points, the (V, 3, 3) transforms, and which views' points do not all coincide.
    """
    centroid = pts.mean(axis=1)
    d = np.linalg.norm(pts - centroid[:, None], axis=2).mean(axis=1)
    apart = ~(d < 1e-12)
    s = np.sqrt(2.0) / np.where(apart, d, 1.0)
    T = np.zeros((len(pts), 3, 3))
    T[:, 0, 0] = T[:, 1, 1] = s
    T[:, :2, 2] = -s[:, None] * centroid
    T[:, 2, 2] = 1.0
    return (pts - centroid[:, None]) * s[:, None, None], T, apart


def _homographies(P: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized-DLT homographies of V views of n >= 4 correspondences each, ``P`` and ``Q`` (V, n, 2).

    Returns H (V, 3, 3) and each view's reason, "" for none, why its layout
    admits no homography; such a view's H is meaningless. A view's H does
    not depend on the other views passed with it.
    """
    Pn, Tp, p_apart = _normalize_points(P)
    Qn, Tq, q_apart = _normalize_points(Q)
    n = P.shape[1]
    # rows 2i and 2i + 1 of view v: (-X, -Y, -1, 0, 0, 0, uX, uY, u) and (0, 0, 0, -X, -Y, -1, vX, vY, v)
    XY1 = np.concatenate([Pn, np.ones((len(P), n, 1))], axis=2)
    A = np.zeros((len(P), n, 2, 9))
    A[:, :, 0, :3] = A[:, :, 1, 3:6] = -XY1
    A[:, :, :, 6:] = Qn[..., None] * XY1[:, :, None, :]
    A = A.reshape(len(P), 2 * n, 9)

    # the null vector is the last row of Vt; a thin Vt has it only once A has 9 rows or more
    _, s, Vt = np.linalg.svd(A, full_matrices=2 * n < 9)
    # a unique solution needs rank 8; s[7] ~ 0 means a degenerate layout
    rank_8 = ~(s[:, 7] < 1e-8 * s[:, 0])
    H = np.linalg.inv(Tq) @ Vt[:, -1].reshape(-1, 3, 3) @ Tp
    scaled = np.abs(H[:, 2, 2]) > 1e-12
    H[scaled] = H[scaled] / H[scaled, 2, 2, None, None]
    reason = np.where(rank_8, "", "correspondence layout is rank-deficient (collinear points?)")
    return H, np.where(p_apart & q_apart, reason, "all points coincide")


def estimate_homography(plane_pts, pixels) -> np.ndarray:
    """Homography mapping 2D plane points to pixels, by normalized DLT.

    Needs at least 4 correspondences in general position. Raises
    DegenerateConfigurationError for too few or (near-)collinear points.
    """
    P = np.asarray(plane_pts, dtype=float).reshape(-1, 2)
    Q = np.asarray(pixels, dtype=float).reshape(-1, 2)
    if P.shape != Q.shape:
        raise ValueError(f"point count mismatch: {P.shape} vs {Q.shape}")
    n = P.shape[0]
    if n < 4:
        raise DegenerateConfigurationError(f"homography needs >= 4 correspondences, got {n}")
    H, reason = _homographies(P[None], Q[None])
    if reason[0]:
        raise DegenerateConfigurationError(reason[0])
    return H[0]


# --- closed-form intrinsics (absolute-conic constraints) -----------------

def intrinsics_from_homographies(homographies, image_size: tuple[int, int]) -> CameraIntrinsics:
    """Closed-form pinhole parameters from plane-to-image homographies.

    Needs >= 2 views in distinct orientations. Distortion is initialized
    to zero. Raises IllConditionedError when the constraint system is too
    close to rank-deficient (parallel board orientations) to invert reliably.
    """
    H = np.asarray(homographies, dtype=float).reshape(-1, 3, 3)
    if len(H) < 2:
        raise IllConditionedError(f"need >= 2 views for intrinsics initialization, got {len(H)}")
    # v_ij of columns (h_i, h_j) = (1, 2), (1, 1), (2, 2) over (B11, B22, B13, B23, B33): K[0, 1] = 0
    # makes B12 = 0. Each view gives rows v_12 and v_11 - v_22
    a, b = H[:, :, [0, 0, 1]], H[:, :, [1, 0, 1]]
    v = np.stack([a[:, 0] * b[:, 0], a[:, 1] * b[:, 1], a[:, 2] * b[:, 0] + a[:, 0] * b[:, 2],
                  a[:, 2] * b[:, 1] + a[:, 1] * b[:, 2], a[:, 2] * b[:, 2]], axis=2)
    V = np.stack([v[:, 0], v[:, 1] - v[:, 2]], axis=1).reshape(-1, 5)

    _, s, Vt = np.linalg.svd(V, full_matrices=True)
    if s[3] <= 0 or s[0] / s[3] > CONDITION_LIMIT:
        raise IllConditionedError(
            "board orientations are too similar: conic constraint system is rank-deficient"
        )
    b = Vt[-1]
    if b[0] < 0:
        b = -b
    B11, B22, B13, B23, B33 = b

    # Zhang's formulas at B12 = 0. v0 keeps B11 above and below the line: -B23 / B22 rounds differently
    denom = B11 * B22
    if denom <= 0 or B11 <= 0:
        raise IllConditionedError("recovered conic is not positive definite")
    v0 = -B11 * B23 / denom
    lam = B33 - (B13 * B13 - v0 * (B11 * B23)) / B11
    if lam <= 0:
        raise IllConditionedError("recovered conic is not positive definite")
    fx = float(np.sqrt(lam / B11))
    fy = float(np.sqrt(lam * B11 / denom))
    u0 = float(-B13 * fx * fx / lam)
    return CameraIntrinsics(
        fx=fx, fy=fy, cx=u0, cy=float(v0), dist=(0.0, 0.0, 0.0, 0.0, 0.0), image_size=tuple(image_size)
    )


def pose_from_homography(K, H) -> tuple[np.ndarray, np.ndarray]:
    """Board poses (board frame -> camera frame) from V plane homographies ``H`` (V, 3, 3).

    Returns the rotations R (V, 3, 3) and translations t (V, 3). ``K`` may
    be a CameraIntrinsics or a raw 3x3 matrix. The scale is fixed by the
    first rotation column; sign is chosen so the board lies in front of the
    camera. Raises InvalidPoseError for the first view whose t.z <= 0
    survives the sign choice (degenerate homography, e.g. H proportional to K).
    """
    Kmat = K.matrix() if isinstance(K, CameraIntrinsics) else np.asarray(K, dtype=float)
    A = np.linalg.solve(Kmat, np.asarray(H, dtype=float))
    n1 = norm(A[:, :, 0])
    vanishes = n1 < 1e-12
    lam = 1.0 / np.where(vanishes, 1.0, n1)
    lam = np.where(lam * A[:, 2, 2] < 0, -lam, lam)[:, None]
    r1, r2, t = lam * A[:, :, 0], lam * A[:, :, 1], lam * A[:, :, 2]
    bad = vanishes | (t[:, 2] <= 0)
    if bad.any():
        k = int(np.argmax(bad))
        if vanishes[k]:
            raise InvalidPoseError("homography first column vanishes under K^-1")
        raise InvalidPoseError(f"recovered board pose has t.z = {t[k, 2]:.3g} <= 0")
    return nearest_rotation(np.stack([r1, r2, np.cross(r1, r2)], axis=2)), t


# --- joint refinement -----------------------------------------------------

def board_points(corners: CornerTable, grid: GridConfig) -> tuple[np.ndarray, np.ndarray]:
    """Board points (N, 3) and pixels (N, 2) of a corner table, in row order: the one corner-to-board lookup.

    Raises ValueError naming the first corner, in row order, outside the grid lattice.
    """
    i, j = corners.ij.T
    outside = ~grid.in_bounds(i, j)
    if outside.any():
        k = int(np.argmax(outside))
        raise ValueError(
            f"corner index {(int(i[k]), int(j[k]))} outside grid lattice "
            f"({grid.rows + 1}x{grid.cols + 1}) in view {str(corners.view_id[k])!r}"
        )
    return corner_position(grid, i, j), corners.uv


def _poses(x: np.ndarray, n_shared: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The rotations (V, 3, 3) and translations (V, 3) of a pose solver's state ``x``, as views of it.

    The state is ``n_shared`` entries, then V rotation matrices of 9
    entries each, then V translations.
    """
    poses = x[n_shared:]
    n = poses.size // 12
    return poses[:9 * n].reshape(n, 3, 3), poses[9 * n:].reshape(n, 3)


def _retract(x: np.ndarray, dx: np.ndarray, n_shared: int = 0) -> np.ndarray:
    """The pose solvers' retraction: state ``x`` (laid out as :func:`_poses` reads it) moved by ``dx``.

    ``dx`` holds the steps of the shared entries, then one (d rvec, d t)
    block of 6 per view. Shared entries and translations are added; each
    rotation becomes exp(d rvec) R, the increment composed on the left,
    with one Rodrigues map over every view's increment and no log map.
    """
    d = dx[n_shared:].reshape(-1, 6)
    out = np.empty_like(x)
    np.add(x[:n_shared], dx[:n_shared], out=out[:n_shared])
    (R, t), (R_out, t_out) = _poses(x, n_shared), _poses(out, n_shared)
    np.matmul(rotation_from_axis_angle(d[:, :3]), R, out=R_out)
    np.add(t, d[:, 3:], out=t_out)
    return out


def refine_calibration(
    corners: CornerTable,
    grid: GridConfig,
    init: CalibrationResult,
) -> CalibrationResult:
    """Jointly refine intrinsics, distortion and all per-view poses.

    Minimizes the sum of squared pixel reprojection residuals with damped
    least squares; never returns a result worse than the initialization.
    Raises NoConvergenceError (carrying the best iterate) on divergence.
    """
    obj, pix = board_points(corners, grid)
    view_ids, view_idx = np.unique(corners.view_id, return_inverse=True)
    # not np.isin: on arrays this small it calls np.unique, which imports numpy.ma (about 1 MB)
    found, _, k = np.intersect1d(view_ids, init.view_id, assume_unique=True, return_indices=True)
    if len(found) < len(view_ids):
        missing = sorted(set(view_ids.tolist()) - set(found.tolist()))
        raise ValueError(f"initialization lacks poses for views: {missing}")

    xi0 = init.intrinsics.packed()
    n_intr = xi0.size
    x0 = np.concatenate([xi0, init.rotation[k].ravel(), init.translation[k].ravel()])

    def model(x: np.ndarray):
        uv, jacobian = project_packed_jacobian(x[:n_intr], *_poses(x, n_intr), view_idx, obj)
        return (uv - pix).ravel(), lambda: BlockJacobian(*jacobian(), view_idx)

    result = levenberg_marquardt(model, x0, plus=lambda x, dx: _retract(x, dx, n_intr),
                                 n_increments=n_intr + 6 * len(k))
    logger.debug("intrinsics refinement: %s", result.summary())

    intr = CameraIntrinsics.from_packed(result.x[:n_intr], init.intrinsics.image_size)
    res = result.residual.reshape(-1, 2)
    view_rms = np.sqrt(np.bincount(view_idx, (res ** 2).sum(axis=1)) / (2 * np.bincount(view_idx)))
    rms = float(np.sqrt(np.mean(res ** 2)))
    return CalibrationResult(intr, view_ids, *_poses(result.x, n_intr), rms, view_rms)


def calibrate_camera(
    corners: CornerTable,
    grid: GridConfig,
    image_size: tuple[int, int],
) -> CalibrationResult:
    """Full single-camera chain: homographies -> closed-form K -> poses -> refinement.

    Views with fewer than 4 detected corners, or whose corners admit no
    homography (e.g. all on one lattice row), are dropped with a warning.
    Raises only when too few views remain to initialize the intrinsics.
    """
    obj, pix = board_points(corners, grid)
    view_ids, view_idx, counts = np.unique(corners.view_id, return_inverse=True, return_counts=True)
    # each view's rows in input order: this fixes the residual row order
    order = np.argsort(view_idx, kind="stable")
    start = np.cumsum(counts) - counts
    H = np.empty((len(view_ids), 3, 3))
    reason = np.empty(len(view_ids), dtype=object)
    # one batched DLT per corner count (a set: np.unique would import numpy.ma, about 1 MB)
    for n in set(counts[counts >= MIN_CORNERS_PER_VIEW].tolist()):
        group = np.flatnonzero(counts == n)
        rows = order[start[group, None] + np.arange(n)]
        H[group], reason[group] = _homographies(obj[rows, :2], pix[rows])
    kept = []
    for k, vid in enumerate(view_ids.tolist()):
        if counts[k] < MIN_CORNERS_PER_VIEW:
            logger.warning("dropping view %r: only %d corners detected", vid, counts[k])
        elif reason[k]:
            logger.warning("dropping view %r: %s", vid, reason[k])
        else:
            kept.append(k)

    K0 = intrinsics_from_homographies(H[kept], image_size)
    # refinement starts from K0 and the poses; it reads no initial rms
    R0, t0 = pose_from_homography(K0, H[kept])
    init = CalibrationResult(K0, view_ids[kept], R0, t0, float("nan"), np.full(len(kept), np.nan))
    rows = order[np.isin(view_idx[order], kept)]
    return refine_calibration(corners.take(rows), grid, init)


def refine_pose(xi, points, pixels, pose0: RigidTransform, label: str):
    """Refine the one rigid pose that maps ``points`` (N, 3) onto ``pixels`` (N, 2).

    The camera has packed intrinsics ``xi`` (:meth:`CameraIntrinsics.packed`),
    held fixed. Returns the refined pose and its per-point residuals (N, 2).
    Raises NoConvergenceError (carrying the best iterate) on divergence.
    """
    view_idx = np.zeros(len(points), dtype=int)

    def model(x: np.ndarray):
        uv, jacobian = project_packed_jacobian(xi, *_poses(x), view_idx, points)

        def pose_jacobian():  # the pose entries are the shared ones; the one view's own block is empty
            d_pose = jacobian(with_xi=False)[1]
            return BlockJacobian(d_pose, d_pose[:, :, :0], view_idx)

        return (uv - pixels).ravel(), pose_jacobian

    x0 = np.concatenate([pose0.rotation.ravel(), pose0.translation])
    result = levenberg_marquardt(model, x0, plus=_retract, n_increments=6)
    logger.debug("%s refinement: %s", label, result.summary())
    R, t = _poses(result.x)
    return RigidTransform(R[0], t[0]), result.residual.reshape(-1, 2)


# --- stereo ---------------------------------------------------------------

def calibrate_stereo(
    left: CalibrationResult,
    right: CalibrationResult,
    corners: CornerTable,
    grid: GridConfig,
) -> StereoRig:
    """Relative pose of the rig from views seen by both cameras.

    Per shared view the candidate is pose_right o pose_left^-1; candidates
    are averaged (chordal rotation mean, translation mean) and the single
    relative pose is then refined against the right-camera corners of all
    shared views, with the left poses held fixed. The views may come in any
    order in either result. Raises :class:`NoSharedViewsError` when no view
    is in both results, or ``corners`` holds no right-camera corner of one.
    """
    shared, il, ir = np.intersect1d(left.view_id, right.view_id, assume_unique=True, return_indices=True)
    if not len(shared):
        raise NoSharedViewsError("no views were seen by both cameras")

    # stacked @ rounds each view as the one-view product; R_l^T stays a strided view for that
    R_l, t_l, R_r = left.rotation[il], left.translation[il, :, None], right.rotation[ir]
    R_lt = R_l.transpose(0, 2, 1)
    R0 = nearest_rotation(np.mean(R_r @ R_lt, axis=0))
    t0 = np.mean((R_r @ -(R_lt @ t_l))[:, :, 0] + right.translation[ir], axis=0)

    obj, pix = board_points(corners, grid)
    rows = (corners.camera == CAMERA_RIGHT) & np.isin(corners.view_id, shared)
    if not rows.any():
        raise NoSharedViewsError("no right-camera corner lies in a view both cameras were calibrated on")

    # the right corners' board points in the left camera frame, fixed by the left poses
    view_idx = np.searchsorted(shared, corners.view_id[rows])
    obj, pix = obj[rows], pix[rows]
    points = np.einsum("nij,nj->ni", R_l[view_idx], obj) + t_l[view_idx, :, 0]
    rel, _ = refine_pose(right.intrinsics.packed(), points, pix, RigidTransform(R0, t0), "stereo")
    return StereoRig(left.intrinsics, right.intrinsics, rel)
