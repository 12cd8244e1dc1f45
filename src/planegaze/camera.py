"""Pinhole camera with 5-coefficient radial-tangential distortion.

The distortion model, applied to normalized coordinates (x, y) = (X/Z, Y/Z):

    r2 = x^2 + y^2
    radial = 1 + k1 r2 + k2 r2^2 + k3 r2^3
    xd = x * radial + 2 p1 x y + p2 (r2 + 2 x^2)
    yd = y * radial + p1 (r2 + 2 y^2) + 2 p2 x y
    u = fx xd + skew yd + cx
    v = fy yd + cy

Point-level only: the pipeline never remaps whole images.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BehindCameraError
from .geometry import RigidTransform, as_vec3, rotation_from_axis_angle

UNDISTORT_TOL = 1e-10
UNDISTORT_MAX_ITER = 50


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole parameters in pixels plus distortion coefficients.

    ``dist`` is (k1, k2, p1, p2, k3); ``image_size`` is (width, height).
    """

    fx: float
    fy: float
    cx: float
    cy: float
    skew: float = 0.0
    dist: tuple[float, float, float, float, float] = (0.0, 0.0, 0.0, 0.0, 0.0)
    image_size: tuple[int, int] = (1280, 720)

    def __post_init__(self):
        w, h = self.image_size
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")
        if not (0 <= self.cx < w and 0 <= self.cy < h):
            raise ValueError(
                f"principal point ({self.cx}, {self.cy}) outside image {w}x{h}"
            )
        if len(self.dist) != 5:
            raise ValueError("dist must hold exactly (k1, k2, p1, p2, k3)")
        object.__setattr__(self, "dist", tuple(float(d) for d in self.dist))

    def matrix(self) -> np.ndarray:
        """3x3 calibration matrix K."""
        return np.array(
            [
                [self.fx, self.skew, self.cx],
                [0.0, self.fy, self.cy],
                [0.0, 0.0, 1.0],
            ]
        )

    def packed(self, with_skew: bool = True) -> np.ndarray:
        """(fx, fy, cx, cy, [skew,] k1, k2, p1, p2, k3): the layout of :func:`project_packed_jacobian`."""
        skew = [self.skew] if with_skew else []
        return np.array([self.fx, self.fy, self.cx, self.cy, *skew, *self.dist])

    @classmethod
    def from_packed(cls, xi, image_size) -> "CameraIntrinsics":
        """Inverse of :meth:`packed`; 9 entries mean zero skew."""
        skew = xi[4] if len(xi) == 10 else 0.0
        fx, fy, cx, cy = (float(v) for v in xi[:4])
        return cls(fx, fy, cx, cy, float(skew), tuple(xi[-5:]), tuple(image_size))


def distort_normalized(xy: np.ndarray, dist) -> np.ndarray:
    """Apply the distortion model to normalized coordinates, shape (..., 2)."""
    k1, k2, p1, p2, k3 = dist
    x, y = xy[..., 0], xy[..., 1]
    r2 = x * x + y * y
    radial = 1.0 + r2 * (k1 + r2 * (k2 + r2 * k3))
    xd = x * radial + 2.0 * p1 * x * y + p2 * (r2 + 2.0 * x * x)
    yd = y * radial + p1 * (r2 + 2.0 * y * y) + 2.0 * p2 * x * y
    return np.stack([xd, yd], axis=-1)


def project_points(K: CameraIntrinsics, pose: RigidTransform, X) -> np.ndarray:
    """Project camera- or world-frame points through ``pose`` into pixels.

    ``X`` has shape (..., 3); result has shape (..., 2). Raises
    BehindCameraError if any point lands at z <= 1e-9 after the pose.
    """
    Xc = pose.apply_point(as_vec3(X))
    z = Xc[..., 2]
    if np.any(z <= 1e-9):
        raise BehindCameraError("point behind camera (z <= 0 after pose transform)")
    xd = distort_normalized(Xc[..., :2] / z[..., None], K.dist)
    return _pixels(xd, K.fx, K.fy, K.cx, K.cy, K.skew)


def project_packed_jacobian(xi, rvecs, tvecs, view_idx, obj):
    """Project board points of many views under packed parameters, with derivatives, for the solvers.

    ``xi`` is laid out as :meth:`CameraIntrinsics.packed`. Point n lies at
    ``obj[n]`` on the board of view ``view_idx[n]``, posed by axis-angle
    ``rvecs`` and ``tvecs`` (one row per view). Points behind the camera
    are clamped to z = 1e-9 instead of raising, so a solver's excursions
    show as large residuals.

    Returns ``(uv, d_xi, d_pose)``: the pixels (N, 2); d uv / d xi,
    (N, 2, len(xi)); and d uv / d the increment of each point's own view
    pose, (N, 2, 6). The increment (d rvec, d t) is the one
    :func:`~planegaze.geometry.retract_poses` applies, R <- exp(d rvec) R
    and t <- t + d t, under which the camera-frame point moves by
    d rvec x (R X) + d t (Gallego & Yezzi 2015).
    """
    p = np.einsum("nij,nj->ni", rotation_from_axis_angle(rvecs)[view_idx], obj)  # R X
    Xc = p + tvecs[view_idx]
    fx, fy, cx, cy = xi[:4]
    k1, k2, p1, p2, k3 = xi[-5:]
    skew = xi[4] if len(xi) == 10 else 0.0
    z = np.maximum(Xc[:, 2], 1e-9)
    xy = Xc[:, :2] / z[:, None]
    xd = distort_normalized(xy, (k1, k2, p1, p2, k3))
    uv = _pixels(xd, fx, fy, cx, cy, skew)

    x, y = xy[:, 0], xy[:, 1]
    r2 = x * x + y * y
    r6 = r2 ** 3
    xy2 = 2.0 * x * y
    n = len(xy)
    # d (xd, yd) / d (k1, k2, p1, p2, k3)
    D_dist = np.empty((n, 2, 5))
    D_dist[:, 0, 0] = x * r2
    D_dist[:, 0, 1] = D_dist[:, 0, 0] * r2
    D_dist[:, 0, 2] = D_dist[:, 1, 3] = xy2
    D_dist[:, 0, 3] = r2 + 2.0 * x * x
    D_dist[:, 0, 4] = x * r6
    D_dist[:, 1, 0] = y * r2
    D_dist[:, 1, 1] = D_dist[:, 1, 0] * r2
    D_dist[:, 1, 2] = r2 + 2.0 * y * y
    D_dist[:, 1, 4] = y * r6
    # d (xd, yd) / d (x, y); dr = 2 d radial / d r2
    radial = 1.0 + r2 * (k1 + r2 * (k2 + r2 * k3))
    dr = 2.0 * (k1 + r2 * (2.0 * k2 + 3.0 * r2 * k3))
    D_xy = np.empty((n, 2, 2))
    D_xy[:, 0, 0] = radial + dr * x * x + 2.0 * p1 * y + 6.0 * p2 * x
    D_xy[:, 0, 1] = D_xy[:, 1, 0] = dr * x * y + 2.0 * (p1 * x + p2 * y)
    D_xy[:, 1, 1] = radial + dr * y * y + 6.0 * p1 * y + 2.0 * p2 * x
    A = np.array([[fx, skew], [0.0, fy]])  # d (u, v) / d (xd, yd)

    d_xi = np.zeros((n, 2, len(xi)))
    d_xi[:, 0, 0] = xd[:, 0]
    d_xi[:, 1, 1] = xd[:, 1]
    d_xi[:, 0, 2] = d_xi[:, 1, 3] = 1.0
    if len(xi) == 10:
        d_xi[:, 0, 4] = xd[:, 1]
    d_xi[:, :, -5:] = A @ D_dist

    # d uv / d Xc = M: d (x, y) / d Xc is [I | -(x, y)] / z; d uv / d rvec = p x M, row by row
    d_pose = np.empty((n, 2, 6))
    M = d_pose[:, :, 3:]
    AD = A @ D_xy
    M[:, :, :2] = AD
    M[:, :, 2:] = -(AD @ xy[:, :, None])
    M /= z[:, None, None]
    (px, py, pz), (mx, my, mz) = p.T[:, :, None], M.transpose(2, 0, 1)
    d_pose[:, :, 0] = py * mz - pz * my
    d_pose[:, :, 1] = pz * mx - px * mz
    d_pose[:, :, 2] = px * my - py * mx
    return uv, d_xi, d_pose


def _pixels(xd: np.ndarray, fx, fy, cx, cy, skew) -> np.ndarray:
    """Pixels of distorted normalized coordinates (..., 2)."""
    u = fx * xd[..., 0] + skew * xd[..., 1] + cx
    v = fy * xd[..., 1] + cy
    return np.stack([u, v], axis=-1)


def undistort_pixels(K: CameraIntrinsics, pixels) -> np.ndarray:
    """Invert distortion for pixels, returning normalized coordinates (..., 2).

    Fixed-point iteration on the distorted normalized coordinates,
    tolerance 1e-10, at most 50 iterations. Each pixel stops at its own
    first step under the tolerance, so its result does not depend on the
    other pixels passed with it. A pixel that does not settle (pathological
    distortion, far outside the calibrated field of view, or not finite)
    gets a NaN row; the others go through.
    """
    px = np.asarray(pixels, dtype=float)
    if px.shape[-1] != 2:
        raise ValueError(f"expected pixel array with last axis 2, got {px.shape}")
    yd = (px[..., 1] - K.cy) / K.fy
    xd = (px[..., 0] - K.cx - K.skew * yd) / K.fx
    k1, k2, p1, p2, k3 = K.dist
    x, y = xd.copy(), yd.copy()
    finite = np.isfinite(xd) & np.isfinite(yd)
    moving = finite.copy()
    for _ in range(UNDISTORT_MAX_ITER):
        if not moving.any():
            break
        r2 = x * x + y * y
        radial = 1.0 + r2 * (k1 + r2 * (k2 + r2 * k3))
        dx = 2.0 * p1 * x * y + p2 * (r2 + 2.0 * x * x)
        dy = p1 * (r2 + 2.0 * y * y) + 2.0 * p2 * x * y
        x_new = (xd - dx) / radial
        y_new = (yd - dy) / radial
        settled = (np.abs(x_new - x) < UNDISTORT_TOL) & (np.abs(y_new - y) < UNDISTORT_TOL)
        x, y = np.where(moving, x_new, x), np.where(moving, y_new, y)
        moving &= ~settled
    xy = np.stack([x, y], axis=-1)
    xy[moving | ~finite] = np.nan
    return xy

