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

from .errors import BehindCameraError, NotInvertibleError
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
        """(fx, fy, cx, cy, [skew,] k1, k2, p1, p2, k3): the layout of :func:`project_packed`."""
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
    return _pixels(Xc[..., :2] / z[..., None], K.fx, K.fy, K.cx, K.cy, K.skew, K.dist)


def project_packed(xi, rvecs, tvecs, view_idx, obj) -> np.ndarray:
    """Project board points of many views under packed parameters, shape (N, 2).

    ``xi`` is laid out as :meth:`CameraIntrinsics.packed`. Point n lies at
    ``obj[n]`` on the board of view ``view_idx[n]``, posed by axis-angle
    ``rvecs`` and ``tvecs`` (one row per view). Points behind the camera
    are clamped to z = 1e-9 instead of raising, so a solver's excursions
    show as large residuals.
    """
    fx, fy, cx, cy = xi[:4]
    skew = xi[4] if len(xi) == 10 else 0.0
    R = rotation_from_axis_angle(rvecs)
    Xc = np.einsum("nij,nj->ni", R[view_idx], obj) + tvecs[view_idx]
    z = np.maximum(Xc[:, 2], 1e-9)
    return _pixels(Xc[:, :2] / z[:, None], fx, fy, cx, cy, skew, xi[-5:])


def _pixels(xy: np.ndarray, fx, fy, cx, cy, skew, dist) -> np.ndarray:
    xd = distort_normalized(xy, dist)
    u = fx * xd[..., 0] + skew * xd[..., 1] + cx
    v = fy * xd[..., 1] + cy
    return np.stack([u, v], axis=-1)


def project_point(K: CameraIntrinsics, pose: RigidTransform, X) -> tuple[float, float]:
    """Single-point convenience wrapper around :func:`project_points`."""
    uv = project_points(K, pose, np.asarray(X, dtype=float).reshape(3))
    return float(uv[0]), float(uv[1])


def undistort_pixels(K: CameraIntrinsics, pixels) -> np.ndarray:
    """Invert distortion for pixels, returning normalized coordinates (..., 2).

    Fixed-point iteration on the distorted normalized coordinates,
    tolerance 1e-10, at most 50 iterations. Each pixel stops at its own
    first step under the tolerance, so its result does not depend on the
    other pixels passed with it. Raises NotInvertibleError when the
    iteration fails to settle for any pixel (pathological distortion or
    far outside the calibrated field of view).
    """
    px = np.asarray(pixels, dtype=float)
    if px.shape[-1] != 2:
        raise ValueError(f"expected pixel array with last axis 2, got {px.shape}")
    yd = (px[..., 1] - K.cy) / K.fy
    xd = (px[..., 0] - K.cx - K.skew * yd) / K.fx
    k1, k2, p1, p2, k3 = K.dist
    x, y = xd.copy(), yd.copy()
    moving = np.ones(xd.shape, dtype=bool)
    for _ in range(UNDISTORT_MAX_ITER):
        r2 = x * x + y * y
        radial = 1.0 + r2 * (k1 + r2 * (k2 + r2 * k3))
        dx = 2.0 * p1 * x * y + p2 * (r2 + 2.0 * x * x)
        dy = p1 * (r2 + 2.0 * y * y) + 2.0 * p2 * x * y
        x_new = (xd - dx) / radial
        y_new = (yd - dy) / radial
        settled = (np.abs(x_new - x) < UNDISTORT_TOL) & (np.abs(y_new - y) < UNDISTORT_TOL)
        x, y = np.where(moving, x_new, x), np.where(moving, y_new, y)
        moving &= ~settled
        if not moving.any():
            return np.stack([x, y], axis=-1)
    raise NotInvertibleError(
        f"distortion inversion did not converge within {UNDISTORT_MAX_ITER} iterations"
    )


def undistort_pixel(K: CameraIntrinsics, pixel) -> tuple[float, float]:
    """Single-pixel convenience wrapper around :func:`undistort_pixels`."""
    xy = undistort_pixels(K, np.asarray(pixel, dtype=float).reshape(2))
    return float(xy[0]), float(xy[1])
