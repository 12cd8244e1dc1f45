"""Pinhole camera with 5-coefficient radial-tangential distortion.

The distortion model, applied to normalized coordinates (x, y) = (X/Z, Y/Z):

    r2 = x^2 + y^2
    radial = 1 + k1 r2 + k2 r2^2 + k3 r2^3
    xd = x * radial + 2 p1 x y + p2 (r2 + 2 x^2)
    yd = y * radial + p1 (r2 + 2 y^2) + 2 p2 x y
    u = fx xd + cx
    v = fy yd + cy

Point-level only: the pipeline never remaps whole images.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import RigidTransform, as_vec3

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
                [self.fx, 0.0, self.cx],
                [0.0, self.fy, self.cy],
                [0.0, 0.0, 1.0],
            ]
        )

    def packed(self) -> np.ndarray:
        """(fx, fy, cx, cy, k1, k2, p1, p2, k3): the layout of :func:`project_packed_jacobian`."""
        return np.array([self.fx, self.fy, self.cx, self.cy, *self.dist])

    @classmethod
    def from_packed(cls, xi, image_size) -> "CameraIntrinsics":
        """Inverse of :meth:`packed`."""
        fx, fy, cx, cy = (float(v) for v in xi[:4])
        return cls(fx, fy, cx, cy, tuple(xi[4:]), tuple(image_size))


def _distort(x, y, dist):
    """The distortion model at normalized coordinates ``x``, ``y``: (xd, yd, r2, radial)."""
    k1, k2, p1, p2, k3 = dist
    r2 = x * x + y * y
    radial = 1.0 + r2 * (k1 + r2 * (k2 + r2 * k3))
    xd = x * radial + 2.0 * p1 * x * y + p2 * (r2 + 2.0 * x * x)
    yd = y * radial + p1 * (r2 + 2.0 * y * y) + 2.0 * p2 * x * y
    return xd, yd, r2, radial


def _pixels(xd, yd, fx, fy, cx, cy) -> np.ndarray:
    """Pixels (..., 2) of distorted normalized coordinates."""
    return np.stack([fx * xd + cx, fy * yd + cy], axis=-1)


def project_points(K: CameraIntrinsics, pose: RigidTransform, X) -> np.ndarray:
    """Project camera- or world-frame points through ``pose`` into pixels.

    ``X`` has shape (..., 3); result has shape (..., 2). A point that
    lands at z <= 1e-9 after the pose, behind the camera, gets a NaN row.
    """
    Xc = pose.apply_points(as_vec3(X))
    behind = Xc[..., 2] <= 1e-9
    z = np.where(behind, 1.0, Xc[..., 2])
    xd, yd, _, _ = _distort(Xc[..., 0] / z, Xc[..., 1] / z, K.dist)
    uv = _pixels(xd, yd, K.fx, K.fy, K.cx, K.cy)
    uv[behind] = np.nan
    return uv


def project_packed_jacobian(xi, rotations, tvecs, view_idx, obj):
    """Project board points of many views under packed parameters, with derivatives, for the solvers.

    ``xi`` is laid out as :meth:`CameraIntrinsics.packed`. Point n lies at
    ``obj[n]`` on the board of view ``view_idx[n]``, posed by ``rotations``
    (V, 3, 3) and ``tvecs`` (V, 3), one per view. Points behind the camera
    are clamped to z = 1e-9, not marked NaN as :func:`project_points`
    marks them, so a solver's excursions show as large residuals.

    Returns ``(uv, jacobian)``: the pixels (N, 2), and a function that
    builds the derivatives from this projection's intermediates, for a
    solver to call only when it needs them. ``jacobian()`` returns
    ``(d_xi, d_pose)``: d uv / d xi, (N, 2, 9), and d uv / d the
    increment of each point's own view pose, (N, 2, 6).
    ``jacobian(with_xi=False)`` returns ``(None, d_pose)`` and builds no
    d uv / d xi. Both are views of (2, k, N) buffers, so each entry is
    computed as one contiguous (N,) row. The increment (d rvec, d t) is the
    one the solvers' retraction applies, R <- exp(d rvec) R and t <- t + d t,
    under which the camera-frame point moves by d rvec x (R X) + d t
    (Gallego & Yezzi 2015).
    """
    p = np.einsum("nij,nj->ni", rotations[view_idx], obj)  # R X
    Xc = p + tvecs[view_idx]
    fx, fy, cx, cy = xi[:4]
    k1, k2, p1, p2, k3 = dist = xi[4:]
    z = np.maximum(Xc[:, 2], 1e-9)
    xy = Xc[:, :2] / z[:, None]
    (x, y), n = xy.T, len(xy)
    xd, yd, r2, radial = _distort(x, y, dist)
    uv = _pixels(xd, yd, fx, fy, cx, cy)

    def jacobian(with_xi=True):
        f = np.array([fx, fy])  # d (u, v) / d (xd, yd) is diag(fx, fy)
        d_xi = None
        if with_xi:
            r6, xy2 = r2 ** 3, 2.0 * x * y
            # d (xd, yd) / d (k1, k2, p1, p2, k3)
            D = np.array([[x * r2, x * r2 * r2, xy2, r2 + 2.0 * x * x, x * r6],
                          [y * r2, y * r2 * r2, r2 + 2.0 * y * y, xy2, y * r6]])
            J = np.zeros((2, 9, n))
            J[0, 0], J[1, 1], J[0, 2], J[1, 3] = xd, yd, 1.0, 1.0
            J[:, 4:] = D * f[:, None, None]
            d_xi = J.transpose(2, 0, 1)
        # d (xd, yd) / d (x, y); dr = 2 d radial / d r2
        dr = 2.0 * (k1 + r2 * (2.0 * k2 + 3.0 * r2 * k3))
        drx, dry = dr * x, dr * y
        off = drx * y + 2.0 * (p1 * x + p2 * y)
        D_xy = np.stack([radial + drx * x + 2.0 * p1 * y + 6.0 * p2 * x, off,
                         off, radial + dry * y + 6.0 * p1 * y + 2.0 * p2 * x], axis=1).reshape(n, 2, 2)
        D_uv = D_xy * f[:, None]  # d uv / d (x, y)
        # d uv / d Xc = M: d (x, y) / d Xc is [I | -(x, y)] / z; d uv / d rvec = p x M, row by row.
        # D_uv stays (N, 2, 2) C-ordered for the product with xy: the stacked matmul rounds by layout
        J = np.empty((2, 6, n))
        M = J[:, 3:]
        M[:, :2] = D_uv.transpose(1, 2, 0)
        np.negative((D_uv @ xy[:, :, None])[:, :, 0].T, out=M[:, 2])
        M /= z
        (px, py, pz), (mx, my, mz) = p.T, M.transpose(1, 0, 2)
        np.subtract(py * mz, pz * my, out=J[:, 0])
        np.subtract(pz * mx, px * mz, out=J[:, 1])
        np.subtract(px * my, py * mx, out=J[:, 2])
        return d_xi, J.transpose(2, 0, 1)

    return uv, jacobian


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
    xd = (px[..., 0] - K.cx) / K.fx
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

