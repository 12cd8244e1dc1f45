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

import math
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


def _distort_jacobian(x, y, r2, radial, dist):
    """d (xd, yd) / d (x, y) of :func:`_distort`, from its ``r2`` and ``radial``: the
    symmetric block [[a, b], [b, d]], returned as (a, b, d)."""
    k1, k2, p1, p2, k3 = dist
    dr = 2.0 * (k1 + r2 * (2.0 * k2 + 3.0 * r2 * k3))  # 2 d radial / d r2
    drx, dry = dr * x, dr * y
    b = drx * y + 2.0 * (p1 * x + p2 * y)
    return radial + drx * x + 2.0 * p1 * y + 6.0 * p2 * x, b, radial + dry * y + 6.0 * p1 * y + 2.0 * p2 * x


def _inside_fold(r2, dist):
    """Whether ``r2`` lies inside the radial fold: below s, the smallest positive root of
    g(s) = 1 + 3 k1 s + 5 k2 s^2 + 7 k3 s^3, the slope of r radial(r^2) at r^2 = s.

    g(0) = 1, so that holds where g > 0 at ``r2`` and at each turning point of g below
    it. The turning points, the roots of g'(s) = a s^2 + b s + c, come from the quadratic
    formula in its form without cancellation: c / q and q / a.
    """
    k1, k2, _, _, k3 = dist

    def g(s):
        return 1.0 + s * (3.0 * k1 + s * (5.0 * k2 + s * 7.0 * k3))

    a, b, c = 21.0 * k3, 10.0 * k2, 3.0 * k1
    disc = b * b - 4.0 * a * c
    q = -0.5 * (b + math.copysign(math.sqrt(max(disc, 0.0)), b))
    # disc < 0: no real root; q = 0: none but s = 0; a = 0: only the linear root c / q
    turns = [c / q] + ([q / a] if a else []) if disc >= 0.0 and q else []
    limit = min([t for t in turns if t > 0.0 and g(t) <= 0.0], default=math.inf)
    return (g(r2) > 0.0) & (r2 < limit)


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
    (fx, fy, cx, cy), dist = xi[:4], xi[4:]
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
        a, b, d = _distort_jacobian(x, y, r2, radial, dist)
        D_uv = np.stack([a, b, b, d], axis=1).reshape(n, 2, 2) * f[:, None]  # d uv / d (x, y)
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

    Newton's method on :func:`_distort` and its Jacobian, started at the
    distorted point, tolerance 1e-10 on the step, at most 50 iterations.
    Each pixel stops at its own first step under the tolerance, so its
    result does not depend on the other pixels passed with it. A pixel
    whose preimage lies past the radial fold (see :func:`_inside_fold`),
    where r radial(r^2) turns over and the model stops being one-to-one,
    gets a NaN row, as does one that does not settle or is not finite;
    the others go through.
    """
    px = np.asarray(pixels, dtype=float)
    if px.shape[-1] != 2:
        raise ValueError(f"expected pixel array with last axis 2, got {px.shape}")
    x, y = xd, yd = (px[..., 0] - K.cx) / K.fx, (px[..., 1] - K.cy) / K.fy
    finite = np.isfinite(xd) & np.isfinite(yd)
    moving = finite.copy()
    with np.errstate(all="ignore"):  # a pixel with no preimage may run off to inf; it never settles
        for _ in range(UNDISTORT_MAX_ITER):
            if not moving.any():
                break
            ex, ey, r2, radial = _distort(x, y, K.dist)
            a, b, d = _distort_jacobian(x, y, r2, radial, K.dist)
            ex, ey, det = ex - xd, ey - yd, a * d - b * b
            step_x, step_y = (d * ex - b * ey) / det, (a * ey - b * ex) / det
            x, y = np.where(moving, x - step_x, x), np.where(moving, y - step_y, y)
            moving &= ~((np.abs(step_x) < UNDISTORT_TOL) & (np.abs(step_y) < UNDISTORT_TOL))
        inside = _inside_fold(x * x + y * y, K.dist)
    xy = np.stack([x, y], axis=-1)
    xy[moving | ~finite | ~inside] = np.nan
    return xy
