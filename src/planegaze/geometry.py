"""Shared geometric substrate: rotations, rigid transforms, gaze angles.

Conventions used throughout the package:

* Camera frame: +X right, +Y down, +Z forward along the optical axis.
  A person looking straight into the camera has gaze direction (0, 0, -1).
* Workspace frame: the work surface is the plane Z = 0, +Z points up
  toward the heads of the people using it.
* Yaw/pitch: (0, 0) is gaze straight at the camera. Positive yaw swings
  the gaze toward camera -X, positive pitch tilts it up (camera -Y):

      d = (-cos(pitch) sin(yaw), -sin(pitch), -cos(pitch) cos(yaw))

* Angles are radians internally; degrees appear only in reported metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ROTATION_TOL = 1e-9


def as_vec3(v) -> np.ndarray:
    """Coerce to a float (..., 3) array, rejecting non-finite values."""
    a = np.asarray(v, dtype=float)
    if a.shape[-1] != 3:
        raise ValueError(f"expected 3-vector(s), got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("vector has non-finite components")
    return a


def yaw_pitch_to_dir(yaw, pitch) -> np.ndarray:
    """Gaze direction for yaw/pitch in radians.

    Accepts scalars or broadcastable arrays; returns shape (..., 3).
    Total function: any finite angles give a unit vector.
    """
    yaw = np.asarray(yaw, dtype=float)
    pitch = np.asarray(pitch, dtype=float)
    cp = np.cos(pitch)
    return np.stack(
        [-cp * np.sin(yaw), -np.sin(pitch), -cp * np.cos(yaw)],
        axis=-1,
    )


def directions_to_yaw_pitch(dirs) -> np.ndarray:
    """Canonical (yaw, pitch) in radians for unit direction(s), shape (..., 2).

    yaw in (-pi, pi], pitch in [-pi/2, pi/2]. The pitch is
    atan2(-dy, hypot(dx, dz)), which keeps its digits at the poles too.
    Directions within 1e-12 of the pitch poles get yaw = 0.
    """
    d = as_vec3(dirs)
    dx, dy, dz = d[..., 0], d[..., 1], d[..., 2]
    h = np.hypot(dx, dz)
    pitch = np.arctan2(-dy, h)
    yaw = np.where(h < 1e-12, 0.0, np.arctan2(-dx, -dz))
    return np.stack([yaw, pitch], axis=-1)


def angular_error_deg(d_est, d_gt) -> np.ndarray:
    """Angle between unit directions (N, 3), in degrees, in [0, 180], shape (N,)."""
    return np.degrees(np.arccos(np.clip(dot(as_vec3(d_est), as_vec3(d_gt)), -1.0, 1.0)))


def dot(a, b) -> np.ndarray:
    """Dot products over the last axis, shape (...).

    Each row is its own (1, n) @ (n, 1) product, which rounds as ``np.dot``
    does for a lone pair of vectors: a batch row matches the single-vector
    result and never depends on the rows around it.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def norm(a) -> np.ndarray:
    """Euclidean norms over the last axis, rounded as ``np.linalg.norm`` of one vector."""
    return np.sqrt(dot(a, a))


def unit(a) -> np.ndarray:
    """``a`` divided by its :func:`norm` over the last axis; no zero check."""
    return a / norm(a)[..., None]


def vecmat(v, M) -> np.ndarray:
    """``v @ M`` for every row of ``v`` (..., 3), each rounded as for one vector."""
    return (v[..., None, :] @ M)[..., 0, :]


# --- rotations ----------------------------------------------------------

def require_rotation(R: np.ndarray, tol: float = ROTATION_TOL) -> np.ndarray:
    """Validate a 3x3 proper rotation (orthonormal, det +1) within ``tol``."""
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got {R.shape}")
    if not np.all(np.isfinite(R)):
        raise ValueError("rotation has non-finite entries")
    err = np.abs(R.T @ R - np.eye(3)).max()
    if err > tol:
        raise ValueError(f"matrix is not orthonormal (|R'R - I| = {err:.3g})")
    det = np.linalg.det(R)
    if abs(det - 1.0) > tol:
        raise ValueError(f"matrix is not a proper rotation (det = {det:.12g})")
    return R


def nearest_rotation(M: np.ndarray) -> np.ndarray:
    """Closest rotation to each matrix of ``M`` (..., 3, 3) in Frobenius norm (SVD projection).

    A matrix whose projection U Vt is a reflection has U's last column flipped.
    """
    U, _, Vt = np.linalg.svd(np.asarray(M, dtype=float))
    R = U @ Vt
    flip = np.linalg.det(R) < 0
    U[flip, :, -1] *= -1
    R[flip] = U[flip] @ Vt[flip]
    return R


def rotation_from_axis_angle(rvec) -> np.ndarray:
    """Rodrigues map. ``rvec`` may be (3,) or (N, 3); result (3,3) or (N,3,3).

    Uses series expansions of sin(t)/t and (1-cos t)/t^2 below 1e-8 so the
    map is smooth through zero. The pose solvers' retraction applies it to
    each step's rotation increments; smoothness keeps
    ``optimize.fd_jacobian``, their test oracle, accurate near zero.
    """
    r = np.asarray(rvec, dtype=float)
    single = r.ndim == 1
    r = np.atleast_2d(r)
    theta = np.linalg.norm(r, axis=1)
    t2 = theta * theta
    small = theta < 1e-8
    a = np.where(small, 1.0 - t2 / 6.0, np.sin(theta) / np.where(small, 1.0, theta))
    b = np.where(small, 0.5 - t2 / 24.0, (1.0 - np.cos(theta)) / np.where(small, 1.0, t2))
    K = np.zeros((r.shape[0], 3, 3))  # skew matrix [r]x
    K[:, 0, 1], K[:, 0, 2], K[:, 1, 2] = -r[:, 2], r[:, 1], -r[:, 0]
    K[:, 1, 0], K[:, 2, 0], K[:, 2, 1] = r[:, 2], -r[:, 1], r[:, 0]
    R = np.eye(3)[None] + a[:, None, None] * K + b[:, None, None] * (K @ K)
    return R[0] if single else R


@dataclass(frozen=True)
class RigidTransform:
    """Rigid motion x -> R x + t, with R checked to be a proper rotation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        R = require_rotation(self.rotation).copy()
        t = as_vec3(self.translation).reshape(3).copy()
        R.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    def apply_points(self, P) -> np.ndarray:
        """R p + t for every row p of ``P`` (..., 3), each rounded as for one point."""
        return vecmat(np.asarray(P, dtype=float), self.rotation.T) + self.translation

    def compose(self, inner: "RigidTransform") -> "RigidTransform":
        """Transform equivalent to applying ``inner`` first, then ``self``."""
        return RigidTransform(
            self.rotation @ inner.rotation,
            self.rotation @ inner.translation + self.translation,
        )

    def inverse(self) -> "RigidTransform":
        return RigidTransform(
            self.rotation.T,
            -(self.rotation.T @ self.translation),
        )
