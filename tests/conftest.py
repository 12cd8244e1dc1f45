"""Shared fixtures. Heavy synthetic datasets are session-scoped."""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from planegaze.calibration import CalibrationResult
from planegaze.geometry import RigidTransform
from planegaze.optimize import BlockJacobian
from planegaze.pipeline import CONVENTION_OFFSET, PredictionTable
from planegaze.synthetic import default_scene, generate_scene
from planegaze.triangulation import FaceTable, HeadPoint


def random_unit_vectors(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    from planegaze.geometry import rotation_from_axis_angle

    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return rotation_from_axis_angle(axis * rng.uniform(0, np.pi * 0.95))


def assert_same_table(got, want):
    """Every column equal, floats bit for bit; a file's line numbers are not compared."""
    for f in fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "line":
            continue
        if isinstance(b, np.ndarray):
            assert a.shape == b.shape and a.dtype.kind == b.dtype.kind, f.name
            assert a.tobytes() == b.tobytes() if b.dtype.kind == "f" else a.tolist() == b.tolist(), f.name
        else:
            assert a == b, f.name


def calibration_result(K, poses, rms=float("nan")) -> CalibrationResult:
    """A CalibrationResult of known view poses {view_id: RigidTransform}, views sorted, each view's rms NaN."""
    ids = sorted(poses)
    return CalibrationResult(K, np.array(ids, dtype=str), np.array([poses[v].rotation for v in ids]),
                             np.array([poses[v].translation for v in ids]), rms, np.full(len(ids), np.nan))


def view_poses(result: CalibrationResult) -> dict:
    """A CalibrationResult's view poses as {view_id: RigidTransform}."""
    return {v: RigidTransform(R, t) for v, R, t in zip(result.view_id.tolist(), result.rotation, result.translation)}


def all_shared(J) -> BlockJacobian:
    """A dense (residuals, parameters) Jacobian as a BlockJacobian: every column shared, and
    one view whose own block is empty."""
    return BlockJacobian(J[:, None, :], J[:, None, :0], np.zeros(len(J), dtype=int))


def face_table(rows) -> FaceTable:
    """A FaceTable of (frame_id, camera, bbox, eye midpoint) rows; a None source is NaN."""
    return FaceTable(np.array([r[0] for r in rows], dtype=str), np.array([r[1] for r in rows], dtype=str),
                     np.array([(np.nan,) * 4 if r[2] is None else r[2] for r in rows], dtype=float).reshape(-1, 4),
                     np.array([(np.nan,) * 2 if r[3] is None else r[3] for r in rows], dtype=float).reshape(-1, 2))


def heads_at(positions, source="bbox_center"):
    """A HeadPoint batch of good rows at ``positions`` (N, 3), or one row at a (3,) position."""
    p = np.reshape(np.asarray(positions, dtype=float), (-1, 3))
    return HeadPoint(p, np.zeros(len(p)), np.full(len(p), source), np.full(len(p), ""))


def prediction_table(yaw, pitch, convention=CONVENTION_OFFSET):
    """A PredictionTable of rows f0, f1, ... of method "m" with these angles (scalars make one row)."""
    yaw, pitch = np.atleast_1d(np.asarray(yaw, dtype=float)), np.atleast_1d(np.asarray(pitch, dtype=float))
    ids = np.array([f"f{k}" for k in range(len(yaw))], dtype=str)
    return PredictionTable(ids, np.full(len(yaw), "m"), yaw, pitch, convention, None)


@pytest.fixture(scope="session")
def small_scene():
    return default_scene(frames=60, seed=1234, calib_views=8)


@pytest.fixture(scope="session")
def small_dataset(small_scene):
    return generate_scene(small_scene)
