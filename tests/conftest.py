"""Shared fixtures. Heavy synthetic datasets are session-scoped."""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from planegaze.pipeline import GazePrediction
from planegaze.synthetic import default_scene, generate_scene
from planegaze.triangulation import FaceObservation


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


def face_observations(faces):
    """The rows of a FaceTable as FaceObservations keyed by (frame_id, camera)."""
    out = {}
    for fid, cam, bbox, eye in zip(faces.frame_id.tolist(), faces.camera.tolist(), faces.bbox, faces.eye):
        out[(fid, cam)] = FaceObservation(fid, cam, bbox=None if np.isnan(bbox[0]) else tuple(bbox.tolist()),
                                          eye_midpoint=None if np.isnan(eye[0]) else tuple(eye.tolist()))
    return out


def gaze_predictions(table):
    """The rows of a PredictionTable as GazePredictions, in row order."""
    return [GazePrediction(fid, m, yaw, pitch, table.convention)
            for fid, m, yaw, pitch in zip(table.frame_id.tolist(), table.method.tolist(),
                                          table.yaw.tolist(), table.pitch.tolist())]


@pytest.fixture(scope="session")
def small_scene():
    return default_scene(frames=60, seed=1234, calib_views=8)


@pytest.fixture(scope="session")
def small_dataset(small_scene):
    return generate_scene(small_scene)
