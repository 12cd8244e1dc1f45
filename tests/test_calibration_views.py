"""A calibration view whose corners admit no homography is dropped, not fatal."""

import logging
from dataclasses import replace

import numpy as np
import pytest

from planegaze.calibration import CornerTable, calibrate_camera
from planegaze.errors import IllConditionedError
from planegaze.synthetic import NoiseSpec, default_scene, generate_scene, perturb


@pytest.fixture(scope="module")
def rig_left():
    spec = default_scene(frames=0, seed=3001, calib_views=15)
    ds = perturb(generate_scene(spec), NoiseSpec(corner_px_sigma=0.2), seed=4001)
    return ds.calib_corners.take(ds.calib_corners.camera == "left"), ds.grid


def collinear_view(obs, view_id="calib999"):
    """Six corners of one lattice row, relabelled as an extra view."""
    row = obs.take(np.flatnonzero((obs.view_id == "calib000") & (obs.ij[:, 0] == 0))[:6])
    assert len(row) == 6
    return replace(row, view_id=np.full(len(row), view_id))


def test_collinear_view_is_dropped_with_warning(rig_left, caplog):
    obs, grid = rig_left
    clean = calibrate_camera(obs, grid, (1280, 720))
    with caplog.at_level(logging.WARNING, logger="planegaze.calibration"):
        result = calibrate_camera(CornerTable.concat([obs, collinear_view(obs)]), grid, (1280, 720))
    assert "calib999" not in result.view_id
    assert len(result.view_id) == 15
    assert any("calib999" in rec.getMessage() and "collinear" in rec.getMessage()
               for rec in caplog.records)
    assert result.intrinsics == clean.intrinsics
    assert result.rms_reprojection == clean.rms_reprojection
    assert np.array_equal(result.rotation[result.view_id == "calib003"],
                          clean.rotation[clean.view_id == "calib003"])


def test_too_few_views_left_still_raises(rig_left):
    obs, grid = rig_left
    one_view = obs.take(obs.view_id == "calib000")
    with pytest.raises(IllConditionedError):
        calibrate_camera(CornerTable.concat([one_view, collinear_view(obs)]), grid, (1280, 720))
