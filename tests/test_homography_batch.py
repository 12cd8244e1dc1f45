"""calibrate_camera fits its views' homographies as one batched DLT per corner count.

Each view's H must keep the bits of a one-view :func:`estimate_homography`,
whatever views share its batch, and a view whose corners admit no
homography is still dropped with its warning, in view order.
"""

import logging
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from planegaze import calibration
from planegaze.calibration import CornerTable, calibrate_camera, estimate_homography
from planegaze.grid import corner_position
from planegaze.synthetic import NoiseSpec, default_scene, generate_scene, perturb


@pytest.fixture(scope="module")
def mixed_views():
    """Six views whose ids sort as listed: 54, 6 collinear, 54, 3, 30 and 12 corners."""
    spec = default_scene(frames=0, seed=3002, calib_views=6)
    ds = perturb(generate_scene(spec), NoiseSpec(corner_px_sigma=0.2), seed=4002)
    obs = ds.calib_corners.take(ds.calib_corners.camera == "left")
    rng = np.random.default_rng(11)
    views = []
    for k, (name, count) in enumerate([("v0", 54), ("v1", "row"), ("v2", 54), ("v3", 3), ("v4", 30), ("v5", 12)]):
        rows = np.flatnonzero(obs.view_id == f"calib{k:03d}")
        assert len(rows) == 54
        if count == "row":
            rows = rows[obs.ij[rows, 0] == 0][:6]  # six corners of one lattice row
        else:
            rows = np.sort(rng.choice(rows, size=count, replace=False))
        view = obs.take(rows)
        views.append(replace(view, view_id=np.full(len(view), name)))
    # interleave the views' rows, so no view's corners come as one block
    table = CornerTable.concat(views)
    return table.take(rng.permutation(len(table))), ds.grid


def test_each_view_keeps_its_one_view_bits(mixed_views):
    obs, grid = mixed_views
    seen = []
    real = calibration.intrinsics_from_homographies

    def spy(homographies, *args, **kwargs):
        seen.extend(homographies)
        return real(homographies, *args, **kwargs)

    with mock.patch.object(calibration, "intrinsics_from_homographies", spy):
        result = calibrate_camera(obs, grid, (1280, 720))
    kept = ["v0", "v2", "v4", "v5"]
    assert result.view_id.tolist() == kept
    assert len(seen) == len(kept)
    for view, H in zip(kept, seen):
        rows = obs.view_id == view
        one = estimate_homography(corner_position(grid, *obs.ij[rows].T)[:, :2], obs.uv[rows])
        assert np.array_equal(H, one), view


def test_views_without_a_homography_are_dropped_in_view_order(mixed_views, caplog):
    obs, grid = mixed_views
    with caplog.at_level(logging.WARNING, logger="planegaze.calibration"):
        calibrate_camera(obs, grid, (1280, 720))
    assert [rec.getMessage() for rec in caplog.records] == [
        "dropping view 'v1': correspondence layout is rank-deficient (collinear points?)",
        "dropping view 'v3': only 3 corners detected",
    ]


def test_coincident_points_are_reported_per_view():
    """Coincident pixels in one view leave the other view of its batch intact."""
    rng = np.random.default_rng(4)
    P = rng.uniform(0, 1, (2, 6, 2))
    Q = rng.uniform(0, 600, (2, 6, 2))
    Q[1] = 300.0
    H, reason = calibration._homographies(P, Q)
    assert reason.tolist() == ["", "all points coincide"]
    assert np.array_equal(H[0], estimate_homography(P[0], Q[0]))
