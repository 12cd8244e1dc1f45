"""Grouped finite-difference Jacobians in the LM solver."""

import numpy as np
import pytest

from planegaze import calibration, optimize
from planegaze.calibration import calibrate_camera
from planegaze.optimize import column_groups, fd_jacobian, levenberg_marquardt
from planegaze.synthetic import NoiseSpec, default_scene, generate_scene, perturb


@pytest.fixture(scope="module")
def rig_left():
    """Left-camera corners of a synthesized 15-view rig with 0.2 px noise."""
    spec = default_scene(frames=0, seed=3000, calib_views=15)
    ds = perturb(generate_scene(spec), NoiseSpec(corner_px_sigma=0.2), seed=4000)
    return [o for o in ds.calib_corners if o.camera_id == "left"], ds.grid


def spy_lm(monkeypatch, *, drop_groups=False):
    """Record every LM call made by calibration; optionally strip its row structure."""
    calls = []
    real = calibration.levenberg_marquardt

    def spy(residual, x0, *, plus=None, **kwargs):
        if drop_groups:
            kwargs.pop("jac_groups", None)
        evals = [0]

        def counted(x):
            evals[0] += 1
            return residual(x)

        result = real(counted, x0, plus=plus, **kwargs)
        calls.append({"residual": residual, "x0": x0, "plus": plus, "kwargs": kwargs,
                      "result": result, "evals": evals[0]})
        return result

    monkeypatch.setattr(calibration, "levenberg_marquardt", spy)
    return calls


def test_grouped_jacobian_equals_dense(monkeypatch, rig_left):
    obs, grid = rig_left
    calls = spy_lm(monkeypatch)
    calibrate_camera(obs, grid, (1280, 720))
    (call,) = calls
    residual, x0, plus = call["residual"], call["x0"], call["plus"]
    groups = call["kwargs"]["jac_groups"]
    assert x0.size == 9 + 6 * 15 and len(groups) == 9 + 6

    m, n = residual(x0).size, x0.size
    dense = column_groups(None, m, n)
    grouped = column_groups(groups, m, n)
    J0 = fd_jacobian(residual, x0, plus, dense, m)
    assert np.array_equal(fd_jacobian(residual, x0, plus, grouped, m), J0)

    step = levenberg_marquardt(residual, x0, plus=plus, jac_groups=groups, max_iter=1)
    r0 = residual(x0)
    assert step.iterations == 1 and step.cost < float(r0 @ r0)
    J1 = fd_jacobian(residual, step.x, plus, dense, m)
    assert np.array_equal(fd_jacobian(residual, step.x, plus, grouped, m), J1)
    assert not np.array_equal(J0, J1)


def test_calibration_identical_without_structure(monkeypatch, rig_left):
    obs, grid = rig_left
    grouped = calibrate_camera(obs, grid, (1280, 720))
    spy_lm(monkeypatch, drop_groups=True)
    dense = calibrate_camera(obs, grid, (1280, 720))
    assert grouped.intrinsics == dense.intrinsics
    assert grouped.rms_reprojection == dense.rms_reprojection
    assert grouped.per_view_rms == dense.per_view_rms
    assert grouped.per_view_poses.keys() == dense.per_view_poses.keys()
    for vid, pose in grouped.per_view_poses.items():
        assert np.array_equal(pose.rotation, dense.per_view_poses[vid].rotation)
        assert np.array_equal(pose.translation, dense.per_view_poses[vid].translation)


def test_residual_evals_per_iteration(monkeypatch, rig_left):
    obs, grid = rig_left
    per_jacobian = []
    real_fd = optimize.fd_jacobian

    def counting_fd(residual, *args):
        n = [0]

        def counted(x):
            n[0] += 1
            return residual(x)

        J = real_fd(counted, *args)
        per_jacobian.append(n[0])
        return J

    monkeypatch.setattr(optimize, "fd_jacobian", counting_fd)
    calls = spy_lm(monkeypatch)
    calibrate_camera(obs, grid, (1280, 720))
    (call,) = calls
    result = call["result"]
    assert result.residual_evals == call["evals"]
    assert len(per_jacobian) == result.iterations >= 1
    assert all(k <= 2 * (9 + 6) for k in per_jacobian)
    trial_steps = result.residual_evals - 1 - sum(per_jacobian)
    assert trial_steps >= 1
    assert result.residual_evals <= 1 + result.iterations * 2 * (9 + 6) + trial_steps


def test_residual_evals_counted_on_dense_problem():
    evals = [0]

    def residual(x):
        evals[0] += 1
        return np.array([x[0] - 1.0, 10.0 * (x[1] - x[0] ** 2)])

    result = levenberg_marquardt(residual, np.array([-1.2, 1.0]))
    assert result.reason != "max_iter"
    assert result.residual_evals == evals[0]


def test_column_groups_reject_bad_structure():
    with pytest.raises(ValueError, match="shares residual rows"):
        column_groups([[(0, [0, 1]), (1, [1, 2])]], 3, 2)
    with pytest.raises(ValueError, match="exactly once"):
        column_groups([[(0, slice(None))]], 3, 2)
    with pytest.raises(ValueError, match="exactly once"):
        column_groups([[(0, slice(None))], [(0, slice(None))], [(1, slice(None))]], 3, 2)
