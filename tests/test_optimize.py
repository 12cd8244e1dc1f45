"""Analytic Jacobians in the LM solver, held to dense finite differences, and
the block (Schur-complement) step, held to the dense normal equations."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planegaze import calibration, optimize
from planegaze.calibration import (
    CornerTable,
    calibrate_camera,
    calibrate_stereo,
    refine_calibration,
)
from planegaze.camera import CameraIntrinsics, project_packed_jacobian, project_points
from planegaze.errors import NoConvergenceError
from planegaze.geometry import RigidTransform, require_rotation, rotation_from_axis_angle
from planegaze.grid import GridConfig
from planegaze.optimize import (
    FD_REL_STEP,
    MAX_ITER,
    BlockJacobian,
    _BlockSystem,
    _view_slots,
    fd_jacobian,
    levenberg_marquardt,
)
from planegaze.plane import estimate_plane_pose
from planegaze.synthetic import NoiseSpec, default_scene, generate_scene, perturb

from conftest import all_shared, calibration_result

GRID = GridConfig(square_size=0.03, rows=5, cols=7)


@pytest.fixture(scope="module")
def rig():
    """A synthesized 15-view rig with 0.2 px corner noise."""
    spec = default_scene(frames=0, seed=3000, calib_views=15)
    return perturb(generate_scene(spec), NoiseSpec(corner_px_sigma=0.2), seed=4000)


class Captured(Exception):
    """Raised by :func:`capture_problem` in place of solving."""

    def __init__(self, model, x0, plus, n_increments):
        super().__init__("captured")
        self.problem = (model, x0, plus, n_increments)


def capture_problem(solve):
    """The (model, x0, plus, n_increments) that ``solve()`` hands to the LM solver first."""

    def capture(model, x0, *, plus, n_increments):
        raise Captured(model, x0, plus, n_increments)

    with mock.patch.object(calibration, "levenberg_marquardt", capture):
        with pytest.raises(Captured) as info:
            solve()
    return info.value.problem


def densify(jac, n_params):
    """The dense (residuals, parameters) Jacobian of a :class:`BlockJacobian`."""
    n, k, m = jac.shared.shape
    p = jac.own.shape[2]
    J = np.zeros((n, k, n_params))
    J[:, :, :m] = jac.shared
    J[np.arange(n)[:, None], :, m + p * jac.view[:, None] + np.arange(p)] = jac.own.transpose(0, 2, 1)
    return J.reshape(n * k, n_params)


def assert_jacobian_matches_fd(model, x0, plus, n_increments):
    """The model's analytic J equals central differences of its r, stepping each of the
    ``n_increments`` increment entries, to 1e-6 of each column's largest entry, plus the
    differences' own rounding noise, eps |r| / step."""
    r, jacobian = model(x0)
    J = densify(jacobian(), n_increments)
    J_fd = fd_jacobian(lambda x: model(x)[0], x0, plus, n_increments)
    assert J.shape == J_fd.shape == (r.size, n_increments)
    step = FD_REL_STEP * np.maximum(np.abs(x0[:n_increments]), 1.0)
    tol = 1e-6 * np.abs(J_fd).max(axis=0) + 10 * np.finfo(float).eps * np.abs(r).max() / step
    assert np.all(np.abs(J - J_fd) <= tol)


def random_intrinsics(rng, k1=(-0.4, 0.4)):
    return CameraIntrinsics(
        fx=rng.uniform(300, 1500), fy=rng.uniform(300, 1500),
        cx=rng.uniform(560, 720), cy=rng.uniform(300, 420),
        dist=(rng.uniform(*k1), rng.uniform(-0.2, 0.2), rng.uniform(-0.01, 0.01),
              rng.uniform(-0.01, 0.01), rng.uniform(-0.1, 0.1)),
        image_size=(1280, 720),
    )


def random_pose(rng, max_angle=3.0, z=(0.6, 1.5)):
    axis = rng.normal(size=3)
    R = rotation_from_axis_angle(axis / np.linalg.norm(axis) * rng.uniform(0, max_angle))
    return RigidTransform(R, [rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2), rng.uniform(*z)])


def random_corners(rng, view_id, camera_id):
    """A random subset of at least 4 lattice corners, at arbitrary pixels (a
    residual's Jacobian does not depend on the observed pixels)."""
    lattice = np.array(GRID.corner_indices())
    keep = np.sort(rng.choice(len(lattice), size=rng.integers(4, len(lattice) + 1), replace=False))
    n = len(keep)
    return CornerTable(np.full(n, view_id), np.full(n, camera_id), lattice[keep], rng.uniform(0, 700, (n, 2)))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_views=st.integers(1, 4))
def test_calibration_jacobian_equals_fd(seed, n_views):
    rng = np.random.default_rng(seed)
    K = random_intrinsics(rng)
    views = [f"v{k}" for k in range(n_views)]
    obs = CornerTable.concat([random_corners(rng, v, "left") for v in views])
    init = calibration_result(K, {v: random_pose(rng) for v in views})
    model, x0, plus, n_increments = capture_problem(lambda: refine_calibration(obs, GRID, init))
    assert (x0.size, n_increments) == (9 + 12 * n_views, 9 + 6 * n_views)
    assert_jacobian_matches_fd(model, x0, plus, n_increments)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_views=st.integers(1, 4))
def test_stereo_jacobian_equals_fd(seed, n_views):
    rng = np.random.default_rng(seed)
    rel = random_pose(rng, max_angle=0.3, z=(-0.1, 0.1))
    views = [f"v{k}" for k in range(n_views)]
    left_poses = {v: random_pose(rng, max_angle=1.0) for v in views}
    left = calibration_result(random_intrinsics(rng), left_poses, 0.0)
    right = calibration_result(random_intrinsics(rng), {v: rel.compose(pose) for v, pose in left_poses.items()}, 0.0)
    obs = CornerTable.concat([random_corners(rng, v, "right") for v in views])
    model, x0, plus, n_increments = capture_problem(lambda: calibrate_stereo(left, right, obs, GRID))
    assert (x0.size, n_increments) == (12, 6)
    assert_jacobian_matches_fd(model, x0, plus, n_increments)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_plane_jacobian_equals_fd(seed):
    rng = np.random.default_rng(seed)
    K = random_intrinsics(rng, k1=(-0.1, 0.1))
    pose = random_pose(rng, max_angle=0.8)
    ij = np.array(GRID.corner_indices())
    uv = project_points(K, pose, np.column_stack([GRID.square_size * ij, np.zeros(len(ij))]))
    corners = CornerTable(np.full(len(ij), "plane"), np.full(len(ij), "left"), ij, uv)
    model, x0, plus, n_increments = capture_problem(lambda: estimate_plane_pose(corners, GRID, K))
    assert (x0.size, n_increments) == (12, 6)
    assert_jacobian_matches_fd(model, x0, plus, n_increments)


def skew_exp(w):
    """exp([w]x) by its power series, independent of the Rodrigues formula."""
    K = np.cross(np.eye(3), w)  # [w]x: row i is e_i x w, as e_i . (w x v) = v . (e_i x w)
    term, out = np.eye(3), np.eye(3)
    for k in range(1, 40):
        term = term @ K / k
        out = out + term
    return out


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_shared=st.sampled_from([0, 9, 10]), n_views=st.integers(1, 4))
def test_retraction_composes_the_increment_on_the_left(seed, n_shared, n_views):
    """One retraction turns each view's R = exp(rvec) into exp(d rvec) exp(rvec) to 1e-12, and
    adds the shared entries' and the translations' steps."""
    rng = np.random.default_rng(seed)
    rvec = rng.normal(size=(n_views, 3))
    x = np.concatenate([rng.normal(size=n_shared), rotation_from_axis_angle(rvec).ravel(),
                        rng.normal(size=3 * n_views)])
    dx = rng.normal(size=n_shared + 6 * n_views)
    out = calibration._retract(x, dx, n_shared)
    (R, t), (R_out, t_out) = calibration._poses(x, n_shared), calibration._poses(out, n_shared)
    steps = dx[n_shared:].reshape(-1, 6)
    want = np.array([skew_exp(d) @ skew_exp(w) for d, w in zip(steps[:, :3], rvec)])
    assert np.abs(R_out - want).max() <= 1e-12
    assert np.array_equal(t_out, t + steps[:, 3:])
    assert np.array_equal(out[:n_shared], x[:n_shared] + dx[:n_shared])
    assert np.array_equal(R, rotation_from_axis_angle(rvec))  # x itself is left as it was


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_chained_retractions_stay_rotations(seed):
    """MAX_ITER retractions in a row, each turning every view by 1e-8 to 1 rad, leave each
    rotation orthonormal with determinant 1 to 1e-12, with no re-orthonormalization."""
    rng = np.random.default_rng(seed)
    n_views = 4
    R0 = rotation_from_axis_angle(rng.normal(size=(n_views, 3)))
    x = np.concatenate([rng.normal(size=9), R0.ravel(), rng.normal(size=3 * n_views)])
    for _ in range(MAX_ITER):
        dx = rng.normal(size=9 + 6 * n_views)
        drot = dx[9:].reshape(-1, 6)[:, :3]
        drot *= (10.0 ** rng.uniform(-8, 0, n_views) / np.linalg.norm(drot, axis=1))[:, None]
        x = calibration._retract(x, dx, 9)
    R, _ = calibration._poses(x, 9)
    assert np.abs(R.transpose(0, 2, 1) @ R - np.eye(3)).max() <= 1e-12
    assert np.abs(np.linalg.det(R) - 1.0).max() <= 1e-12


def test_refined_rotations_are_rotations(rig):
    """The rotations refine_calibration returns are the solver's matrices as they are: each
    passes require_rotation."""
    for cam in ("left", "right"):
        fit = calibrate_camera(rig.calib_corners.take(rig.calib_corners.camera == cam), rig.grid, (1280, 720))
        assert fit.rotation.shape == (len(fit.view_id), 3, 3)
        for R in fit.rotation:
            require_rotation(R)


def test_kernel_pixels_equal_project_points():
    """The kernel's pixels are each view's project_points to 1e-9 px; not bit for bit,
    since the kernel sums R X in another order than project_points does."""
    rng = np.random.default_rng(9)
    poses = [random_pose(rng) for _ in range(3)]
    rotations = np.array([T.rotation for T in poses])
    tvecs = np.array([T.translation for T in poses])
    view_idx = rng.integers(0, 3, 40)
    obj = np.column_stack([rng.uniform(0, 0.2, (40, 2)), np.zeros(40)])
    for K in (random_intrinsics(rng), random_intrinsics(rng)):
        xi = K.packed()
        uv, jacobian = project_packed_jacobian(xi, rotations, tvecs, view_idx, obj)
        for v, pose in enumerate(poses):
            rows = view_idx == v
            assert np.abs(uv[rows] - project_points(K, pose, obj[rows])).max() <= 1e-9
        d_xi, d_pose = jacobian()
        assert d_xi.shape == (40, 2, 9) and d_pose.shape == (40, 2, 6)
        no_xi, same_pose = jacobian(with_xi=False)
        assert no_xi is None and np.array_equal(same_pose, d_pose)


def test_jacobian_costs_no_residual_evaluations(rig):
    """Every solve of a rig calls its model once at the start and once per trial
    step, and nothing projects the corners apart from those calls."""
    calls = []
    projections = [0]
    real, real_project = calibration.levenberg_marquardt, calibration.project_packed_jacobian

    def project(*args):
        projections[0] += 1
        return real_project(*args)

    def spy(model, x0, *, plus, **kwargs):
        n = {"model": 0, "plus": 0}

        def counted(name, fn):
            def call(*args):
                n[name] += 1
                return fn(*args)
            return call

        result = real(counted("model", model), x0, plus=counted("plus", plus), **kwargs)
        calls.append((result, n))
        return result

    with mock.patch.object(calibration, "levenberg_marquardt", spy), \
            mock.patch.object(calibration, "project_packed_jacobian", project):
        cams = [
            calibrate_camera(rig.calib_corners.take(rig.calib_corners.camera == cam), rig.grid, (1280, 720))
            for cam in ("left", "right")
        ]
        calibrate_stereo(*cams, rig.calib_corners, rig.grid)
        estimate_plane_pose(rig.plane_corners, rig.grid, cams[0].intrinsics)

    assert len(calls) == 4
    for result, n in calls:
        assert result.iterations >= 1
        assert result.residual_evals == n["model"] == 1 + n["plus"]
    assert projections[0] == sum(n["model"] for _, n in calls)


def counting_builds(model, builds, costs):
    """``model`` with each of its Jacobian builds counted in ``builds[0]``, and each
    call's cost appended to ``costs``."""

    def counted(x):
        r, jacobian = model(x)
        costs.append(float(r @ r))

        def build():
            builds[0] += 1
            return jacobian()

        return r, build

    return counted


def builds_expected(costs, reason):
    """1 + the accepted steps that did not end the solve, replayed from the cost of each model call.

    A trial is accepted when its cost is below the current one. Only a
    ``gradient`` stop comes after a J built on the last accepted step.
    """
    current, accepted, last_accepted = costs[0], 0, False
    for cost in costs[1:]:
        last_accepted = cost < current
        if last_accepted:
            current, accepted = cost, accepted + 1
    return 1 + accepted - (last_accepted and reason != "gradient")


def test_jacobian_built_once_per_accepted_step(rig):
    """Each solve of a rig builds J once at the start and once after each accepted step that
    does not end it; rejected trials and the last step build none. The solves' model calls
    and iterations are those of the solver that built J on every call.

    From closed-form starts a damping of 1e-6 takes nearly Gauss-Newton steps, and each
    solve ends at its first step that changes the cost by less than 1e-6 of itself: the
    left intrinsics' after 5 iterations, of which the first rejects two trials (5 accepted
    steps, 8 calls), the right intrinsics' after 4, the stereo pose's after 2 and the plane
    pose's after 3, with no trial rejected."""
    solves = []
    real = calibration.levenberg_marquardt

    def spy(model, x0, *, plus, **kwargs):
        builds, costs = [0], []
        result = real(counting_builds(model, builds, costs), x0, plus=plus, **kwargs)
        solves.append((result, builds[0], costs))
        return result

    with mock.patch.object(calibration, "levenberg_marquardt", spy):
        cams = [
            calibrate_camera(rig.calib_corners.take(rig.calib_corners.camera == cam), rig.grid, (1280, 720))
            for cam in ("left", "right")
        ]
        calibrate_stereo(*cams, rig.calib_corners, rig.grid)
        estimate_plane_pose(rig.plane_corners, rig.grid, cams[0].intrinsics)

    assert [(res.residual_evals, res.iterations) for res, _, _ in solves] == [(8, 5), (5, 4), (3, 2), (4, 3)]
    for result, builds, costs in solves:
        assert len(costs) == result.residual_evals
        assert builds == builds_expected(costs, result.reason) == result.iterations


def test_the_cost_tolerance_stops_below_what_the_corners_resolve(rig):
    """Solved again to a cost tolerance of 1e-12 from a damping of 1e-3, this rig's fx, fy
    and baseline move by less than 2e-6 relative. Over calib-rig's 48 rigs the tolerance of
    1e-6 and the damping of 1e-6 moved them by at most 5.4e-7; a tolerance of 1e-2 moves
    them here by 8.5e-6 to 9.1e-6."""

    def solve():
        corners = rig.calib_corners
        left, right = (calibrate_camera(corners.take(corners.camera == cam), rig.grid, (1280, 720))
                       for cam in ("left", "right"))
        stereo = calibrate_stereo(left, right, corners, rig.grid)
        return np.array([stereo.left.fx, stereo.left.fy, np.linalg.norm(stereo.right_from_left.translation)])

    fitted = solve()
    with mock.patch.multiple(optimize, COST_REL_TOL=1e-12, DAMPING_INIT=1e-3):
        polished = solve()
    assert np.abs(fitted / polished - 1).max() < 2e-6


def test_rejected_trials_build_no_jacobian():
    """On a dense problem whose solve rejects trials, those trials build no J."""
    builds, costs = [0], []
    model = counting_builds(rosenbrock_model, builds, costs)
    result = levenberg_marquardt(model, np.array([-1.2, 1.0]), plus=_add, n_increments=2)
    assert result.reason != "max_iter"
    assert builds[0] == builds_expected(costs, result.reason) < result.residual_evals - 1


def test_pose_solves_build_no_intrinsics_jacobian(rig):
    """Stereo and plane-pose solves hold the intrinsics fixed: their Jacobians never include d uv / d xi."""
    asked = []
    real_project = calibration.project_packed_jacobian

    def project(*args):
        uv, jacobian = real_project(*args)

        def build(with_xi=True):
            asked.append(with_xi)
            return jacobian(with_xi=with_xi)

        return uv, build

    with mock.patch.object(calibration, "project_packed_jacobian", project):
        left = calibrate_camera(rig.calib_corners.take(rig.calib_corners.camera == "left"), rig.grid, (1280, 720))
        right = calibrate_camera(rig.calib_corners.take(rig.calib_corners.camera == "right"), rig.grid, (1280, 720))
        assert asked and all(asked)
        asked.clear()
        calibrate_stereo(left, right, rig.calib_corners, rig.grid)
        estimate_plane_pose(rig.plane_corners, rig.grid, left.intrinsics)
    assert asked and not any(asked)


def rosenbrock(x):
    return np.array([x[0] - 1.0, 10.0 * (x[1] - x[0] ** 2)])


def _add(x, dx):
    return x + dx


def rosenbrock_model(x):
    return rosenbrock(x), lambda: all_shared(fd_jacobian(rosenbrock, x, _add, 2))


def test_residual_evals_counted_on_dense_problem():
    evals = [0]

    def model(x):
        evals[0] += 1
        return rosenbrock_model(x)

    result = levenberg_marquardt(model, np.array([-1.2, 1.0]), plus=_add, n_increments=2)
    assert result.reason != "max_iter"
    assert result.residual_evals == evals[0]


def test_result_residual_is_the_model_residual_at_x():
    """``LMResult.residual`` is the model's r at the returned x, bit for bit, both
    for a normal stop and for the best iterate a NoConvergenceError carries."""

    result = levenberg_marquardt(rosenbrock_model, np.array([-1.2, 1.0]), plus=_add, n_increments=2)
    assert result.reason != "diverged"
    assert np.array_equal(result.residual, rosenbrock(result.x))

    def wrong_sign(x):
        # a Jacobian of the wrong sign makes every step uphill, down to the damping cap
        return x - 1.0, lambda: all_shared(-1e-6 * np.eye(3))

    with pytest.raises(NoConvergenceError) as info:
        levenberg_marquardt(wrong_sign, np.array([0.0, 2.0, 5.0]), plus=_add, n_increments=3)
    best = info.value.best
    assert best.reason == "diverged"
    assert np.array_equal(best.residual, wrong_sign(best.x)[0])


@settings(max_examples=200, deadline=None)
@given(
    m=st.sampled_from([0, 9, 10]),
    counts=st.lists(st.integers(12, 40), min_size=1, max_size=4),
    log_lam=st.floats(-12, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_schur_step_equals_dense_step(m, counts, log_lam, seed):
    """The block step solves the same damped normal equations as the dense
    Jacobian does, whatever order the views' rows come in."""
    rng = np.random.default_rng(seed)
    view = rng.permutation(np.repeat(np.arange(len(counts)), counts))
    jac = BlockJacobian(rng.normal(size=(view.size, 2, m)), rng.normal(size=(view.size, 2, 6)), view)
    r = rng.normal(size=2 * view.size)
    n_params = m + 6 * len(counts)
    lam = 10.0 ** log_lam

    system = _BlockSystem(jac, r, _view_slots(jac, n_params))
    J = densify(jac, n_params)
    JtJ, g = J.T @ J, J.T @ r
    diag = np.diag(JtJ).copy()
    diag[diag < diag.max() * 1e-15] = diag.max() * 1e-15
    want = np.linalg.solve(JtJ + lam * np.diag(diag), -g)
    assert np.allclose(system.gradient, g, rtol=0, atol=1e-12 * np.abs(g).max())
    assert np.linalg.norm(system.step(lam) - want) <= 1e-9 * np.linalg.norm(want)


@pytest.mark.parametrize("m", [0, 9])
def test_groups_in_view_order_skip_the_scatter(m):
    """Groups already in view order with equal counts are the padded stack itself: no
    scatter is needed, and the system is bit-identical to the scattered one."""
    rng = np.random.default_rng(m)
    view = np.repeat(np.arange(4), 30)
    jac = BlockJacobian(rng.normal(size=(view.size, 2, m)), rng.normal(size=(view.size, 2, 6)), view)
    r = rng.normal(size=2 * view.size)
    n_views, longest, row = _view_slots(jac, m + 6 * 4)
    assert (n_views, longest, row) == (4, 30, None)
    assert _view_slots(jac._replace(view=view[::-1]), m + 6 * 4)[2] is not None
    fast, scattered = (_BlockSystem(jac, r, (4, 30, rows)) for rows in (None, np.arange(view.size)))
    for name in ("V", "Wt_g", "U", "gradient", "diag"):
        assert getattr(fast, name).tobytes() == getattr(scattered, name).tobytes(), name
    assert fast.step(1e-3).tobytes() == scattered.step(1e-3).tobytes()


def test_calibration_is_independent_of_observation_order(rig):
    left = rig.calib_corners.take(rig.calib_corners.camera == "left")
    fit = calibrate_camera(left, rig.grid, (1280, 720))
    K = fit.intrinsics
    init = replace(fit, intrinsics=CameraIntrinsics.from_packed(K.packed() * 1.01, K.image_size))
    shuffled = left.take(np.random.default_rng(5).permutation(len(left)))
    a = refine_calibration(left.take(np.argsort(left.view_id, kind="stable")), rig.grid, init)
    b = refine_calibration(shuffled, rig.grid, init)
    assert np.allclose(b.intrinsics.packed(), a.intrinsics.packed(), rtol=1e-9, atol=1e-12)
    assert b.view_id.tolist() == a.view_id.tolist()
    assert np.allclose(b.rotation, a.rotation, rtol=0, atol=1e-9)
    assert np.allclose(b.translation, a.translation, rtol=1e-9, atol=1e-12)
    assert b.rms_reprojection == pytest.approx(a.rms_reprojection, rel=1e-9)
    assert b.view_rms == pytest.approx(a.view_rms, rel=1e-9)


@pytest.fixture(scope="module")
def zero_noise():
    """The zero-noise synthetic dataset of acceptance criterion 1, with its scene."""
    spec = default_scene(frames=200, seed=1001)
    return spec, perturb(generate_scene(spec), NoiseSpec(), seed=spec.seed)


@settings(max_examples=60, deadline=None)
@given(log_eps=st.floats(-13, -8), seed=st.integers(0, 2**32 - 1))
def test_plane_pose_converges_at_a_tiny_residual(zero_noise, log_eps, seed):
    """Intrinsics off the truth by 1e-13 to 1e-8 leave a minimum of rms 1e-12 to
    1e-6 px, where rounding noise swamps relative cost changes; the step-size
    stop ends the solve there instead of the damping cap raising."""
    spec, ds = zero_noise
    xi = spec.rig.left.packed()
    eps = 10.0 ** log_eps * np.random.default_rng(seed).uniform(-1, 1, xi.size)
    K = CameraIntrinsics.from_packed(xi * (1 + eps), spec.rig.left.image_size)
    assert estimate_plane_pose(ds.plane_corners, ds.grid, K).rms_reprojection < 1e-6


def test_block_layout_must_cover_every_parameter():
    """Two views of 3 own entries after 2 shared ones make 8 parameters, not 9."""
    jac = BlockJacobian(np.ones((4, 2, 2)), np.ones((4, 2, 3)), np.array([0, 1, 0, 1]))
    with pytest.raises(ValueError, match="is not 9 parameters"):
        levenberg_marquardt(lambda x: (x[:8] - 1.0, lambda: jac), np.zeros(9), plus=_add, n_increments=9)


def linear_toy(A, b, J=None):
    """r = A x + b, whose Jacobian is reported as ``J`` (A if None): a J too large makes short
    steps, one of the wrong sign makes every step uphill."""
    A = np.asarray(A, dtype=float)
    J = A if J is None else np.asarray(J, dtype=float)
    return lambda x: (A @ x + b, lambda: all_shared(J))


# (toy, x0, reason, iterations, residual_evals, whether x moved: the stopping trial was accepted)
STOPS = {
    "cost_floor-at-start": (linear_toy([[1.0]], [0.0]), [0.0], "cost_floor", 0, 1, False),
    "gradient": (linear_toy([[1.0], [1.0]], [1.0, -1.0]), [0.0], "gradient", 1, 1, False),
    # rms 1e-11 falls by the damping's 1e-6 in one step, below the 1e-12 floor
    "cost_floor": (linear_toy([[100.0]], [0.0]), [1e-13], "cost_floor", 1, 2, True),
    # a constant 1 swamps the 1e-14 change of the cost
    "cost_plateau-accepted": (linear_toy([[0.0], [1.0]], [1.0, 0.0]), [1e-7], "cost_plateau", 1, 2, True),
    "cost_plateau-rejected": (linear_toy([[0.0], [1.0]], [1.0, 0.0], [[0.0], [-1.0]]), [1e-7],
                              "cost_plateau", 1, 2, False),
    # a step of 1e-7 is below 1e-12 of ‖x‖ = 1e6, held by an entry no residual depends on
    "step_floor-accepted": (linear_toy([[0.0, 1e4]], [0.0]), [1e6, 1e-7], "step_floor", 1, 2, True),
    "step_floor-rejected": (linear_toy([[0.0, 1e4]], [0.0], [[0.0, -1e4]]), [1e6, 1e-7], "step_floor", 1, 2, False),
    # each step is 1e-3 of the exact one: the cost falls by 0.2% an iteration, never stopping
    "max_iter": (linear_toy([[1.0]], [0.0], [[1e3]]), [1.0], "max_iter", MAX_ITER, MAX_ITER + 1, True),
    # a wrong sign this weak reads as converged: trial k steps 1e3 r / (1 + λ), raising the cost by
    # about 2e3 / λ of itself, under the plateau tolerance at the 17th trial (λ = 1e10), below the cap
    "cost_plateau-uphill": (linear_toy(np.eye(3), -1.0, -1e-3 * np.eye(3)), [0.0, 2.0, 5.0], "cost_plateau", 1, 18,
                            False),
    # 19 uphill trials raise the damping from 1e-6 to its cap; a J of 1e-6 makes even the last step
    # 1e-6 of r, so the cost still rises by 2e-6 of itself, above the plateau tolerance
    "diverged": (linear_toy(np.eye(3), -1.0, -1e-6 * np.eye(3)), [0.0, 2.0, 5.0], "diverged", 1, 20, False),
}


@pytest.mark.parametrize("name", list(STOPS))
def test_every_stop_reason(name):
    """Each stop reason a toy problem reaches, with its iteration and residual-evaluation
    counts, and whether the solve ended on an accepted trial."""
    model, x0, reason, iterations, evals, moved = STOPS[name]
    x0 = np.array(x0)
    try:
        result = levenberg_marquardt(model, x0, plus=_add, n_increments=x0.size)
    except NoConvergenceError as error:
        result = error.best
    assert (result.reason, result.iterations, result.residual_evals) == (reason, iterations, evals)
    assert (not np.array_equal(result.x, x0)) == moved
