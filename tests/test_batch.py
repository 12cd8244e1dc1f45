"""The batch contract of the stage functions.

Every stage function takes a batch of frames, and a row never depends on
the rows around it: an N-row batch equals, bit for bit, the one-row
batches of its rows. A row that has no answer is marked with an error
class name (or an intersection status) and carries NaN values, while the
rest of the batch goes through.
"""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planegaze import evaluation
from planegaze.calibration import StereoRig
from planegaze.camera import CameraIntrinsics, project_points
from planegaze.errors import ROW_FAILURES
from planegaze.evaluation import evaluate_manifest, evaluate_method, frame_heads, read_method_predictions
from planegaze.formats import (
    read_faces,
    read_grid_config,
    read_manifest,
    read_plane_pose,
    read_predictions,
    read_stereo,
    write_dataset,
)
from planegaze.geometry import RigidTransform, angular_error_deg
from planegaze.grid import target_centers
from planegaze.metrics import evaluate_frame
from planegaze.pipeline import (
    CONVENTION_ABSOLUTE,
    CONVENTION_OFFSET,
    STATUS_AWAY,
    STATUS_NO_INTERSECTION,
    STATUS_OK,
    PredictionTable,
    SurfaceGazeEstimate,
    correct_gaze_to_camera_frame,
    gaze_point_on_surface,
    ground_truth_direction,
)
from planegaze.plane import PlanePose
from planegaze.synthetic import MethodSpec, NoiseSpec, default_scene, generate_scene, perturb
from planegaze.triangulation import SOURCE_BBOX, SOURCE_EYES, head_point, triangulate_midpoint

from conftest import face_table, heads_at, random_unit_vectors

K_LEFT = CameraIntrinsics(
    fx=350.0, fy=350.0, cx=640.0, cy=360.0,
    dist=(-0.20, 0.04, 4e-4, -3e-4, 0.002), image_size=(1280, 720),
)
K_RIGHT = CameraIntrinsics(
    fx=355.0, fy=354.0, cx=636.0, cy=363.0,
    dist=(-0.21, 0.045, -2e-4, 3.5e-4, 0.002), image_size=(1280, 720),
)
# right camera 6 cm along the left camera's +X, no toe-in
RIG = StereoRig(K_LEFT, K_RIGHT, RigidTransform(np.eye(3), [-0.06, 0.0, 0.0]))
IDENTITY_PLANE = PlanePose(RigidTransform.identity())


def observed(frame_id, X, *, left_eyes=True, right_eyes=True, bbox=True):
    """Left and right face rows of a head at X (left-camera frame); None leaves a source out."""
    out = []
    for camera, K, pose, eyes in (
        ("left", K_LEFT, RigidTransform.identity(), left_eyes),
        ("right", K_RIGHT, RIG.right_from_left, right_eyes),
    ):
        (u, v), = project_points(K, pose, [X])
        box = (u - 30.0, v - 40.0, u + 30.0, v + 40.0) if bbox else None
        out.append((frame_id, camera, box, (u, v) if eyes else None))
    return out


def assert_same_rows(batch, rows, one):
    """The fields of ``batch`` at ``rows`` equal those of ``one``, floats bit for bit."""
    for f in fields(one):
        got, want = np.asarray(getattr(batch, f.name))[rows], np.asarray(getattr(one, f.name))
        assert got.shape == want.shape, f.name
        assert got.tobytes() == want.tobytes() if want.dtype.kind == "f" else got.tolist() == want.tolist(), f.name


def take_estimate(est: SurfaceGazeEstimate, rows) -> SurfaceGazeEstimate:
    return SurfaceGazeEstimate(est.point[rows], est.alpha[rows], est.direction_cc[rows], est.status[rows])


def poisoned_heads():
    """Left and right FaceTables of 12 visible heads with a parallel-ray, a behind-the-rig and an
    unshared-source row among them, and each row's expected failure ("" for none)."""
    rng = np.random.default_rng(11)
    lefts, rights, expected = [], [], []
    for k in range(12):
        X = rng.uniform([-0.2, -0.15, 0.4], [0.2, 0.15, 1.0])
        left, right = observed(f"f{k:02d}", X, left_eyes=k % 4 != 1)  # every 4th row falls back to bboxes
        lefts.append(left)
        rights.append(right)
        expected.append("")
    # a head 1e9 m away: both rays point the same way
    far = observed("far", np.array([0.3, -0.2, 1.0]) * 1e9, bbox=False)
    # left ray along the optical axis, right ray turned outward: they meet behind the rig
    behind = [
        ("behind", "left", None, (K_LEFT.cx, K_LEFT.cy)),
        ("behind", "right", None, (K_RIGHT.cx + 150.0, K_RIGHT.cy)),
    ]
    # bbox only on the left, eyes only on the right: no source in both cameras
    unshared = [
        ("unshared", "left", (600.0, 300.0, 660.0, 380.0), None),
        ("unshared", "right", None, (630.0, 340.0)),
    ]
    for at, (left, right), failure in (
        (3, far, "ParallelRaysError"),
        (7, behind, "BehindCameraError"),
        (10, unshared, "MissingObservationError"),
    ):
        lefts.insert(at, left)
        rights.insert(at, right)
        expected.insert(at, failure)
    return face_table(lefts), face_table(rights), expected


def test_head_point_batch_marks_exactly_the_failed_rows():
    left, right, expected = poisoned_heads()
    batch = head_point(left, right, RIG, SOURCE_EYES)
    assert list(batch.failure) == expected
    assert batch.position.shape == (len(expected), 3)
    for k, failure in enumerate(expected):
        if failure:
            assert np.all(np.isnan(batch.position[k])) and np.isnan(batch.ray_gap[k])
        assert_same_rows(batch, [k], head_point(left.take([k]), right.take([k]), RIG, SOURCE_EYES))
    assert {str(s) for s, f in zip(batch.source, expected) if not f} == {SOURCE_EYES, SOURCE_BBOX}


# lenses whose radial map r (1 - 0.5 r^2) folds over at r_d ~ 0.544 (0.544 * 350 px from the center)
FOLD = replace(K_LEFT, dist=(-0.5, 0.0, 0.0, 0.0, 0.0))
FOLD_RIG = StereoRig(FOLD, replace(K_RIGHT, dist=FOLD.dist), RIG.right_from_left)
POISON = {
    "nan": ((np.nan, 360.0), None, "NotInvertibleError"),
    "fold": ((FOLD.cx + 0.7 * FOLD.fx, FOLD.cy), None, "NotInvertibleError"),  # no preimage past the fold
    # left ray along the optical axis, right ray turned outward: they meet behind the rig
    "behind": ((FOLD.cx, FOLD.cy), (K_RIGHT.cx + 150.0, K_RIGHT.cy), "BehindCameraError"),
}


@settings(max_examples=40, deadline=None)
@given(
    heads=st.lists(st.tuples(st.floats(-0.15, 0.15), st.floats(-0.15, 0.15), st.floats(0.6, 1.5)),
                   min_size=1, max_size=12),
    poison=st.lists(st.sampled_from([None, "nan", "fold", "behind"]), min_size=12, max_size=12),
)
def test_poisoned_rows_leave_every_other_row_bit_identical(heads, poison):
    """Rows poisoned with a NaN pixel, a pixel past the lens fold or a head behind the
    cameras are marked; every other row equals the clean batch's, bit for bit, through
    triangulation, the surface intersection and the ground-truth direction."""
    X = np.array(heads)
    left = project_points(FOLD_RIG.left, RigidTransform.identity(), X)
    right = project_points(FOLD_RIG.right, FOLD_RIG.right_from_left, X)
    bad_left, bad_right = left.copy(), right.copy()
    for k, kind in enumerate(poison[:len(X)]):
        if kind is not None:
            pixel_left, pixel_right, _ = POISON[kind]
            bad_left[k] = pixel_left
            bad_right[k] = right[k] if pixel_right is None else pixel_right
    clean, dirty = (triangulate_midpoint(FOLD_RIG, lp, rp) for lp, rp in ((left, right), (bad_left, bad_right)))
    assert (clean.failure == "").all()
    hit = [k for k, kind in enumerate(poison[:len(X)]) if kind is not None]
    assert dirty.failure[hit].tolist() == [POISON[poison[k]][2] for k in hit]
    assert np.isnan(dirty.position[hit]).all() and np.isnan(dirty.ray_gap[hit]).all()
    rest = np.setdiff1d(np.arange(len(X)), hit)
    assert_same_rows(dirty, rest, clean.take(rest))

    dirs, targets = np.tile([0.1, 0.0, -1.0], (len(X), 1)), np.zeros((len(X), 3))
    plane = PlanePose(RigidTransform(np.diag([1.0, -1.0, -1.0]), [0.0, 0.0, 2.0]))
    for f in (lambda h: gaze_point_on_surface(h, dirs, plane), lambda h: ground_truth_direction(h, plane, targets)):
        got, want = f(dirty), f(clean)
        if isinstance(want, np.ndarray):
            assert got[rest].tobytes() == want[rest].tobytes() and np.isnan(got[hit]).all()
        else:
            assert_same_rows(take_estimate(got, rest), slice(None), take_estimate(want, rest))


def test_empty_head_batch():
    batch = head_point(face_table([]), face_table([]), RIG)
    assert batch.position.shape == (0, 3) and batch.failure.shape == (0,)


def test_pipeline_and_metrics_batch_rows_equal_one_row_batches():
    rng = np.random.default_rng(12)
    n = 40
    heads = rng.uniform([-0.3, -0.3, 0.2], [0.3, 0.3, 1.0], size=(n, 3))
    heads[5] = [0.1, 0.2, -0.4]  # below the surface: away_from_plane
    dirs = random_unit_vectors(rng, n)
    dirs[7] = [1.0, 0.0, 0.0]  # parallel to the surface: no_intersection
    targets = np.column_stack([rng.uniform(-0.3, 0.3, (n, 2)), np.zeros(n)])
    targets[9] = heads[9] * [1.0, 1.0, 0.0]
    heads[9, 2] = 1e-12  # head on its target
    batch_head = heads_at(heads, SOURCE_BBOX)

    estimate = gaze_point_on_surface(batch_head, dirs, IDENTITY_PLANE)
    assert set(estimate.status) == {STATUS_OK, STATUS_AWAY, STATUS_NO_INTERSECTION}
    gt = ground_truth_direction(batch_head, IDENTITY_PLANE, targets)
    assert np.all(np.isnan(gt[9])) and np.isfinite(np.delete(gt, 9, axis=0)).all()

    for k in range(n):
        head = batch_head.take([k])
        one = gaze_point_on_surface(head, dirs[[k]], IDENTITY_PLANE)
        assert_same_rows(estimate, [k], one)
        if one.status[0] != STATUS_OK:
            assert np.isnan(one.alpha[0]) and np.all(np.isnan(one.point[0]))
        assert gt[[k]].tobytes() == ground_truth_direction(head, IDENTITY_PLANE, targets[[k]]).tobytes()

    front = heads[:, 2] > 0
    angles = rng.uniform(-0.6, 0.6, (n, 2))
    conventions = np.where(np.arange(n) % 2, CONVENTION_OFFSET, CONVENTION_ABSOLUTE)
    for convention in (CONVENTION_OFFSET, CONVENTION_ABSOLUTE):  # a table holds one convention
        rows = np.flatnonzero(front & (conventions == convention))
        table = PredictionTable(np.array([f"f{k}" for k in rows]), np.full(rows.size, "m"),
                                angles[rows, 0], angles[rows, 1], convention, None)
        corrected = correct_gaze_to_camera_frame(table, batch_head.take(rows))
        for i, k in enumerate(rows):
            one = correct_gaze_to_camera_frame(table.take([i]), batch_head.take([k]))
            assert corrected[[i]].tobytes() == one.tobytes()

    good = np.flatnonzero(np.isfinite(gt[:, 0]))
    frame_ids = [f"f{k}" for k in good]
    records = evaluate_frame(dirs[good], gt[good], take_estimate(estimate, good), targets[good],
                             frame_id=frame_ids)
    angles = angular_error_deg(dirs[good], gt[good])
    assert angles.shape == (len(good),)
    row_of = {fid: row for row, fid in enumerate(records.frame_id)}
    for i, k in enumerate(good):
        assert angular_error_deg(dirs[[k]], gt[[k]]).tobytes() == angles[[i]].tobytes()
        one = evaluate_frame(dirs[[k]], gt[[k]], take_estimate(estimate, [k]), targets[[k]],
                             frame_id=[f"f{k}"])
        assert_same_rows(records, [row_of[f"f{k}"]], one)
        assert records.angular_deg[row_of[f"f{k}"]] == angles[i]


def _reference(manifest, method, rig, plane, grid):
    """The stage functions composed frame by frame, as one-row batches; each record comes with its frame's tags."""
    ref = manifest.predictions[method]
    table = read_predictions(ref.path)
    pred_row = {fid: k for k, fid in enumerate(table.frame_id.tolist())}
    faces = read_faces(manifest.faces)
    face_row = {key: k for k, key in enumerate(zip(faces.frame_id.tolist(), faces.camera.tolist()))}
    records, skipped, pred_dirs, gt_dirs = [], [], [], []
    frames = manifest.frames
    for fid, target_id, tags in zip(frames.frame_id.tolist(), frames.target_id.tolist(), frames.tags):
        if fid not in pred_row:
            skipped.append((fid, "missing_prediction"))
            continue
        left, right = face_row.get((fid, "left")), face_row.get((fid, "right"))
        if left is None or right is None:
            skipped.append((fid, "missing_face_observation"))
            continue
        head = head_point(faces.take([left]), faces.take([right]), rig, ref.head_source)
        if head.failure[0]:
            skipped.append((fid, head.failure[0]))
            continue
        target = target_centers(grid, [target_id])
        if np.isnan(target).any():
            skipped.append((fid, "UnknownTargetError"))
            continue
        gt = ground_truth_direction(head, plane, target)
        if np.isnan(gt[0, 0]):
            skipped.append((fid, "DegenerateGeometryError"))
            continue
        direction = correct_gaze_to_camera_frame(table.take([pred_row[fid]]), head)
        estimate = gaze_point_on_surface(head, direction, plane)
        records.append((evaluate_frame(direction, gt, estimate, target, frame_id=[fid]), tags))
        pred_dirs.append(direction[0])
        gt_dirs.append(gt[0])
    return records, skipped, pred_dirs, gt_dirs


def poisoned_manifest(tmp_path):
    """A noisy 16-frame dataset: f00003 has no right face, f00005 only a left bbox, f00007 no
    oracle-offset prediction, and f00009 a target the grid does not have."""
    ds = generate_scene(default_scene(frames=16, seed=404, calib_views=2))
    ds = perturb(ds, NoiseSpec(face_px_sigma=1.5, gaze_angle_sigma_deg=25.0), seed=404)
    faces, eye = ds.faces, ds.faces.eye.copy()
    missing = (faces.frame_id == "f00003") & (faces.camera == "right")  # missing right face
    eye[(faces.frame_id == "f00005") & (faces.camera == "left")] = np.nan  # bbox only: eyes fall back
    faces = replace(faces, eye=eye).take(~missing)
    predictions = dict(ds.predictions)
    offset = predictions["oracle-offset"]
    predictions["oracle-offset"] = offset.take(offset.frame_id != "f00007")
    frames = replace(ds.frames, target_id=np.where(ds.frames.frame_id == "f00009", 999, ds.frames.target_id))
    ds = replace(ds, faces=faces, predictions=predictions, frames=frames)
    return read_manifest(write_dataset(ds, tmp_path / "data"))


def test_evaluate_method_matches_frame_by_frame_composition(tmp_path):
    manifest = poisoned_manifest(tmp_path)
    rig = read_stereo(manifest.stereo)
    plane = read_plane_pose(manifest.plane_pose)
    grid = read_grid_config(manifest.grid_config)
    faces = read_faces(manifest.faces)
    fallback = head_point(faces.take((faces.frame_id == "f00005") & (faces.camera == "left")),
                          faces.take((faces.frame_id == "f00005") & (faces.camera == "right")), rig, SOURCE_EYES)
    assert fallback.source.tolist() == [SOURCE_BBOX]

    predictions = {m: read_method_predictions(manifest, m) for m in manifest.predictions}
    heads = frame_heads(manifest, faces, rig, predictions)
    for method in sorted(manifest.predictions):
        report = evaluate_method(manifest, method, predictions[method], heads, plane, grid)
        records, skipped, pred_dirs, gt_dirs = _reference(manifest, method, rig, plane, grid)
        assert report.skipped == skipped
        assert [fid for fid, _ in skipped] == sorted(fid for fid, _ in skipped)
        assert ("f00003", "missing_face_observation") in skipped
        assert ("f00009", "UnknownTargetError") in skipped
        assert (("f00007", "missing_prediction") in skipped) == (method == "oracle-offset")
        got = report.errors
        assert len(got.frame_id) == len(records) > 0
        for k, (want, tags) in enumerate(records):
            assert (got.frame_id[k], manifest.frames.tags[report.rows[k]]) == (want.frame_id[0], tags)
            assert got.angular_deg[k] == pytest.approx(want.angular_deg[0], rel=1e-9, abs=1e-9)
            assert got.distance_m[k] == pytest.approx(want.distance_m[0], rel=1e-9, abs=1e-9)
        np.testing.assert_allclose(report.pred_directions, np.array(pred_dirs), rtol=0, atol=1e-9)
        np.testing.assert_allclose(report.gt_directions, np.array(gt_dirs), rtol=0, atol=1e-9)


def test_every_row_failure_is_declared(tmp_path):
    """Each reason the batch stages mark a row with on the poisoned inputs above is one of
    ROW_FAILURES, and each of ROW_FAILURES but one is met there."""
    left, right, _ = poisoned_heads()
    reasons = set(head_point(left, right, RIG, SOURCE_EYES).failure.tolist())
    right_eye = project_points(FOLD_RIG.right, FOLD_RIG.right_from_left, [[0.05, 0.0, 1.0]])[0]
    for kind, (pixel_left, pixel_right, _) in POISON.items():
        pixel_right = right_eye if pixel_right is None else pixel_right
        left, right = face_table([(kind, "left", None, pixel_left)]), face_table([(kind, "right", None, pixel_right)])
        reasons |= set(head_point(left, right, FOLD_RIG).failure.tolist())

    manifest = poisoned_manifest(tmp_path)
    plane, grid = read_plane_pose(manifest.plane_pose), read_grid_config(manifest.grid_config)
    predictions = {m: read_method_predictions(manifest, m) for m in manifest.predictions}
    heads = frame_heads(manifest, read_faces(manifest.faces), read_stereo(manifest.stereo), predictions)
    reasons |= {r for head in heads.values() for r in head.failure.tolist()}
    for method in manifest.predictions:
        reasons |= {r for _, r in evaluate_method(manifest, method, predictions[method], heads, plane, grid).skipped}

    reasons.discard("")
    assert len(set(ROW_FAILURES)) == len(ROW_FAILURES) and reasons <= set(ROW_FAILURES)
    # a head on its own target is poisoned one stage down, in ground_truth_direction's batch test
    assert set(ROW_FAILURES) - reasons == {"DegenerateGeometryError"}


def test_shared_triangulation_matches_per_method_evaluation(tmp_path, monkeypatch):
    """Methods that share a head source share one triangulation, over the union of
    the frames they predict; each report equals its method's report evaluated alone."""
    spec = replace(default_scene(frames=24, seed=505, calib_views=2), methods=(
        MethodSpec("eyes-offset", CONVENTION_OFFSET, SOURCE_EYES),
        MethodSpec("eyes-absolute", CONVENTION_ABSOLUTE, SOURCE_EYES),
        MethodSpec("bbox-offset", CONVENTION_OFFSET, SOURCE_BBOX),
    ))
    ds = perturb(generate_scene(spec), NoiseSpec(face_px_sigma=1.5, gaze_angle_sigma_deg=10.0), seed=505)
    predictions = dict(ds.predictions)
    for name, gap in (("eyes-offset", 3), ("eyes-absolute", 4)):  # each misses a different subset
        table = predictions[name]
        predictions[name] = table.take(np.arange(table.frame_id.size) % gap != 0)
    faces = ds.faces.take(~((ds.faces.frame_id == "f00005") & (ds.faces.camera == "left")))
    manifest = read_manifest(write_dataset(replace(ds, predictions=predictions, faces=faces), tmp_path / "data"))

    calls = []

    def counted(left, right, rig, source):
        calls.append((source, left.frame_id.tolist()))
        return head_point(left, right, rig, source)

    monkeypatch.setattr(evaluation, "head_point", counted)
    together = evaluate_manifest(manifest).methods
    predicted = set(predictions["eyes-offset"].frame_id.tolist()) | set(predictions["eyes-absolute"].frame_id.tolist())
    assert dict(calls) == {
        SOURCE_BBOX: [f for f in ds.frames.frame_id.tolist() if f != "f00005"],
        SOURCE_EYES: sorted(predicted - {"f00005"}),
    }
    for method in sorted(manifest.predictions):
        alone = evaluate_manifest(manifest, methods=[method]).methods[method]
        got = together[method]
        assert got.skipped == alone.skipped and ("f00005", "missing_face_observation") in got.skipped
        assert got.errors.frame_id.tolist() == alone.errors.frame_id.tolist() and got.rows.tolist() == alone.rows.tolist()
        for a, b in ((got.errors.angular_deg, alone.errors.angular_deg), (got.errors.distance_m, alone.errors.distance_m),
                     (got.pred_directions, alone.pred_directions), (got.gt_directions, alone.gt_directions)):
            assert a.tobytes() == b.tobytes() and a.shape == b.shape
    assert len(calls) == 2 + 3  # one per head source, then one per method evaluated alone
