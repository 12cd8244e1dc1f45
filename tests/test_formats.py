import csv
import io
import json
import math
import re
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from planegaze.calibration import CornerTable, StereoRig
from planegaze.camera import CameraIntrinsics
from planegaze.errors import FormatError
from planegaze.evaluation import evaluate_manifest
from planegaze.formats import (
    _REPR_CHUNK,
    _REPR_CROSSOVER,
    _cells,
    _frames_json,
    _read_table,
    _write_table,
    read_corner_files,
    read_corners,
    read_faces,
    read_grid_config,
    read_intrinsics,
    read_manifest,
    read_plane_corners,
    read_plane_pose,
    read_predictions,
    read_scene_config,
    read_stereo,
    read_truth,
    write_cdf_csv,
    write_corners,
    write_dataset,
    write_faces,
    write_grid_config,
    write_intrinsics,
    write_manifest,
    write_plane_pose,
    write_predictions,
    write_stereo,
    write_truth,
)
from planegaze.floatrepr import repr_floats
from planegaze.geometry import RigidTransform, rotation_from_axis_angle
from planegaze.grid import GridConfig, default_target_map
from planegaze.metrics import FrameTable
from planegaze.pipeline import PredictionTable
from planegaze.plane import PlanePose
from planegaze.synthetic import default_scene, generate_scene
from planegaze.triangulation import FaceTable

from conftest import assert_same_table, face_table


def corner_table(rows) -> CornerTable:
    """A CornerTable of (view_id, camera, (i, j), (u, v)) rows."""
    return CornerTable(np.array([r[0] for r in rows], dtype=str), np.array([r[1] for r in rows], dtype=str),
                       np.array([r[2] for r in rows], dtype=int).reshape(-1, 2),
                       np.array([r[3] for r in rows], dtype=float).reshape(-1, 2))


def prediction_rows(rows, convention) -> PredictionTable:
    """A PredictionTable of (frame_id, method, yaw, pitch) rows."""
    return PredictionTable(np.array([r[0] for r in rows], dtype=str), np.array([r[1] for r in rows], dtype=str),
                           np.array([r[2] for r in rows], dtype=float), np.array([r[3] for r in rows], dtype=float),
                           convention, None)


@pytest.fixture()
def intrinsics():
    return CameraIntrinsics(
        fx=350.125, fy=351.5, cx=640.25, cy=360.75,
        dist=(-0.2, 0.04, 4e-4, -3e-4, 0.002), image_size=(1280, 720),
    )


class TestJsonRoundTrips:
    def test_grid(self, tmp_path):
        for targets in (default_target_map(5, 8, 20), {-3: (0, 0), 0: (1, 1), 12: (2, 2)}):
            grid = GridConfig(square_size=0.06, rows=5, cols=8, target_map=targets)
            path = tmp_path / "grid.json"
            write_grid_config(path, grid)
            assert read_grid_config(path) == grid

    @pytest.mark.parametrize("key", ["07", "9_0", "\u0663", "+7", " 7", "7.0", "None", ""])
    @pytest.mark.parametrize("scene", [False, True], ids=["grid", "scene"])
    def test_target_ids_must_be_an_integers_own_text(self, tmp_path, key, scene):
        # int() reads each of these keys, or fails on it; only str(int(k)) == k keeps two keys apart
        payload = {"schema": "planegaze-grid-v1", "square_size_m": 0.06, "rows": 5, "cols": 8,
                   "targets": {"7": [0, 0], key: [1, 1]}}
        if scene:
            payload = {"schema": "planegaze-scene-v1", "grid": payload}
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(payload))
        message = f"{path}: bad grid config: target id must be a plain decimal integer such as '7', got {key!r}"
        with pytest.raises(FormatError, match=re.escape(message)):
            read_scene_config(path, frames=1, seed=0, calib_views=0) if scene else read_grid_config(path)

    def test_intrinsics(self, tmp_path, intrinsics):
        path = tmp_path / "k.json"
        write_intrinsics(path, intrinsics, camera="left", rms_px=0.19)
        assert read_intrinsics(path) == intrinsics

    def test_stereo(self, tmp_path, intrinsics):
        rel = RigidTransform(rotation_from_axis_angle([0.0, -0.03, 0.01]), np.array([-0.06, 1e-3, -2e-3]))
        rig = StereoRig(intrinsics, intrinsics, rel)
        path = tmp_path / "stereo.json"
        write_stereo(path, rig)
        back = read_stereo(path)
        assert back.left == rig.left and back.right == rig.right
        np.testing.assert_array_equal(back.right_from_left.rotation, rel.rotation)
        np.testing.assert_array_equal(back.right_from_left.translation, rel.translation)

    def test_plane_pose(self, tmp_path):
        T = RigidTransform(rotation_from_axis_angle([0.4, 0.1, -0.2]), np.array([0.15, -0.15, 0.45]))
        pose = PlanePose(T, 0.123456789)
        path = tmp_path / "plane.json"
        write_plane_pose(path, pose)
        back = read_plane_pose(path)
        np.testing.assert_array_equal(back.transform.rotation, T.rotation)
        np.testing.assert_array_equal(back.transform.translation, T.translation)
        assert back.rms_reprojection == pose.rms_reprojection

    @pytest.mark.parametrize("labels, message", [
        ({"src_frame": "plane", "dst_frame": "camera"}, "src_frame must be 'camera', got 'plane'"),
        ({"dst_frame": "world"}, "dst_frame must be 'plane', got 'world'"),
        ({"src_frame": None}, "src_frame must be 'camera', got None"),
        ({"src_frame": ..., "dst_frame": ...}, None),  # a file without the labels reads as camera -> plane
    ])
    def test_plane_pose_frame_labels(self, tmp_path, labels, message):
        path = tmp_path / "plane.json"
        write_plane_pose(path, PlanePose(RigidTransform.identity(), 0.5))
        payload = json.loads(path.read_text())
        for key, value in labels.items():
            if value is ...:
                del payload[key]
            else:
                payload[key] = value
        path.write_text(json.dumps(payload))
        if message is None:
            assert read_plane_pose(path).rms_reprojection == 0.5
        else:
            with pytest.raises(FormatError, match=re.escape(f"{path}: {message}")):
                read_plane_pose(path)

    def test_wrong_schema_rejected(self, tmp_path, intrinsics):
        path = tmp_path / "k.json"
        write_intrinsics(path, intrinsics, camera="left")
        with pytest.raises(FormatError):
            read_stereo(path)

    def test_provenance_embedded(self, tmp_path, intrinsics):
        path = tmp_path / "k.json"
        write_intrinsics(path, intrinsics, camera="left")
        payload = json.loads(path.read_text())
        assert payload["provenance"]["tool"].startswith("planegaze ")


class TestCsvRoundTrips:
    def test_corners(self, tmp_path):
        obs = corner_table([
            ("v00", "left", (0, 0), (12.125, 700.5)),
            ("v00", "right", (3, 5), (640.0078125, 0.1)),
        ])
        path = tmp_path / "corners.csv"
        write_corners(path, obs)
        assert_same_table(read_corners(path), obs)

    def test_faces_with_missing_fields(self, tmp_path):
        obs = face_table([
            ("f0", "left", (1.5, 2.5, 3.5, 4.5), (2.25, 3.125)),
            ("f0", "right", (1.0, 2.0, 3.0, 4.0), None),
            ("f1", "left", None, (9.0, 8.0)),
        ])
        path = tmp_path / "faces.csv"
        write_faces(path, obs)
        assert_same_table(read_faces(path), obs)

    @pytest.mark.parametrize("row, message", [
        ("f0,left,,,,,,", "face observation needs a bbox or an eye midpoint"),
        ("f0,left,10.0,0.0,0.0,10.0,,", "bbox is not well-ordered: (10.0, 0.0, 0.0, 10.0)"),
    ])
    def test_face_row_without_a_usable_source_rejected(self, tmp_path, row, message):
        path = tmp_path / "faces.csv"
        path.write_text(f"frame_id,camera,u_min,v_min,u_max,v_max,eye_u,eye_v\n{row}\n")
        with pytest.raises(FormatError, match=re.escape(message)) as err:
            read_faces(path)
        assert (err.value.file, err.value.line) == (str(path), 2)

    def test_predictions_radians(self, tmp_path):
        preds = prediction_rows([("f0", "m", 0.125, -0.5), ("f1", "m", -1.0 / 3.0, 0.7)], "camera_offset")
        path = tmp_path / "pred.csv"
        write_predictions(path, preds, unit="radians")
        assert_same_table(read_predictions(path), preds)

    def test_predictions_degrees_unit_conversion(self, tmp_path):
        preds = prediction_rows([("f0", "m", math.radians(30.0), math.radians(-10.0))], "absolute")
        path = tmp_path / "pred.csv"
        write_predictions(path, preds, unit="degrees")
        text = path.read_text()
        assert "# unit: degrees" in text
        back = read_predictions(path)
        assert back.yaw[0] == pytest.approx(math.radians(30.0), rel=1e-15)
        assert back.convention == "absolute"

    def test_prediction_unit_header_mandatory(self, tmp_path):
        path = tmp_path / "pred.csv"
        path.write_text("frame_id,method,yaw,pitch\nf0,m,0.1,0.2\n")
        with pytest.raises(FormatError, match="unit"):
            read_predictions(path)

    @pytest.mark.parametrize("header", ["", "# convention: sideways\n"])
    def test_prediction_convention_header_mandatory(self, tmp_path, header):
        path = tmp_path / "pred.csv"
        path.write_text(f"# unit: radians\n{header}frame_id,method,yaw,pitch\nf0,m,0.1,0.2\n")
        with pytest.raises(FormatError, match="convention"):
            read_predictions(path)

    def test_malformed_row_names_file_and_line(self, tmp_path):
        path = tmp_path / "corners.csv"
        path.write_text("view_id,camera,i,j,u,v\nv00,left,0,0,12.5,botched\n")
        with pytest.raises(FormatError) as err:
            read_corners(path)
        assert err.value.file == str(path)
        assert err.value.line == 2

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "corners.csv"
        path.write_text("view_id,camera,i,j,u,v\nv00,left,0,0,12.5\n")
        with pytest.raises(FormatError):
            read_corners(path)

    def test_truth(self, tmp_path):
        ds = generate_scene(default_scene(frames=4, seed=2, calib_views=2))
        path = tmp_path / "truth.csv"
        write_truth(path, ds.frames, ds.head_cc, ds.direction_cc)
        frames, head_cc, direction_cc = read_truth(path)
        assert frames.frame_id.tolist() == ds.frames.frame_id.tolist()
        assert frames.target_id.tolist() == ds.frames.target_id.tolist()
        assert frames.tags == ds.frames.tags
        np.testing.assert_array_equal(head_cc, ds.head_cc)
        np.testing.assert_array_equal(direction_cc, ds.direction_cc)


class TestRepeatedCorners:
    """A corner, (view_id, camera, i, j), appears once in a file and once over the files read
    together; a repeat is a FormatError at the later row's line (three header lines come first)."""

    ROWS = [("v0", "left", (0, 0), (1.0, 2.0)), ("v0", "right", (0, 0), (3.0, 4.0)), ("v1", "left", (0, 0), (5.0, 6.0))]

    def test_in_one_file(self, tmp_path):
        path = tmp_path / "corners.csv"
        write_corners(path, corner_table(self.ROWS + [("v0", "right", (0, 0), (7.0, 8.0))]))
        with pytest.raises(FormatError, match=r"second corner \(0, 0\) for view 'v0' camera 'right'") as err:
            read_corners(path)
        assert (err.value.file, err.value.line) == (str(path), 7)

    def test_in_plane_corners(self, tmp_path):
        path = tmp_path / "plane.csv"
        write_corners(path, corner_table([("p", "left", (0, k), (1.0, k)) for k in range(4)] + [("p", "left", (0, 2), (1, 2))]))
        with pytest.raises(FormatError, match=r"second corner \(0, 2\)") as err:
            read_plane_corners(path)
        assert err.value.line == 8

    def test_across_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_corners(a, corner_table(self.ROWS))
        write_corners(b, corner_table([("v1", "right", (0, 0), (0.0, 0.0)), self.ROWS[2]]))
        assert len(read_corner_files([a])) == 3
        with pytest.raises(FormatError, match=rf"corner \(0, 0\) for view 'v1' camera 'left' is in {re.escape(str(a))} too") as err:
            read_corner_files([a, b])
        assert (err.value.file, err.value.line) == (str(b), 5)
        with pytest.raises(FormatError) as err:
            read_corner_files([a, a])
        assert (err.value.file, err.value.line) == (str(a), 4)


class TestUnreadableTables:
    def test_nul_in_a_text_cell_names_its_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("# unit: radians\n# convention: offset\nframe_id,method,yaw,pitch\n"
                        "f00000,m,0.1,0.2\nf00001\0,m,0.1,0.2\n")
        with pytest.raises(FormatError, match="NUL character") as err:
            read_predictions(path)
        assert (err.value.file, err.value.line) == (str(path), 5)

    def test_a_directory_is_a_format_error(self, tmp_path):
        with pytest.raises(FormatError, match="cannot read file") as err:
            read_corners(tmp_path)
        assert err.value.file == str(tmp_path)


class TestMalformedQuoting:
    """Quoting csv.reader rejects in strict mode, or a quoted field that runs past its line,
    is a FormatError naming the line its row starts on, ahead of any other problem."""

    HEADER = "# schema: planegaze-corners-v1\nview_id,camera,i,j,u,v\n"
    PAST = "quoted field runs past the end of the line"

    @pytest.mark.parametrize("header, rows, line, message", [
        (HEADER, 'calib000,left,0,0,1,2\ncalib000,left,0,1,1,"2', 4, PAST),  # the last line, without a line end
        (HEADER, 'calib000,left,0,0,1,2\ncalib000,left,0,1,1,"2\n', 4, PAST),
        (HEADER, 'calib000,left,0,0,1,"2\ncalib000,left,0,1,1,2"\ncalib000,left,0,2,1,2\n', 3, PAST),
        (HEADER, 'calib000,left,0,0,1,2\ncalib000,left,0,1,1,"2"3\n', 4, "malformed CSV: "),
        (HEADER, 'calib000,left,0,0,"1"2,3\ncalib000,left,0,1,1,2\n', 3, "malformed CSV: "),
        (HEADER.replace(",v", ",w"), 'calib000,left,0,0,1,2\ncalib000,left,0,1,1,"2"3\n', 4, "malformed CSV: "),
        (HEADER, f'"{"x" * csv.field_size_limit()}x",left,0,0,1,2\n', 3, "malformed CSV: field larger than"),
    ], ids=["unterminated-last-line", "unterminated-last-row", "runs-into-next-line", "text-after-closing-quote",
            "text-after-closing-quote-mid-row", "before-a-bad-header", "field-over-csv-s-size-limit"])
    def test_names_the_line(self, tmp_path, header, rows, line, message):
        path = tmp_path / "corners.csv"
        path.write_text(header + rows)
        with pytest.raises(FormatError) as err:
            read_corners(path)
        assert (err.value.file, err.value.line) == (str(path), line)
        assert str(err.value).startswith(f"{path}:{line}: {message}")

    @pytest.mark.parametrize("note", ["", '# note: "x"\n'], ids=["quote-free", "quote-in-a-note"])
    def test_a_field_over_csv_s_limit_is_one_error_with_quotes_or_without(self, tmp_path, note):
        """A frame id of csv's field limit reads, and one character more is the same error at
        the same line, whether or not a quote elsewhere in the file sends it through csv.reader."""
        limit, path = csv.field_size_limit(), tmp_path / "p.csv"

        def write(frame_id):
            path.write_text(f"# unit: radians\n# convention: camera_offset\n{note}frame_id,method,yaw,pitch\n"
                            f"f00000,m,0.1,0.2\n{frame_id},m,0.1,0.2\n")

        write("f" * limit)
        assert read_predictions(path).frame_id[1] == "f" * limit
        write("f" * (limit + 1))
        with pytest.raises(FormatError) as err:
            read_predictions(path)
        line = 6 if note else 5
        assert str(err.value) == f"{path}:{line}: malformed CSV: field larger than field limit ({limit})"


class TestBlankLines:
    def test_whitespace_only_text_cell_is_a_row(self, tmp_path):
        path = tmp_path / "t.csv"
        _write_table(path, {"name": "text"}, [["a", "\x0c", "b"]], {})
        table = _read_table(path, {"name": "text"})
        assert table["name"].tolist() == ["a", "\x0c", "b"] and table.lines.tolist() == [2, 3, 4]

    def test_whitespace_only_line_of_a_wider_table_is_a_short_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# schema: x\na,b\n1,2\n \n3,4\n")
        with pytest.raises(FormatError, match="expected 2 fields, got 1") as err:
            _read_table(path, {"a": "int", "b": "int"})
        assert (err.value.file, err.value.line) == (str(path), 4)

    def test_empty_lines_and_blanks_before_the_header_are_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(" \n# schema: x\n\t\n\na,b\n1,2\n\n3,4\n\n")
        table = _read_table(path, {"a": "int", "b": "int"})
        assert table.meta == {"schema": "x"}
        assert table["a"].tolist() == [1, 3] and table.lines.tolist() == [6, 8]


class TestDatasetAndManifest:
    def test_dataset_round_trip(self, tmp_path):
        ds = generate_scene(default_scene(frames=6, seed=8, calib_views=3))
        manifest_path = write_dataset(ds, tmp_path / "data")
        manifest = read_manifest(manifest_path)
        assert_same_table(manifest.frames, ds.frames)
        assert set(manifest.predictions) == set(ds.predictions)
        assert_same_table(read_corners(manifest.calibration_corners), ds.calib_corners)
        assert_same_table(read_plane_corners(manifest.plane_corners), ds.plane_corners)
        assert_same_table(read_faces(manifest.faces), ds.faces)
        frames, head_cc, direction_cc = read_truth(manifest.truth)
        assert_same_table(frames, ds.frames)
        assert head_cc.tobytes() == ds.head_cc.tobytes() and head_cc.shape == ds.head_cc.shape
        assert direction_cc.tobytes() == ds.direction_cc.tobytes() and direction_cc.shape == ds.direction_cc.shape
        rig = read_stereo(manifest.stereo)
        assert rig.left == ds.rig.left
        for name, ref in manifest.predictions.items():
            assert_same_table(read_predictions(ref.path), ds.predictions[name])

    def test_manifest_missing_file_rejected(self, tmp_path):
        ds = generate_scene(default_scene(frames=2, seed=8, calib_views=2))
        manifest_path = write_dataset(ds, tmp_path / "data")
        (tmp_path / "data" / "faces.csv").unlink()
        with pytest.raises(FormatError, match="missing"):
            read_manifest(manifest_path)

    def test_a_file_gone_after_reading_the_manifest_stops_evaluate(self, tmp_path):
        """Every file the manifest names is hashed into the report's provenance; one removed
        after the manifest was read is a FormatError naming it, not a digest left out."""
        manifest = read_manifest(write_dataset(generate_scene(default_scene(frames=2, seed=8, calib_views=2)),
                                               tmp_path / "data"))
        manifest.truth.unlink()
        with pytest.raises(FormatError, match="file not found") as err:
            evaluate_manifest(manifest)
        assert err.value.file == str(manifest.truth)

    def test_manifest_duplicate_frames_rejected(self, tmp_path):
        ds = generate_scene(default_scene(frames=2, seed=8, calib_views=2))
        manifest_path = write_dataset(ds, tmp_path / "data")
        payload = json.loads(manifest_path.read_text())
        payload["frames"].append(payload["frames"][0])
        manifest_path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="duplicate"):
            read_manifest(manifest_path)

    @pytest.mark.parametrize("target_id", [3.7, "12", True, math.inf, 2**63])
    def test_manifest_target_id_must_be_an_integer(self, tmp_path, target_id):
        ds = generate_scene(default_scene(frames=3, seed=8, calib_views=2))
        manifest_path = write_dataset(ds, tmp_path / "data")
        payload = json.loads(manifest_path.read_text())
        payload["frames"][1]["target_id"] = target_id  # inf is written as JSON Infinity
        manifest_path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match=r"bad frame entry #1: ") as err:
            read_manifest(manifest_path)
        assert err.value.file == str(manifest_path)
        if type(target_id) is not int:
            assert f"target_id of frame 'f00001' must be an integer, got {target_id!r}" in str(err.value)

    @pytest.mark.parametrize("edits, message", [
        ({2: {"frame_id": "f00000"}, 4: {"tags": "glasses"}}, "duplicate frame_id 'f00000'"),
        ({4: {"frame_id": "f00000"}, 2: {"tags": "glasses"}}, "bad frame entry #2: tags of frame 'f00002'"),
        ({3: {"target_id": 2**63}, 5: {"frame_id": "f00001"}}, "bad frame entry #3: "),
        ({1: None}, "bad frame entry #1: "),
        ({0: {"target_id": None}, 1: {"frame_id": "f00000"}}, "bad frame entry #0: target_id of frame 'f00000'"),
        ({4: {"frame_id": "f00000"}, 3: {"tags": ["glasses", ""]}}, "bad frame entry #3: tags of frame 'f00003'"),
    ])
    def test_manifest_names_the_first_bad_entry_or_duplicate(self, tmp_path, edits, message):
        ds = generate_scene(default_scene(frames=6, seed=8, calib_views=2))
        manifest_path = write_dataset(ds, tmp_path / "data")
        payload = json.loads(manifest_path.read_text())
        for k, fields in edits.items():
            payload["frames"][k] = None if fields is None else {**payload["frames"][k], **fields}
        manifest_path.write_text(json.dumps(payload))
        with pytest.raises(FormatError) as err:
            read_manifest(manifest_path)
        assert message in str(err.value) and err.value.file == str(manifest_path)

    def test_manifest_frame_errors_come_before_path_errors(self, tmp_path):
        ds = generate_scene(default_scene(frames=3, seed=8, calib_views=2))
        manifest_path = write_dataset(ds, tmp_path / "data")
        payload = json.loads(manifest_path.read_text())
        del payload["grid_config"]
        payload["frames"][2]["tags"] = "glasses"
        manifest_path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="bad frame entry #2: tags of frame 'f00002'"):
            read_manifest(manifest_path)

    @pytest.mark.parametrize("k, frame_id", [(3, "f00000\0"), (1, "f0\x0001"), (4, "\0")])
    def test_manifest_frame_id_with_a_nul_rejected(self, tmp_path, k, frame_id):
        """A NUL would be dropped from the end of an id by np.array(..., dtype=str), making
        "f00000" and "f00000\\0" one frame."""
        ds = generate_scene(default_scene(frames=6, seed=8, calib_views=2))
        manifest_path = write_dataset(ds, tmp_path / "data")
        payload = json.loads(manifest_path.read_text())
        payload["frames"][k]["frame_id"] = frame_id
        manifest_path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match=f"bad frame entry #{k}: frame_id .* holds a NUL character"):
            read_manifest(manifest_path)

    def test_manifest_frame_ids_that_are_numbers_read_as_text(self, tmp_path):
        ds = generate_scene(default_scene(frames=3, seed=8, calib_views=2))
        manifest_path = write_dataset(ds, tmp_path / "data")
        payload = json.loads(manifest_path.read_text())
        payload["frames"][1]["frame_id"], payload["frames"][2]["tags"] = 7, []
        del payload["frames"][0]["tags"]
        manifest_path.write_text(json.dumps(payload))
        frames = read_manifest(manifest_path).frames
        assert frames.frame_id.tolist() == ["f00000", "7", "f00002"]
        assert frames.tags == ((), ds.frames.tags[1], ()) and frames.target_id.dtype == np.int64

    def test_manifest_frames_are_spliced_at_their_top_level_key(self, tmp_path):
        """A string that looks like the frames key, nested deeper, leaves the splice where json.dumps puts it."""
        frames = FrameTable(np.array(["a", "b"]), np.array([1, -2]), (("x", "y"), ()))
        payload = {"notes": {"frames": []}, "zzz": '\n  "frames": []', "provenance": {"tool": "t"}}
        write_manifest(tmp_path / "m.json", payload, frames)
        entries = [{"frame_id": "a", "target_id": 1, "tags": ["x", "y"]}, {"frame_id": "b", "target_id": -2, "tags": []}]
        want = {"schema": "planegaze-manifest-v1", **payload, "frames": entries}
        assert (tmp_path / "m.json").read_text(encoding="utf-8") == json.dumps(want, indent=2, sort_keys=True) + "\n"

    def test_manifest_bad_head_source_rejected(self, tmp_path):
        ds = generate_scene(default_scene(frames=2, seed=8, calib_views=2))
        manifest_path = write_dataset(ds, tmp_path / "data")
        payload = json.loads(manifest_path.read_text())
        next(iter(payload["predictions"].values()))["head_source"] = "forehead"
        manifest_path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="head_source"):
            read_manifest(manifest_path)

    def test_rewrite_is_byte_identical(self, tmp_path):
        ds = generate_scene(default_scene(frames=5, seed=8, calib_views=2))
        write_dataset(ds, tmp_path / "a")
        write_dataset(ds, tmp_path / "b")
        for fa in sorted((tmp_path / "a").rglob("*")):
            if fa.is_file():
                fb = tmp_path / "b" / fa.relative_to(tmp_path / "a")
                assert fa.read_bytes() == fb.read_bytes()


# --- round trips of random tables -----------------------------------------------

IDS = st.text(alphabet=st.sampled_from(list("abfXZ07 ,\"';#_-é")), max_size=6)
FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
CAMERAS = st.sampled_from(["left", "right"])


@st.composite
def face_tables(draw):
    keys = draw(st.lists(st.tuples(IDS, CAMERAS), unique=True, max_size=6))
    rows = []
    for frame_id, camera in keys:
        (u0, u1), (v0, v1) = sorted(draw(st.tuples(FLOATS, FLOATS))), sorted(draw(st.tuples(FLOATS, FLOATS)))
        bbox = draw(st.sampled_from([None, (u0, v0, u1, v1)]))
        eye = draw(st.tuples(FLOATS, FLOATS)) if bbox is None else draw(st.none() | st.tuples(FLOATS, FLOATS))
        rows.append((frame_id, camera, bbox, eye))
    return face_table(rows)


@st.composite
def prediction_tables(draw):
    keys = draw(st.lists(st.tuples(IDS, IDS), unique=True, max_size=6))
    convention = draw(st.sampled_from(["camera_offset", "absolute"]))
    return prediction_rows([(frame_id, method, draw(FLOATS), draw(FLOATS)) for frame_id, method in keys], convention)


@st.composite
def corner_tables(draw):
    ints = st.integers(-(2**63), 2**63 - 1)
    return corner_table(draw(st.lists(st.tuples(
        IDS, CAMERAS, st.tuples(ints, ints), st.tuples(FLOATS, FLOATS)
    ), unique_by=lambda row: row[:3], max_size=6)))


def _write_tables(d, faces, preds, corners):
    write_faces(d / "faces.csv", faces)
    write_predictions(d / "pred.csv", preds, unit="radians")
    write_corners(d / "corners.csv", corners)


@settings(max_examples=40, deadline=None)
@given(faces=face_tables(), preds=prediction_tables(), corners=corner_tables())
def test_random_tables_round_trip_bit_for_bit(tmp_path_factory, faces, preds, corners):
    d = tmp_path_factory.mktemp("tables")
    _write_tables(d, faces, preds, corners)
    assert_same_table(read_faces(d / "faces.csv"), faces)
    assert_same_table(read_predictions(d / "pred.csv"), preds)
    assert_same_table(read_corners(d / "corners.csv"), corners)


@settings(max_examples=40, deadline=None)
@given(faces=face_tables(), preds=prediction_tables(), corners=corner_tables(), data=st.data())
def test_one_corrupted_numeric_cell_names_its_line(tmp_path_factory, faces, preds, corners, data):
    d = tmp_path_factory.mktemp("corrupt")
    _write_tables(d, faces, preds, corners)
    name, read, numeric = data.draw(st.sampled_from([
        ("faces.csv", read_faces, range(2, 8)),
        ("pred.csv", read_predictions, range(2, 4)),
        ("corners.csv", read_corners, range(2, 6)),
    ]))
    path = d / name
    lines = path.read_text().splitlines()
    header = next(k for k, line in enumerate(lines) if not line.startswith("#"))
    if header == len(lines) - 1:
        return  # an empty table has no cell to corrupt
    k = data.draw(st.integers(header + 1, len(lines) - 1))
    cells = next(csv.reader([lines[k]]))
    cells[data.draw(st.sampled_from(numeric))] = data.draw(st.sampled_from(["x1", "nan", "-inf", "1.5.2"]))
    row = io.StringIO()
    csv.writer(row, lineterminator="").writerow(cells)
    lines[k] = row.getvalue()
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=r"field '\w+' is not") as err:
        read(path)
    assert (err.value.file, err.value.line) == (str(path), k + 1)


# --- the CSV writer against csv.writer --------------------------------------------

EDGE_FLOATS = [
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,  # subnormals
    1e16, 9999999999999998.0, -1e16, 1e-05, 9.999999999999999e-06, 0.0001,  # repr switches notation
]
NON_FINITE = [math.nan, -math.nan, math.inf, -math.inf]


def _oracle_csv(columns, data, meta):
    """The bytes of a plain csv.writer, with a missing "float?" value as a blank cell."""
    buf = io.StringIO()
    buf.writelines(f"# {k}: {v}\n" for k, v in meta.items())
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(list(columns))
    w.writerows(zip(*(
        ["" if kind == "float?" and math.isnan(v) else v for v in col]
        for kind, col in zip(columns.values(), data)
    )))
    return buf.getvalue().encode()


@st.composite
def csv_tables(draw, readable, chars="az#,\"é0. \x0c", specials=("", "#lead", 'say "hi", twice')):
    """A schema and its columns; an unreadable one also holds what the reader rejects:
    non-finite numbers, and text with line breaks. Text of only blanks is
    readable: after the header a whitespace-only line is a row, and only an
    empty line is skipped."""
    floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
    chars = list(chars) + ([] if readable else list("\r\n"))
    kinds = draw(st.lists(st.sampled_from(["text", "int", "float", "float?"]), min_size=1, max_size=5))
    n_rows = draw(st.integers(0, 6))
    cells = {
        "text": st.sampled_from(specials) | st.text(st.sampled_from(chars), max_size=5),
        "int": st.integers(-(2**63), 2**63 - 1),
        "float": floats if readable else floats | st.sampled_from(NON_FINITE),
        "float?": floats | st.sampled_from([math.nan] if readable else NON_FINITE),
    }
    data = [draw(st.lists(cells[kind], min_size=n_rows, max_size=n_rows)) for kind in kinds]
    return {f"c{k}": kind for k, kind in enumerate(kinds)}, data


@settings(max_examples=150, deadline=None)
@given(readable=st.booleans(), data=st.data(), block_rows=st.integers(1, 3))
def test_writer_matches_csv_writer_and_reads_back_bit_for_bit(tmp_path_factory, readable, data, block_rows):
    """Blocks of 1-3 rows, so that a drawn table crosses block boundaries as it is written and read."""
    columns, cols = data.draw(csv_tables(readable))
    meta = {"schema": "planegaze-test-v1", "note": 'a, "quoted" note'}
    path = tmp_path_factory.mktemp("writer") / "t.csv"
    with patch("planegaze.formats._BLOCK_ROWS", block_rows):
        _write_table(path, columns, cols, meta)
        assert path.read_bytes() == _oracle_csv(columns, cols, meta)
        if not readable:
            return
        table = _read_table(path, columns)
    assert table.meta == meta
    for (name, kind), col in zip(columns.items(), cols):
        got = table[name]
        if kind.startswith("float"):
            want = np.array(col, dtype=float)
            assert np.array_equal(np.isnan(got), np.isnan(want))
            assert got[~np.isnan(want)].tobytes() == want[~np.isnan(want)].tobytes()
        else:
            assert got.tolist() == col


@pytest.mark.parametrize("n_rows", [_REPR_CROSSOVER - 1, _REPR_CROSSOVER, 2 * _REPR_CHUNK + 1])
def test_writer_matches_csv_writer_either_side_of_the_repr_crossover(tmp_path, n_rows):
    """Under _REPR_CROSSOVER distinct floats of a kind (summed over its columns), a table
    formats them with repr; from there on with floatrepr's kernel, _REPR_CHUNK values a
    call, the columns of the kind together. The bytes are the same."""
    rng = np.random.default_rng(n_rows)
    values = rng.normal(size=n_rows) * 10.0 ** rng.integers(-12, 20, n_rows)
    values[:6] = [0.0, -0.0, 5e-324, 1e16, 1e-05, 0.0001]
    optional = values[::-1].copy()
    optional[::7] = math.nan
    floats = [values, -values] if n_rows > _REPR_CHUNK else [values]
    columns = {"id": "text", "y": "float?", **{f"x{k}": "float" for k in range(len(floats))}}
    data = [[f"r{k}" for k in range(n_rows)], optional.tolist(), *(x.tolist() for x in floats)]
    meta = {"schema": "planegaze-test-v1"}
    with patch("planegaze.floatrepr.repr_floats", wraps=repr_floats) as kernel:
        _write_table(tmp_path / "t.csv", columns, data, meta)
    assert (tmp_path / "t.csv").read_bytes() == _oracle_csv(columns, data, meta)
    distinct = [sum(np.unique(x.view(np.int64)).size for x in group) for group in ([optional], floats)]
    assert kernel.call_count == sum(math.ceil(d / _REPR_CHUNK) for d in distinct if d >= _REPR_CROSSOVER)
    assert kernel.call_count == {_REPR_CROSSOVER - 1: 0, _REPR_CROSSOVER: 1}.get(n_rows, 7)


@settings(max_examples=100, deadline=None)
@given(text=st.lists(st.text(st.sampled_from(list("f1,\"") + list("\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")),
                             max_size=4), min_size=1, max_size=5), block_rows=st.integers(1, 3))
def test_text_with_unicode_line_separators_round_trips(tmp_path_factory, text, block_rows):
    """A cell may hold the characters str.splitlines breaks at but csv.writer
    leaves unquoted; rows keep the line numbers an editor shows, across blocks of 1-3 rows."""
    columns = {"frame_id": "text", "n": "int"}
    meta = {"schema": "planegaze-test-v1"}
    path = tmp_path_factory.mktemp("separators") / "t.csv"
    with patch("planegaze.formats._BLOCK_ROWS", block_rows):
        _write_table(path, columns, [text, list(range(len(text)))], meta)
        table = _read_table(path, columns)
    assert table["frame_id"].tolist() == text
    assert table.lines.tolist() == [3 + k for k in range(len(text))]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_quote_free_split_matches_csv_reader(tmp_path_factory, data):
    """A file without a quote is split at its commas. A quoted metadata line sends
    the same rows through csv.reader: the columns, the line numbers and the error
    for a damaged row are the same."""
    columns, cols = data.draw(csv_tables(True, chars="az#é0. \x0c", specials=("", "#lead")))
    d = tmp_path_factory.mktemp("split")
    plain, quoted = d / "plain" / "t.csv", d / "quoted" / "t.csv"
    _write_table(plain, columns, cols, {"schema": "planegaze-test-v1", "note": "plain"})
    lines = plain.read_text(encoding="utf-8").split("\n")
    assume(not any('"' in line for line in lines))  # a lone empty cell is written quoted
    if len(lines) > 4:  # damage one data row; lines 0-2 are the metadata and the header
        k = data.draw(st.integers(3, len(lines) - 2))
        cells = lines[k].split(",")
        damage = data.draw(st.sampled_from(["cell", "short", "blank", "empty line"]))
        if damage == "cell":
            cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(st.sampled_from(["x1", "nan", "-inf", " "]))
        lines[k] = {"cell": ",".join(cells), "short": ",".join(cells[:-1]), "blank": " "}.get(damage, lines[k])
        if damage == "empty line":
            lines.insert(k, "")
    plain.write_text("\n".join(lines), encoding="utf-8")
    lines[1] = '# note: a "quoted" note'
    quoted.parent.mkdir()
    quoted.write_text("\n".join(lines), encoding="utf-8")

    def read(path):
        try:
            table = _read_table(path, columns)
        except FormatError as err:
            return err.line, str(err).removeprefix(f"{path}:{err.line}: ")
        return [(c.dtype.str, c.tobytes()) for c in table.columns.values()], table.lines.tolist()

    assert read(plain) == read(quoted)


def test_text_cells_share_one_object_per_run():
    values = np.repeat(["oracle-offset", "offset-eyes", "absolute-bbox"], [6000, 5000, 5000])
    text, index = _cells("text", values)
    cells = text[index].tolist()
    assert cells == values.tolist() and len({id(c) for c in cells}) == 3


def test_writer_memory_does_not_grow_with_the_text(tmp_path):
    """A 200,000-row report table: the writer's traced peak stays below the file's size,
    which building the whole text (or one string per line) in memory cannot do."""
    n = 200_000
    values = np.random.default_rng(5).random(64) * 100  # few distinct values: repr is not what is measured
    cdf = {
        "method": np.repeat(np.array(["oracle-offset", "offset-eyes"], dtype=object), n // 2),
        "tag_filter": np.tile(np.repeat(np.array(["", "near"], dtype=object), n // 4), 2),
        "kind": np.tile(np.repeat(np.array(["angular", "distance"], dtype=object), n // 8), 4),
        "threshold": values[np.arange(n) % 64],
        "fraction": values[::-1][np.arange(n) % 61],
    }
    path = tmp_path / "cdf.csv"
    tracemalloc.start()
    try:
        write_cdf_csv(path, cdf, {"manifest": "m.json"})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(path.read_bytes().splitlines()) == n + 4  # 3 metadata lines and the header
    assert peak < path.stat().st_size


# --- the CSV reader, a block of rows at a time ----------------------------------------


def test_text_columns_keep_the_whole_column_dtype_across_blocks(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("name,n\na,1\nbb,2\nccc,3\nd,4\n")
    with patch("planegaze.formats._BLOCK_ROWS", 2):  # blocks of width 2 and 3
        table = _read_table(path, {"name": "text", "n": "int"})
    assert table["name"].dtype == np.dtype("<U3") and table["name"].tolist() == ["a", "bb", "ccc", "d"]
    assert table["n"].tolist() == [1, 2, 3, 4] and table.lines.tolist() == [2, 3, 4, 5]


@pytest.mark.parametrize("rows, line, message", [
    (["1,2", "3,4", "5,x"], 5, "field 'b' is not an integer: 'x'"),  # a bad cell in a later block
    (["3,x", "y,6", "7,z"], 3, "field 'b' is not an integer: 'x'"),  # the first in file order, not in column order
    (["1,x", "3,4", "5"], 5, "expected 2 fields, got 1"),  # a wrong count after a bad cell comes first
    (["1,2", "3", "5,x", "7,8,9"], 4, "expected 2 fields, got 1"),
])
def test_blocks_name_the_first_problem_of_the_file(tmp_path, rows, line, message):
    """Blocks of two rows: a wrong field count anywhere comes before a bad cell, and of the bad
    cells the first in file order is named, with its own line."""
    path = tmp_path / "t.csv"
    path.write_text("# schema: x\na,b\n" + "\n".join(rows) + "\n")
    with patch("planegaze.formats._BLOCK_ROWS", 2), pytest.raises(FormatError) as err:
        _read_table(path, {"a": "int", "b": "int"})
    assert (err.value.line, str(err.value)) == (line, f"{path}:{line}: {message}")


def test_reader_memory_is_a_small_multiple_of_the_file(tmp_path):
    """A 200,000-row face table: the reader's traced peak stays below 3.5x the file's size.
    Holding every row's cells at once, as a list of lists of str, takes about 9.5x."""
    n = 200_000
    values = np.random.default_rng(7).random(64) * 1000  # few distinct values, so the writer is quick
    corner = values[np.arange(2 * n).reshape(n, 2) % 61]
    faces = FaceTable(np.char.add("f", np.arange(n // 2).repeat(2).astype(str)), np.tile(["left", "right"], n // 2),
                      np.hstack([corner, corner + 50]), values[::-1][np.arange(2 * n).reshape(n, 2) % 59])
    path = tmp_path / "faces.csv"
    write_faces(path, faces)
    tracemalloc.start()
    try:
        got = read_faces(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_same_table(got, faces)
    assert peak < 3.5 * path.stat().st_size, peak / path.stat().st_size


FRAME_TEXT = st.text(alphabet=st.sampled_from(list('ab"\\/\x00\x01\x1f\x7f\n\t\u2028é€\U0001f600 ')), max_size=5)


@settings(max_examples=200, deadline=None)
@given(entries=st.lists(st.tuples(
    FRAME_TEXT,
    st.one_of(st.sampled_from([-2**63, 2**63 - 1, 0]), st.integers(-2**63, 2**63 - 1)),
    st.lists(FRAME_TEXT, max_size=3).map(tuple),
), max_size=6))
def test_frames_writer_equals_json_dumps(entries):
    """The column frames writer writes what json.dumps(indent=2, sort_keys=True) writes at depth 1."""
    frames = FrameTable(np.array([e[0] for e in entries], dtype=str), np.array([e[1] for e in entries], dtype=np.int64),
                        tuple(e[2] for e in entries))
    want = [{"frame_id": fid, "target_id": tid, "tags": list(tags)}
            for fid, tid, tags in zip(frames.frame_id.tolist(), frames.target_id.tolist(), frames.tags)]
    assert "{\n  \"frames\": " + _frames_json(frames) + "\n}" == json.dumps({"frames": want}, indent=2, sort_keys=True)
