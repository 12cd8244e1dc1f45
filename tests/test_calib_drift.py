"""tools/calib_drift.py compares the calibration outputs of two trees rig by rig: a tree against
itself drifts by nothing and keeps every exit code."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "calib_drift", Path(__file__).resolve().parents[1] / "tools" / "calib_drift.py")
calib_drift = importlib.util.module_from_spec(spec)
spec.loader.exec_module(calib_drift)


def test_a_tree_against_itself_drifts_by_nothing(tmp_path, capsys):
    """calib-rig's first two rigs at seed 7919, this tree on both sides: every column reads 0
    and the exit status is 0."""
    trees = {"base": calib_drift.ROOT, "change": calib_drift.ROOT}
    assert calib_drift.compare(trees, 7919, tmp_path, rigs=2) == 0
    header, *rows, largest = capsys.readouterr().out.splitlines()
    assert header.split() == ["rig", "base", "change", *calib_drift.COLUMNS]
    assert [row.split()[:3] for row in rows] == [["0", "0/0", "0/0"], ["1", "0/0", "0/0"]]
    for row in [*rows, largest]:
        assert [float(v) for v in row.split()[-len(calib_drift.COLUMNS):]] == [0.0] * len(calib_drift.COLUMNS)
