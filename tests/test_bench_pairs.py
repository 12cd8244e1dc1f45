"""tools/bench_pairs.py rejects a change that is wrong or fails more often than its base."""

import importlib.util
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def run(ops: float, failed: int = 0, correct: bool = True) -> dict:
    return {"correct": correct, "attempted": 20, "failed": failed, "metrics": {"ops_per_s": {"value": ops}}}


@pytest.mark.parametrize("change, reason", [
    ([run(11.0), run(12.0)], None),
    ([run(11.0, failed=1), run(12.0)], None),  # the same failed share as the base
    ([run(11.0), run(12.0, correct=False)], "calib-rig: 1 change-side runs are not correct"),
    ([run(11.0, failed=1), run(12.0, failed=1)], "calib-rig: the change fails 5.00% of its ops, the base 2.50%"),
])
def test_report_returns_the_reasons_to_reject(capsys, change, reason):
    base = [run(10.0, failed=1), run(10.0)]
    reasons = bench_pairs.report("calib-rig", base, change, {"ops_per_s": "higher"})
    assert reasons == ([] if reason is None else [reason])
    assert "calib-rig: 2 pairs" in capsys.readouterr().out
