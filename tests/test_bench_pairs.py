"""tools/bench_pairs.py rejects a change that is wrong, fails more often than its base or is
slower beyond a metric's bound, and marks the gains it may claim."""

import importlib.util
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


OPS = [{"name": "ops_per_s", "better": "higher", "bound": 0.25}]


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
    reasons = bench_pairs.report("calib-rig", base, change, OPS)
    assert reasons == ([] if reason is None else [reason])
    assert "calib-rig: 2 pairs" in capsys.readouterr().out


def runs(metric: str, values: list[float]) -> list[dict]:
    return [{"correct": True, "attempted": 1, "failed": 0, "metrics": {metric: {"value": v}}} for v in values]


@pytest.mark.parametrize("better, base, change, rejected", [
    ("higher", [100.0] * 5, [76.0] * 5, False),  # 24% worse: inside the bound
    ("higher", [100.0] * 5, [74.0] * 5, True),
    ("lower", [1.0] * 5, [1.24] * 5, False),
    ("lower", [1.0] * 5, [1.26] * 5, True),
    ("lower", [1.0] * 5, [0.5] * 5, False),
])
def test_a_median_worse_than_the_bound_rejects(capsys, better, base, change, rejected):
    metric = [{"name": "m", "better": better, "bound": 0.25}]
    reasons = bench_pairs.report("synth-write", runs("m", base), runs("m", change), metric)
    assert len(reasons) == rejected
    if rejected:
        assert reasons[0].startswith("synth-write: m median ") and "beyond its bound 25%" in reasons[0]


@pytest.mark.parametrize("better, base, change, wins, claimable", [
    # 9 of 10 pairs won, medians 10 apart, base IQR 4.5: claimable
    ("higher", list(range(100, 110)), [v + 10 for v in range(100, 109)] + [90], 9, True),
    # 8 of 10 won: not
    ("higher", list(range(100, 110)), [v + 10 for v in range(100, 108)] + [90, 90], 8, False),
    # every pair won, but by less than the base's IQR: not
    ("higher", list(range(100, 110)), [v + 1 for v in range(100, 110)], 10, False),
    # ties count for neither side
    ("lower", [5.0] * 10, [5.0] * 10, 0, False),
    ("lower", [5.0] * 10, [4.0] * 9 + [5.0], 9, True),
    # fewer than ten pairs claim nothing
    ("lower", [5.0] * 9, [4.0] * 9, 9, False),
])
def test_claimable_needs_ten_pairs_nine_tenths_won_and_a_gap_beyond_the_base_iqr(capsys, better, base, change, wins,
                                                                      claimable):
    got_wins, _, _, got_claimable = bench_pairs.verdict(base, change, better, 0.25)
    assert (got_wins, got_claimable) == (wins, claimable)
    bench_pairs.report("eval-shared-faces", runs("m", base), runs("m", change),
                       [{"name": "m", "better": better, "bound": 0.25}])
    assert ("claimable" in capsys.readouterr().out) == claimable
