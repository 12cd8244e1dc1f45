"""tools/bench_pairs.py rejects a change that is wrong, fails more often than its base or is
slower beyond a metric's bound, and marks the gains it may claim."""

import importlib.util
import json
import re
import shutil
import subprocess
import sys
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
    reasons, _ = bench_pairs.report("calib-rig", base, change, OPS)
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
    reasons, _ = bench_pairs.report("synth-write", runs("m", base), runs("m", change), metric)
    assert len(reasons) == rejected
    if rejected:
        assert reasons[0] == (f"synth-write: m median {change[0]:.6g} is {abs(change[0] / base[0] - 1):.1%} worse"
                              f" than the base's {base[0]:.6g}, beyond its bound 25%")


def test_report_prints_each_side_its_own_median(capsys):
    bench_pairs.report("synth-write", runs("m", [1.0, 2.0, 3.0]), runs("m", [7.0, 8.0, 9.0]),
                       [{"name": "m", "better": "higher", "bound": 0.25}])
    row = next(line for line in capsys.readouterr().out.splitlines() if line.split()[:1] == ["m"])
    assert re.match(r"\s*m\s+2 \[.*\]\s+8 \[", row)  # base median, then change median


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


def git(root, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=root, check=True,
                   capture_output=True)


def tree_files(root: Path) -> set[str]:
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}


def test_both_sides_are_fresh_copies_without_bytecode(tmp_path):
    """The working tree's compiled bytecode is not copied, so its side imports from the
    same cold state as the base export; edits and new unignored files are."""
    repo = tmp_path / "repo"
    (repo / "pkg").mkdir(parents=True)
    (repo / "pkg" / "mod.py").write_text("X = 1\n")
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "base")
    (repo / "pkg" / "mod.py").write_text("X = 2\n")
    (repo / "pkg" / "new.py").write_text("Y = 1\n")
    for where in ("pkg", "."):
        cache = repo / where / "__pycache__"
        cache.mkdir()
        (cache / "mod.cpython-311.pyc").write_bytes(b"\0" * 16)

    base = bench_pairs.export("HEAD", tmp_path / "base", root=repo)
    change = bench_pairs.export_worktree(tmp_path / "change", root=repo)
    assert tree_files(base) == {"pkg/mod.py"}
    assert tree_files(change) == {"pkg/mod.py", "pkg/new.py"}
    assert (change / "pkg" / "mod.py").read_text() == "X = 2\n"


@pytest.fixture()
def repo(tmp_path, monkeypatch):
    """A throwaway repository holding the files main reads, made ROOT: main exports its
    commits, so the tests that run main need a repository even where the tree they run
    from is not one."""
    root = tmp_path / "repo"
    for name in ("BENCHMARK.json", "perfbench/run.py", "src/planegaze/__init__.py"):
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(bench_pairs.ROOT / name, root / name)
    git(root, "init", "-q")
    git(root, "add", "-A")
    git(root, "commit", "-q", "-m", "base")
    monkeypatch.setattr(bench_pairs, "ROOT", root)
    return root


def test_main_runs_neither_side_in_the_repository(repo, monkeypatch, capsys):
    trees = []

    def fake_run(tree, workload, seed, seconds):
        trees.append(tree)
        assert not list(tree.rglob("__pycache__"))
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {m: {"value": 1.0} for m in ("ops_per_s", "setup_s", "peak_rss_mb")}}

    monkeypatch.setattr(bench_pairs, "run", fake_run)
    assert bench_pairs.main(["--pairs", "2", "--workload", "calib-rig", "--seconds", "1"]) == 0
    assert len(trees) == 4 and len(set(trees)) == 2
    assert bench_pairs.ROOT not in trees and trees[0].parent == trees[1].parent


def test_both_trees_run_from_one_path(repo, monkeypatch, capsys):
    """The path a tree runs from moves its peak RSS, so each side's tree is renamed to one
    run path for each of its runs, and back afterwards."""
    real_run, runs = subprocess.run, []

    def fake_subprocess_run(argv, **kwargs):
        if argv[0] != sys.executable:  # git
            return real_run(argv, **kwargs)
        here = Path(kwargs["cwd"])
        assert Path(argv[1]) == here / "perfbench" / "run.py" and Path(argv[1]).is_file()
        runs.append((here, sorted(p.name for p in here.parent.iterdir())))
        final = {"correct": True, "attempted": 1, "failed": 0, "metrics": {m: {"value": 1.0} for m in RECORD_METRICS}}
        stdout = json.dumps({"detail": {"environment": {}}}) + "\n" + json.dumps(final) + "\n"
        return subprocess.CompletedProcess(argv, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_subprocess_run)
    assert bench_pairs.main(["--pairs", "2", "--workload", "synth-write", "--seconds", "1"]) == 0
    assert len(runs) == 4 and len({here for here, _ in runs}) == 1
    # pair 1 runs the base first, pair 2 the change; the side not running keeps its own name
    assert [names for _, names in runs] == [["run", "work"], ["base", "run"], ["base", "run"], ["run", "work"]]


RECORD_METRICS = ("ops_per_s", "setup_s", "peak_rss_mb")


def check_record(record: dict) -> None:
    """The schema of a BENCH_<pr>.json record."""
    assert set(record) == {"base", "change", "seed", "seconds", "workloads"}
    assert set(record["base"]) == {"ref", "sha"} and len(record["base"]["sha"]) == 40
    assert set(record["change"]) == {"head", "code_sha256"} and len(record["change"]["code_sha256"]) == 64
    assert isinstance(record["seed"], int) and isinstance(record["seconds"], float)
    assert record["workloads"] and set(record["workloads"]) <= set(bench_pairs.WORKLOADS)
    for entry in record["workloads"].values():
        # "counts" (one traced run's counts per side) is absent from records written before --record kept them
        assert set(entry) - {"counts"} == {"pairs", "failed_share", "host", "metrics"} and entry["pairs"] >= 1
        for counts in ([entry["counts"]] if "counts" in entry else []):
            assert set(counts) == {"base", "change"}
            assert all(isinstance(v, (int, float)) for side in counts.values() for v in side.values())
        assert set(entry["failed_share"]) == set(entry["host"]) == {"base", "change"}
        assert all(0.0 <= share <= 1.0 for share in entry["failed_share"].values())
        assert set(entry["metrics"]) == set(RECORD_METRICS)
        for m in entry["metrics"].values():
            assert set(m) == {"base", "change", "better", "median_change", "wins", "regressed", "claimable"}
            for side in ("base", "change"):
                # "runs" (each run's value) is absent from records written before --record kept them
                assert set(m[side]) - {"runs"} == {"q1", "median", "q3"}
                assert m[side]["q1"] <= m[side]["median"] <= m[side]["q3"]
                for values in ([m[side]["runs"]] if "runs" in m[side] else []):
                    assert len(values) == entry["pairs"] and all(isinstance(v, (int, float)) for v in values)
            assert 0 <= m["wins"] <= entry["pairs"] and isinstance(m["claimable"], bool)


def test_record_schema_sorted_keys_repr_floats_and_merge(repo, tmp_path, monkeypatch, capsys):
    """--record writes the pairs as JSON with sorted keys and repr floats; a second
    invocation for another workload merges into the same record. No perfbench run starts."""
    def fake_run(tree, workload, seed, seconds, trace=0):
        if trace:
            return TRACED
        return {"correct": True, "attempted": 10, "failed": 1 if workload == "calib-rig" else 0,
                "environment": {"nproc": 2, "blas_threads": "1"},
                "metrics": {m: {"value": 1.0 / 3.0} for m in RECORD_METRICS}}

    monkeypatch.setattr(bench_pairs, "run", fake_run)
    path = tmp_path / "BENCH_0.json"
    assert bench_pairs.main(["--pairs", "2", "--workload", "calib-rig", "--seconds", "1", "--record", str(path)]) == 0
    assert bench_pairs.main(["--pairs", "1", "--workload", "synth-write", "--seconds", "1", "--record", str(path)]) == 0
    text = path.read_text()
    record = json.loads(text)
    check_record(record)
    assert text == json.dumps(record, indent=2, sort_keys=True) + "\n"
    assert repr(1.0 / 3.0) in text  # floats as repr writes them
    assert set(record["workloads"]) == {"calib-rig", "synth-write"}
    assert record["workloads"]["calib-rig"]["pairs"] == 2 and record["workloads"]["calib-rig"]["failed_share"]["base"] == 0.1
    with pytest.raises(SystemExit, match="not merged"):
        bench_pairs.main(["--pairs", "1", "--workload", "synth-write", "--seconds", "2", "--record", str(path)])


def test_record_keeps_each_side_s_value_in_every_run():
    """The record keeps each run's value next to the quartiles, in pair order, so a reader can
    see where the change's runs fall in the base's range."""
    entry = bench_pairs.record_entry(runs("ops_per_s", [3.0, 1.0, 2.0]), runs("ops_per_s", [4.0, 6.0, 5.0]), OPS)
    metric = entry["metrics"]["ops_per_s"]
    assert metric["base"]["runs"] == [3.0, 1.0, 2.0] and metric["base"]["median"] == 2.0
    assert metric["change"]["runs"] == [4.0, 6.0, 5.0] and metric["change"]["median"] == 5.0


TRACED = {"correct": True, "attempted": 3, "failed": 0, "environment": {}, "metrics": {
    "optimize.lm_iterations": {"value": 73, "unit": "count"},
    "optimize.residual_evals_per_iter": {"value": 1.125, "unit": "evals/iter"},
    "triangulation.head_point.calls_per_frame": {"value": 2.0, "unit": "calls/frame"},
    "camera.undistort_pixels.points_per_call": {"value": 54.0, "unit": "points/call"},
    "optimize.residual.s": {"value": 0.03, "unit": "s"},
    "formats.bytes_read": {"value": 5e5, "unit": "bytes-computed"},
    "trace.overhead_ratio": {"value": 0.02, "unit": "ratio"},
}}


def test_record_keeps_one_traced_run_s_counts_per_side(repo, tmp_path, monkeypatch, capsys):
    """--record adds one --trace 1 run per side and workload, after its pairs, and keeps that run's
    counts and no seconds; without --record no traced run is made."""
    calls = []

    def fake_run(tree, workload, seed, seconds, trace=0):
        calls.append((tree.name, trace))
        if trace:
            return {**TRACED, "metrics": {**TRACED["metrics"], "trace.spans": {"value": len(calls), "unit": "count"}}}
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": {m: {"value": 1.0} for m in RECORD_METRICS}}

    monkeypatch.setattr(bench_pairs, "run", fake_run)
    assert bench_pairs.main(["--pairs", "1", "--workload", "calib-rig", "--seconds", "1"]) == 0
    assert [trace for _, trace in calls] == [0, 0]
    calls.clear()
    path = tmp_path / "BENCH_0.json"
    assert bench_pairs.main(["--pairs", "2", "--workload", "calib-rig", "--seconds", "1", "--record", str(path)]) == 0
    assert calls[4:] == [("base", 1), ("work", 1)] and all(trace == 0 for _, trace in calls[:4])
    record = json.loads(path.read_text())
    check_record(record)
    counts = record["workloads"]["calib-rig"]["counts"]
    want = {"optimize.lm_iterations": 73, "optimize.residual_evals_per_iter": 1.125,
            "triangulation.head_point.calls_per_frame": 2.0, "camera.undistort_pixels.points_per_call": 54.0}
    assert counts == {"base": {**want, "trace.spans": 5}, "change": {**want, "trace.spans": 6}}


@pytest.mark.parametrize("path", sorted(bench_pairs.ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_records_follow_the_schema(path):
    check_record(json.loads(path.read_text(encoding="utf-8")))
