"""Self-tests of the benchmark: exact counts repeat, BENCHMARK.json matches layers.py.

    python3 -m pytest perfbench/test_repeat.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import CALIB, CATALOGUE, EVAL, EXACT_COUNTS, SYNTH  # noqa: E402


def traced_metrics(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, timeout=600, check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])["metrics"]


@pytest.mark.parametrize("workload", [EVAL, CALIB, SYNTH])
def test_exact_counts_repeat_for_a_seed(workload):
    first, second = traced_metrics(workload, 5), traced_metrics(workload, 5)
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_benchmark_json_lists_the_catalogue():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert bench["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b, _ in CATALOGUE
    ]
    assert [w["name"] for w in bench["workloads"]] == [EVAL, CALIB, SYNTH]
