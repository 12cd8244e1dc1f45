"""Byte identity of `evaluate` reports: pinned sha256 of every report file.

The digests were taken before per-frame errors became columns. A change
here is a change of the report format and must be called out as one.
`evaluate` runs from the dataset's parent directory with a relative
``--manifest``, because summary.csv records the manifest path as given.
"""

import hashlib
import json
import random
import shutil

import pytest

from planegaze.cli import main

SYNTH_ARGV = [
    "--frames", "120", "--calib-views", "4", "--seed", "7919", "--gaze-noise", "10", "--face-noise", "2",
]
REPORT_FILES = ("summary.csv", "cdf.csv", "histogram.csv", "report.json")
REPORT_DIGESTS = {
    "data": {
        "summary.csv": "9d33b4b37b2dd6d0859261bc64b56c1dda8bc6b58ce9adce34a59daaf4999911",
        "cdf.csv": "ca923f127c3408d9346a40a46f4f73bac6871b92679e284082ad0b5921ae056d",
        "histogram.csv": "0d5438fd2dea670ec0f41ee088683918fdaf1865cba1ca243093be390f377d17",
        "report.json": "f1f9111e4da4d7676f34e9fbdbd7832f3d80ef5c51e634017b2788a6a2506229",
    },
    "data_shuffled": {
        "summary.csv": "e7f89c76498fb4217f59b20057ae9800e90dc7b8beddee664b96e6efb4ecd0bc",
        "cdf.csv": "4b0e6d564fb3bcdd6ed51cccc0ce353a4724e334d9a36c32f8bd453729f49f7a",
        "histogram.csv": "7eb78c2a8afb29be07658c40b3a949ea625c782f0368301aaa6e1773a1e10559",
        "report.json": "319f30a53f14ad24e9ddd3790f136fb66b9ddb79a67d405d6805f0f89075a3c0",
    },
}


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    """The synth tree in data/, and a copy whose manifest lists the frames shuffled."""
    root = tmp_path_factory.mktemp("digest")
    assert main(["synth", "--out", str(root / "data"), *SYNTH_ARGV]) == 0
    shutil.copytree(root / "data", root / "data_shuffled")
    manifest = root / "data_shuffled" / "manifest.json"
    payload = json.loads(manifest.read_text())
    random.Random(7919).shuffle(payload["frames"])
    manifest.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return root


@pytest.mark.parametrize("tree", sorted(REPORT_DIGESTS))
def test_report_digests(datasets, monkeypatch, tmp_path, tree):
    monkeypatch.chdir(datasets)
    assert main(["evaluate", "--manifest", f"{tree}/manifest.json", "--out", str(tmp_path)]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in REPORT_FILES}
    assert digests == REPORT_DIGESTS[tree]
