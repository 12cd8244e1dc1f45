"""Byte identity of `evaluate` reports: pinned sha256 of every report file.

The digests were taken when the frame draws became Philox streams, with
the `evaluate` of the commit before that switch, run on the new synth
tree, so evaluation itself did not move them. They were re-pinned when
per-row rounding became the package's only rule (poses applied per row,
one normalization per ray, the pitch by atan2): every count and P@X value
was kept, and the mean angle and median distance moved in the last digits.
A change here is a change of the report format and must be called out as one.
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
        "summary.csv": "ff8b98493066f6e3acb978ec83f93c08b13a459560f4aa303db016d52ad65391",
        "cdf.csv": "59855f3b98e70a360864e84006a247b4d59bbc894f33655bd287707ea81260df",
        "histogram.csv": "6360ced4c6ce09a2e8fcd9fe09ffa44dfd7aea241d78523fae5a8ca77bba86ac",
        "report.json": "1f088969f730eba8f09da13967c5c39b72e8320bbbc51f6fa2258bf6742e3778",
    },
    "data_shuffled": {
        "summary.csv": "685b73aa98d70b6f48704deb8881b7e156b8a955668fd199fafc30048190c023",
        "cdf.csv": "9a1816d0d31dec3556dd70099b2be67c81f06bcd86eb3f1d92e4481737f93a42",
        "histogram.csv": "a89686ecfb37296ae04a39afdc173ce0ab69f85ced637dd75cebc6684e0dd591",
        "report.json": "35fc05c85a86f0c9e9adbc1fb30492006532669c72cc3a3aad097fda72c1eac5",
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
