"""Byte identity of `evaluate` reports: pinned sha256 of every report file.

The digests were taken when the frame draws became Philox streams, with
the `evaluate` of the commit before that switch, run on the new synth
tree, so evaluation itself did not move them. They were re-pinned when
per-row rounding became the package's only rule (poses applied per row,
one normalization per ray, the pitch by atan2): every count and P@X value
was kept, and the mean angle and median distance moved in the last digits.
They were re-pinned again when `undistort_pixels` became Newton's method on
the distortion model, replacing a fixed-point iteration, which moves the
triangulated heads in their last bits: every count and P@X value was kept,
the mean angle moved by at most 1.4e-11 relative and the median distance by
7.2e-11.
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
        "summary.csv": "72b60bb32c9dca9afc162897339cd74388788ce4016107792ac7d30280eae9e1",
        "cdf.csv": "8155997b5ef728866a9f74056171c3b83bc4b0f44210d197f4a80826b74fe19c",
        "histogram.csv": "6360ced4c6ce09a2e8fcd9fe09ffa44dfd7aea241d78523fae5a8ca77bba86ac",
        "report.json": "bef58dc319648ef1d26490c9105abcc27d9328d39869f2835518853dcc3bb113",
    },
    "data_shuffled": {
        "summary.csv": "1289fd96fab8ae935dd0c340dc910c6ad3583b7ef2dd9674f14a497be2495310",
        "cdf.csv": "60f201fe79b523664e1f25ebedc65e5889eb4573be23d7aa113c6c72945fed3e",
        "histogram.csv": "a89686ecfb37296ae04a39afdc173ce0ab69f85ced637dd75cebc6684e0dd591",
        "report.json": "ec3e55d766c1814a0fb54d7495939452cc13ad3a446c566122dbde18d2607518",
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
