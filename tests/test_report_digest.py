"""Byte identity of `evaluate` reports: pinned sha256 of every report file.

The digests were taken when the frame draws became Philox streams, with
the `evaluate` of the commit before that switch, run on the new synth
tree, so evaluation itself did not move them. A change here is a change
of the report format and must be called out as one.
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
        "summary.csv": "1132ff46048d9734c5ff6046b46ced26e1184096624ce4bd616b874a52f94e11",
        "cdf.csv": "38f44928684061140255a413efb877ef8e8a2909198c3746359c7d767164aed8",
        "histogram.csv": "7862fe3602677cc1635f7f9e6526d42735edf27dc244278da4dd9863f2ec4abe",
        "report.json": "c84f54e6d6adb67b838500cf09fc3c36d7ac8729050b4db9425274e342d95083",
    },
    "data_shuffled": {
        "summary.csv": "9f85abba541d96961935892d0bfd1391bca574e7318a8749390d1f6f9c4cf69c",
        "cdf.csv": "649a005401e87192d1a9647cbf202010c602e734a59907728fe4da60f0b09e38",
        "histogram.csv": "ce1c14190c8d1c07db82d7bcd2ac15373fd3a4d3149c2a51b7b8eadcd58f3729",
        "report.json": "65e0d6f2d789c3ca5242436f8f2a69ee20ad1264a6884a73983eeeaeae777b72",
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
