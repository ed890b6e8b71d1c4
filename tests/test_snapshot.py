"""Findings snapshot: refactors of the facts or the detectors must leave the
rendered JSON report byte-identical.

The corpus is 40 synthetic 80-function contracts plus the golden listings.
Each hash is the sha256 of the JSON report with the corpus directory
prefix removed from every path, so it does not depend on where the
temporary directory lives.
"""

from __future__ import annotations

import glob
import hashlib
import os
import shutil

import pytest

from soldefect.analyzer import analyze_paths
from soldefect.config import DetectorConfig, RunConfig
from soldefect.report import render
from conftest import CORPUS_DIR
from synth import write_corpus

SNAPSHOTS = {
    "default": "2ac9ce13800db88b27ddf479a2243a3cac3b8a649368ca396507faea772c8dfc",
    "strict": "2ac9ce13800db88b27ddf479a2243a3cac3b8a649368ca396507faea772c8dfc",
}

CONFIGS = {
    "default": DetectorConfig(),
    "strict": DetectorConfig(strict_balance_neq=True,
                             strict_tx_origin_all_uses=True),
}


@pytest.fixture(scope="module")
def snapshot_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("snapshot") / "corpus"
    root.mkdir()
    write_corpus(root, 40, functions_per_contract=80, seed=7)
    listings = root / "listings"
    listings.mkdir()
    for path in sorted(glob.glob(os.path.join(CORPUS_DIR, "*.sol"))):
        shutil.copy(path, listings)
    return root


def snapshot_hash(root, detectors: DetectorConfig) -> str:
    report, outcomes = analyze_paths(
        [str(root)], RunConfig(jobs=1, detectors=detectors))
    assert all(o.error is None for o in outcomes)
    rendered = render(report, "json").replace(
        (str(root) + os.sep).encode("utf-8"), b"")
    return hashlib.sha256(rendered).hexdigest()


@pytest.mark.parametrize("name", sorted(SNAPSHOTS))
def test_findings_snapshot(snapshot_corpus, name):
    assert snapshot_hash(snapshot_corpus, CONFIGS[name]) == SNAPSHOTS[name]
