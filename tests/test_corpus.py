from __future__ import annotations

import os

import pytest

from soldefect.corpus import (ManifestError, load_manifest, score,
                              render_scorecard_text)
from soldefect.report import Finding, InputRecord, Report


def _write(tmp_path, name, text=""):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _finding(file, line, detector="transaction-state-dependency",
             impact="IP1", category="security") -> Finding:
    return Finding(detector=detector, category=category, impact=impact,
                   file=file, message="m", advice="a", line=line, column=1)


def _report(tmp_path, findings, files=("a.sol",)) -> Report:
    inputs = [InputRecord(str(tmp_path / f), "0" * 64) for f in files]
    return Report(inputs, findings)


def test_load_single_entry(tmp_path):
    _write(tmp_path, "listing1.sol", "contract A{}")
    manifest_path = _write(
        tmp_path, "m.txt", "listing1.sol:8:transaction-state-dependency\n")
    manifest = load_manifest(manifest_path)
    assert len(manifest.entries) == 1
    entry = manifest.entries[0]
    assert (entry.path, entry.line, entry.detector_id) == (
        "listing1.sol", 8, "transaction-state-dependency")


def test_empty_manifest(tmp_path):
    manifest = load_manifest(_write(tmp_path, "m.txt", "# only a comment\n\n"))
    assert manifest.entries == []


def test_wildcard_entry(tmp_path):
    _write(tmp_path, "listing1.sol", "contract A{}")
    manifest = load_manifest(_write(
        tmp_path, "m.txt", "listing1.sol:*:unspecified-compiler-version\n"))
    assert manifest.entries[0].line is None


def test_dcode_alias_accepted(tmp_path):
    _write(tmp_path, "a.sol", "contract A{}")
    manifest = load_manifest(_write(tmp_path, "m.txt", "a.sol:1:D07\n"))
    assert manifest.entries[0].detector_id == "reentrancy"


def test_malformed_line_reports_line_number(tmp_path):
    path = _write(tmp_path, "m.txt", "# ok\nnot-a-valid-line\n")
    with pytest.raises(ManifestError, match="m.txt:2"):
        load_manifest(path)


def test_line_that_is_not_a_number_rejected(tmp_path):
    _write(tmp_path, "a.sol")
    path = _write(tmp_path, "m.txt", "a.sol:eight:reentrancy\n")
    with pytest.raises(ManifestError, match="m.txt:1: line must be an integer"):
        load_manifest(path)


def test_unknown_detector_rejected(tmp_path):
    _write(tmp_path, "a.sol", "contract A{}")
    path = _write(tmp_path, "m.txt", "a.sol:1:made-up-detector\n")
    with pytest.raises(ManifestError, match="unknown detector"):
        load_manifest(path)


def test_missing_corpus_file_rejected(tmp_path):
    path = _write(tmp_path, "m.txt", "ghost.sol:1:reentrancy\n")
    with pytest.raises(ManifestError, match="no such corpus file"):
        load_manifest(path)


def test_exact_match_perfect_score(tmp_path):
    _write(tmp_path, "a.sol")
    manifest = load_manifest(_write(
        tmp_path, "m.txt", "a.sol:8:transaction-state-dependency\n"))
    report = _report(tmp_path, [_finding(str(tmp_path / "a.sol"), 8)])
    card = score(report, manifest)
    assert card.perfect
    s = card.per_detector["transaction-state-dependency"]
    assert (s.tp, s.fp, s.fn) == (1, 0, 0)
    assert s.precision == 1.0 and s.recall == 1.0


def test_missing_one_of_two_gives_half_recall(tmp_path):
    _write(tmp_path, "a.sol")
    manifest = load_manifest(_write(tmp_path, "m.txt",
        "a.sol:8:transaction-state-dependency\n"
        "a.sol:9:transaction-state-dependency\n"))
    report = _report(tmp_path, [_finding(str(tmp_path / "a.sol"), 8)])
    card = score(report, manifest)
    s = card.per_detector["transaction-state-dependency"]
    assert (s.tp, s.fn) == (1, 1)
    assert s.recall == 0.5
    assert not card.perfect


def test_extra_finding_is_false_positive(tmp_path):
    _write(tmp_path, "a.sol")
    manifest = load_manifest(_write(
        tmp_path, "m.txt", "a.sol:8:transaction-state-dependency\n"))
    report = _report(tmp_path, [
        _finding(str(tmp_path / "a.sol"), 8),
        _finding(str(tmp_path / "a.sol"), 12),
    ])
    card = score(report, manifest)
    s = card.per_detector["transaction-state-dependency"]
    assert (s.tp, s.fp) == (1, 1)
    assert s.precision == 0.5


def test_zero_over_zero_is_one(tmp_path):
    manifest = load_manifest(_write(tmp_path, "m.txt", ""))
    card = score(_report(tmp_path, []), manifest)
    assert card.micro.precision == 1.0 and card.micro.recall == 1.0
    assert card.perfect


def test_wildcard_matches_any_line(tmp_path):
    _write(tmp_path, "a.sol")
    manifest = load_manifest(_write(
        tmp_path, "m.txt", "a.sol:*:transaction-state-dependency\n"))
    report = _report(tmp_path, [_finding(str(tmp_path / "a.sol"), 42)])
    assert score(report, manifest).perfect


def test_unmatched_wildcard_is_a_miss(tmp_path):
    _write(tmp_path, "a.sol")
    manifest = load_manifest(_write(
        tmp_path, "m.txt", "a.sol:*:transaction-state-dependency\n"))
    s = score(_report(tmp_path, []), manifest) \
        .per_detector["transaction-state-dependency"]
    assert (s.tp, s.fp, s.fn) == (0, 0, 1)


def test_force_wildcard_relaxes_lines(tmp_path):
    _write(tmp_path, "a.sol")
    manifest = load_manifest(_write(
        tmp_path, "m.txt", "a.sol:8:transaction-state-dependency\n"))
    report = _report(tmp_path, [_finding(str(tmp_path / "a.sol"), 42)])
    assert not score(report, manifest).perfect
    assert score(report, manifest, force_wildcard=True).perfect


def test_distribution_counts_distinct_files(tmp_path):
    _write(tmp_path, "a.sol")
    _write(tmp_path, "b.sol")
    manifest = load_manifest(_write(tmp_path, "m.txt",
        "a.sol:1:reentrancy\nb.sol:1:reentrancy\n"))
    report = _report(tmp_path, [
        _finding(str(tmp_path / "a.sol"), 1, detector="reentrancy"),
        _finding(str(tmp_path / "b.sol"), 1, detector="reentrancy"),
    ], files=("a.sol", "b.sol"))
    card = score(report, manifest)
    assert card.distribution()["reentrancy"] == "2 (100.00%)"


def test_clean_file_changes_only_denominators(tmp_path):
    _write(tmp_path, "a.sol")
    _write(tmp_path, "clean.sol")
    manifest = load_manifest(_write(
        tmp_path, "m.txt", "a.sol:1:reentrancy\n"))
    finding = _finding(str(tmp_path / "a.sol"), 1, detector="reentrancy")
    without = score(_report(tmp_path, [finding]), manifest)
    with_clean = score(_report(tmp_path, [finding],
                               files=("a.sol", "clean.sol")), manifest)
    assert with_clean.perfect == without.perfect
    assert without.distribution()["reentrancy"] == "1 (100.00%)"
    assert with_clean.distribution()["reentrancy"] == "1 (50.00%)"


def test_score_symmetric_under_file_order(tmp_path):
    _write(tmp_path, "a.sol")
    _write(tmp_path, "b.sol")
    manifest = load_manifest(_write(tmp_path, "m.txt",
        "a.sol:1:reentrancy\nb.sol:2:nested-call\n"))
    f1 = _finding(str(tmp_path / "a.sol"), 1, detector="reentrancy")
    f2 = _finding(str(tmp_path / "b.sol"), 2, detector="nested-call",
                  impact="IP2")
    forward = score(_report(tmp_path, [f1, f2], files=("a.sol", "b.sol")),
                    manifest)
    backward = score(_report(tmp_path, [f2, f1], files=("b.sol", "a.sol")),
                     manifest)
    assert forward.perfect and backward.perfect
    for detector in ("reentrancy", "nested-call"):
        assert (forward.per_detector[detector].tp
                == backward.per_detector[detector].tp)


def test_render_scorecard_lists_all_detectors(tmp_path):
    manifest = load_manifest(_write(tmp_path, "m.txt", ""))
    text = render_scorecard_text(score(_report(tmp_path, []), manifest))
    assert "overall (micro)" in text
    assert text.count("\n") == 22  # header + 20 detectors + overall
