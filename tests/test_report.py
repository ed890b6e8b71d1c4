from __future__ import annotations

import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from soldefect import TOOL_NAME, __version__
from soldefect.analyzer import FileOutcome
from soldefect.detectors import REGISTRY
from soldefect.records import field, lazy, record
from soldefect.report import (IMPACT_LEVELS, Finding, InputRecord, Report,
                              filter_by_impact, impact_rank, render,
                              render_json, render_sarif, render_text)

from soldefect.spans import Diagnostic, Span

from conftest import clean_outcome, findings_for, read_listing


def _finding(detector="reentrancy", impact="IP1", file="a.sol", line=3,
             category="security", pc=None) -> Finding:
    return Finding(detector=detector, category=category, impact=impact,
                   file=file, message="m", advice="a", line=line, pc=pc,
                   column=1 if line is not None else None)


def _diagnostic(message="boom") -> Diagnostic:
    return Diagnostic("error", message, Span("a.sol", 40, 7), 3, 5)


@record(slots=True, frozen=True)
class Tag:
    name: str


@record
class Note:
    text: str = field(compare=False, default="")


# the records a worker process sends back, and a frozen record of one field:
# frozen ones hash by value
FROZEN_RECORDS = {
    "finding": lambda: _finding(),
    "bytecode-finding": lambda: _finding(line=None, pc=17),
    "input": lambda: InputRecord("a.sol", "ab" * 32),
    "diagnostic": _diagnostic,
    "one-field": lambda: Tag("a.sol"),
}


@pytest.mark.parametrize("make", [*FROZEN_RECORDS.values(), lambda: FileOutcome(
    "a.sol", "ab" * 32, [_finding()], [_diagnostic()])],
    ids=[*FROZEN_RECORDS, "outcome"])
def test_records_pickle_round_trip(make):
    record = make()
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record
    assert type(copy) is type(record)
    assert repr(copy) == repr(record)


@pytest.mark.parametrize("make", FROZEN_RECORDS.values(), ids=list(FROZEN_RECORDS))
def test_frozen_records_refuse_assignment_and_hash_by_value(make):
    record = make()
    name = type(record).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(record, name, "b.sol")
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert record == make()
    assert hash(record) == hash(make())
    assert len({record, make()}) == 1


def test_frozen_records_differ_by_any_field():
    assert _finding() != _finding(line=4)
    assert len({_finding(), _finding(line=4), _finding(file="b.sol")}) == 3
    assert _diagnostic() != _diagnostic("bang")
    assert InputRecord("a.sol", "00") != InputRecord("a.sol", "01")
    assert Tag("a") != Tag("b")


def test_record_without_compared_fields():
    assert Note("a") == Note("b")
    assert repr(Note()) == "Note(text='')"


def test_a_lazy_fact_is_built_once_on_first_read():
    built = []

    class Facts:
        @lazy
        def answer(self) -> int:
            """Built on first read."""
            built.append(self)
            return 42

    facts = Facts()
    assert Facts.answer.__doc__ == "Built on first read."  # read from the class
    assert built == [] and facts.answer == 42 and facts.answer == 42
    assert built == [facts]


def test_impact_rank_order():
    assert [impact_rank(f"IP{i}") for i in range(1, 6)] == [1, 2, 3, 4, 5]
    with pytest.raises(ValueError):
        impact_rank("IP9")


def test_sorted_by_file_position_detector():
    report = Report([], [
        _finding(file="b.sol", line=1),
        _finding(file="a.sol", line=9),
        _finding(file="a.sol", line=2, detector="nested-call",
                 category="security", impact="IP2"),
        _finding(file="a.sol", line=2, detector="block-info-dependency",
                 impact="IP3"),
    ])
    keys = [(f.file, f.position, f.detector) for f in report.findings]
    assert keys == sorted(keys)


def test_filter_identity_at_ip5():
    findings = findings_for(read_listing("listing1.sol"))
    report = Report([], findings)
    assert filter_by_impact(report, "IP5").findings == report.findings


def test_filter_that_keeps_every_finding_returns_the_report():
    # nothing is sorted a second time
    report = Report([], findings_for(read_listing("listing3.sol")))
    assert filter_by_impact(report, "IP5") is report
    weakest = max(impact_rank(f.impact) for f in report.findings)
    assert filter_by_impact(report, IMPACT_LEVELS[weakest - 1]) is report
    kept = filter_by_impact(report, IMPACT_LEVELS[weakest - 2])
    assert kept is not report
    assert kept.findings == [f for f in report.findings
                             if impact_rank(f.impact) < weakest] != []


def test_filter_listing1_at_ip1_keeps_only_tx_origin():
    report = Report([], findings_for(read_listing("listing1.sol")))
    kept = filter_by_impact(report, "IP1").findings
    assert [f.detector for f in kept] == ["transaction-state-dependency"]


def test_filter_listing3_at_ip3():
    report = Report([], findings_for(read_listing("listing3.sol")))
    kept = filter_by_impact(report, "IP3").findings
    assert sorted(f.detector for f in kept) == ["greedy-contract",
                                                "misleading-data-location"]


def test_filter_idempotent_and_commutes():
    report = Report([], findings_for(read_listing("listing1.sol")))
    once = filter_by_impact(report, "IP3")
    assert filter_by_impact(once, "IP3").findings == once.findings
    detectors = {"hard-code-address", "transaction-state-dependency"}

    def only(report):
        return Report(list(report.inputs),
                      [f for f in report.findings if f.detector in detectors])

    a = only(filter_by_impact(report, "IP3"))
    b = filter_by_impact(only(report), "IP3")
    assert a.findings == b.findings


def test_render_empty_json():
    data = json.loads(render_json(Report([], [])))
    assert data["findings"] == []
    assert data["summary"] == {"by_detector": {}, "by_impact": {},
                               "by_category": {}}
    assert list(data) == ["tool", "version", "inputs", "findings", "summary"]


def test_text_one_line_per_finding():
    report = Report([], [_finding()])
    text = render_text(report).decode()
    body = [line for line in text.splitlines()
            if line and not line.startswith(" ") and "finding(s)" not in line]
    assert body == ["a.sol:3: [reentrancy][IP1] m"]


def test_render_deterministic():
    report = Report([InputRecord("a.sol", "0" * 64)],
                    findings_for(read_listing("listing1.sol")))
    for format in ("text", "json", "sarif"):
        assert render(report, format) == render(report, format)


def test_json_round_trip():
    report = Report([InputRecord("x.sol", "ab" * 32)],
                    findings_for(read_listing("listing3.sol")))
    data = json.loads(render_json(report))
    assert (data["tool"], data["version"]) == (TOOL_NAME, __version__)
    assert [InputRecord(i["path"], i["sha256"])
            for i in data["inputs"]] == report.inputs
    assert [Finding(**f) for f in data["findings"]] == report.findings


def test_json_schema_fields_always_present():
    bytecode_finding = _finding(line=None, pc=64, detector="nested-call",
                                impact="IP2")
    data = json.loads(render_json(Report([], [bytecode_finding])))
    entry = data["findings"][0]
    assert set(entry) == {"detector", "category", "impact", "file", "line",
                          "column", "pc", "message", "advice"}
    assert entry["line"] is None and entry["pc"] == 64


def test_sarif_has_rule_per_detector_and_result_per_finding():
    report = Report([], findings_for(read_listing("listing1.sol")))
    doc = json.loads(render_sarif(report))
    run = doc["runs"][0]
    assert len(run["tool"]["driver"]["rules"]) == 20
    assert len(run["results"]) == len(report.findings)
    assert doc["version"] == "2.1.0"


def test_merge_is_order_insensitive_after_sort():
    a = Report([InputRecord("a.sol", "0" * 64)], [_finding(file="a.sol")])
    b = Report([InputRecord("b.sol", "1" * 64)], [_finding(file="b.sol")])

    def merge(x, y):
        return Report(x.inputs + y.inputs, x.findings + y.findings)

    assert merge(a, b) == merge(b, a)


# -- the renderers against json.dumps ------------------------------------------
#
# The reference: each report's object form rendered by the standard library.
# The JSON and SARIF renderers must write exactly these bytes.


def reference_json(report: Report) -> dict:
    return {
        "tool": TOOL_NAME,
        "version": __version__,
        "inputs": [{"path": i.path, "sha256": i.sha256} for i in report.inputs],
        "findings": [
            {
                "detector": f.detector,
                "category": f.category,
                "impact": f.impact,
                "file": f.file,
                "line": f.line,
                "column": f.column,
                "pc": f.pc,
                "message": f.message,
                "advice": f.advice,
            }
            for f in report.findings
        ],
        "summary": report.summary(),
    }


SARIF_LEVELS = {"IP1": "error", "IP2": "error", "IP3": "warning",
                "IP4": "warning", "IP5": "note"}


def reference_sarif(report: Report) -> dict:
    rules = [
        {
            "id": d.id,
            "name": d.name.replace(" ", ""),
            "shortDescription": {"text": d.name},
            "fullDescription": {"text": d.description},
            "help": {"text": d.advice},
            "properties": {"category": d.category, "impact": d.impact,
                           "impactNote": d.impact_note},
        }
        for d in REGISTRY
    ]
    results = []
    for f in report.findings:
        region = {}
        if f.line is not None:
            region["startLine"] = f.line
            if f.column is not None:
                region["startColumn"] = f.column
        else:
            region["byteOffset"] = f.pc
        results.append({
            "ruleId": f.detector,
            "level": SARIF_LEVELS[f.impact],
            "message": {"text": f.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": f.file},
                    "region": region,
                },
            }],
        })
    return {
        "$schema": "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                   "master/Schemata/sarif-schema-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": TOOL_NAME,
                "version": __version__,
                "informationUri": "",
                "rules": rules,
            }},
            "results": results,
        }],
    }


def reference_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def assert_renders_as_reference(report: Report) -> None:
    assert render_json(report) == reference_bytes(reference_json(report))
    assert render_sarif(report) == reference_bytes(reference_sarif(report))


# strings that need escaping: quotes, backslashes, control characters,
# U+2028/U+2029, non-ASCII, astral and lone surrogate code points, and keys
# the renderers look for
awkward_text = st.lists(st.one_of(
    st.characters(exclude_categories=()),
    st.sampled_from(['"', "\\", "\n", "\r", "\t", "\x00", "\x1f", "\x7f",
                     "\u2028", "\u2029", "\u00e9", "\U0001f600", "\ud800",
                     '\n  "findings": []', '\n      "results": []'])),
    max_size=8).map("".join)
positions = st.none() | st.integers(min_value=-1, max_value=2**70)

findings = st.builds(
    Finding, detector=awkward_text, category=awkward_text,
    impact=st.sampled_from(IMPACT_LEVELS), file=awkward_text,
    message=awkward_text, advice=awkward_text, line=positions,
    column=positions, pc=positions)

reports = st.builds(
    Report,
    inputs=st.lists(st.builds(InputRecord, awkward_text, awkward_text),
                    max_size=3),
    findings=st.lists(findings, max_size=6))


@settings(max_examples=100, deadline=None)
@given(reports)
def test_renderers_match_json_dumps(report):
    assert_renders_as_reference(report)


@pytest.mark.parametrize("report", [
    Report([], []),
    Report([InputRecord("a.sol", "0" * 64)], []),
    Report([], [_finding(line=None, pc=64, detector="nested-call",
                         impact="IP2")]),
    Report([], [_finding(line=None, pc=None)]),
    Report([], [Finding("d", "c", "IP3", "a.sol", "m", "a", line=7)]),
], ids=["empty", "no-findings", "pc-only", "no-position", "no-column"])
def test_renderers_match_json_dumps_on_edge_cases(report):
    assert_renders_as_reference(report)


def test_renderers_match_json_dumps_on_the_listings():
    outcomes = [clean_outcome(read_listing(name).encode("utf-8"), name)
                for name in ("listing1.sol", "listing2.sol", "listing3.sol",
                             "listing4.sol")]
    report = Report([InputRecord(o.path, o.digest) for o in outcomes],
                    [f for o in outcomes for f in o.findings])
    assert_renders_as_reference(report)
