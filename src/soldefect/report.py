"""Findings, reports, impact filtering, and the text/JSON/SARIF renderers.

Reports are deterministic: findings come deduplicated from
``run_detectors``, a report sorts them by (input, line-or-pc, detector) and
its inputs by path, and rendering the same report twice yields identical
bytes.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from . import TOOL_NAME, __version__
from .catalog import REGISTRY
from .records import field, record

IMPACT_LEVELS = ("IP1", "IP2", "IP3", "IP4", "IP5")


def impact_rank(impact: str) -> int:
    """1 for IP1 (most severe) ... 5 for IP5."""
    try:
        return IMPACT_LEVELS.index(impact) + 1
    except ValueError:
        raise ValueError(f"unknown impact level {impact!r}") from None


@record(slots=True, frozen=True)
class Finding:
    detector: str
    category: str
    impact: str
    file: str
    message: str
    advice: str
    line: int | None = None
    column: int | None = None
    pc: int | None = None

    @property
    def position(self) -> int:
        return self.line if self.line is not None else (self.pc or 0)

    def sort_key(self) -> tuple:
        return (self.file, self.position, self.detector,
                self.column if self.column is not None else 0)


@record(slots=True, frozen=True)
class InputRecord:
    path: str
    sha256: str


@record
class Report:
    inputs: list[InputRecord] = field(default_factory=list)
    findings: list[Finding] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.findings = sorted(self.findings, key=Finding.sort_key)
        self.inputs = sorted(self.inputs, key=lambda i: i.path)

    def summary(self) -> dict:
        counts: dict[str, dict[str, int]] = {
            "by_detector": {}, "by_impact": {}, "by_category": {}}
        for f in self.findings:
            for count, key in zip(counts.values(),
                                  (f.detector, f.impact, f.category)):
                count[key] = count.get(key, 0) + 1
        return {name: dict(sorted(count.items()))
                for name, count in counts.items()}


def filter_by_impact(report: Report, min_impact: str) -> Report:
    """Keep findings at least as severe as ``min_impact`` (IP1 strongest);
    ``report`` itself when that keeps them all, as the default IP5 does."""
    cutoff = impact_rank(min_impact)
    kept = [f for f in report.findings if impact_rank(f.impact) <= cutoff]
    if len(kept) == len(report.findings):
        return report
    return Report(list(report.inputs), kept)


# ---------------------------------------------------------------------------
# Rendering


def render(report: Report, format: str) -> bytes:
    """The report in ``format``, one of ``config.FORMATS``."""
    return {"text": render_text, "json": render_json,
            "sarif": render_sarif}[format](report)


def render_text(report: Report) -> bytes:
    lines = []
    for f in report.findings:
        where = str(f.line) if f.line is not None else f"pc={f.pc}"
        lines.append(f"{f.file}:{where}: [{f.detector}][{f.impact}] {f.message}")
    summary = report.summary()
    lines.append("")
    lines.append(f"{len(report.findings)} finding(s) in {len(report.inputs)} input(s)")
    for impact, count in summary["by_impact"].items():
        lines.append(f"  {impact}: {count}")
    return ("\n".join(lines) + "\n").encode("utf-8")


# The findings array is the only part of a report that grows with the
# input, and json.dumps with an indent never uses the C encoder. So each
# finding is rendered by a template that writes, byte for byte, what
# json.dumps(indent=2) writes for it, its strings escaped by the C escaper
# json.dumps itself uses; the fixed parts still go through json.dumps.
# tests/test_report.py holds the json.dumps rendering as the reference.

_FINDING_JSON = """\
    {
      "detector": %s,
      "category": %s,
      "impact": %s,
      "file": %s,
      "line": %s,
      "column": %s,
      "pc": %s,
      "message": %s,
      "advice": %s
    }"""


def _number(value: int | None) -> str:
    return "null" if value is None else int.__repr__(value)


def _with_array(doc: dict, key: str, depth: int, items: list[str]) -> str:
    """``json.dumps(doc, indent=2)``, with the empty list that ``doc`` holds
    under ``key``, ``depth`` levels deep, replaced by ``items``: JSON values
    already rendered one level deeper.

    No other line of the text can match: json.dumps escapes every newline
    inside a string, so the key's line is told apart by its indent.
    """
    text = json.dumps(doc, indent=2) + "\n"
    if not items:
        return text
    indent = "\n" + "  " * depth
    empty = f'{indent}"{key}": []'
    return text.replace(empty, f'{indent}"{key}": [\n'
                        + ",\n".join(items) + f"{indent}]", 1)


def render_json(report: Report) -> bytes:
    q = encode_basestring_ascii
    findings = [
        _FINDING_JSON % (q(f.detector), q(f.category), q(f.impact), q(f.file),
                         _number(f.line), _number(f.column), _number(f.pc),
                         q(f.message), q(f.advice))
        for f in report.findings
    ]
    doc = {
        "tool": TOOL_NAME,
        "version": __version__,
        "inputs": [{"path": i.path, "sha256": i.sha256} for i in report.inputs],
        "findings": [],
        "summary": report.summary(),
    }
    return _with_array(doc, "findings", 1, findings).encode("utf-8")


_SARIF_LEVELS = {"IP1": "error", "IP2": "error", "IP3": "warning",
                 "IP4": "warning", "IP5": "note"}

_SARIF_RESULT = """\
        {
          "ruleId": %s,
          "level": "%s",
          "message": {
            "text": %s
          },
          "locations": [
            {
              "physicalLocation": {
                "artifactLocation": {
                  "uri": %s
                },
                "region": {
                  %s
                }
              }
            }
          ]
        }"""

_SARIF_REGION_SEP = ",\n" + " " * 18


def _sarif_region(f: Finding) -> str:
    if f.line is None:
        return f'"byteOffset": {_number(f.pc)}'
    if f.column is None:
        return f'"startLine": {_number(f.line)}'
    return (f'"startLine": {_number(f.line)}{_SARIF_REGION_SEP}'
            f'"startColumn": {_number(f.column)}')


def render_sarif(report: Report) -> bytes:
    """SARIF 2.1.0 with one rule per detector and one result per finding."""
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
    q = encode_basestring_ascii
    results = [
        _SARIF_RESULT % (q(f.detector), _SARIF_LEVELS[f.impact], q(f.message),
                         q(f.file), _sarif_region(f))
        for f in report.findings
    ]
    doc = {
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
            "results": [],
        }],
    }
    return _with_array(doc, "results", 3, results).encode("utf-8")
