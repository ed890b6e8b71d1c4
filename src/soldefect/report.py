"""Findings, reports, impact filtering, and the text/JSON/SARIF renderers.

Reports are deterministic: findings are deduplicated by identity
(detector, input, line-or-pc), sorted by (input, line-or-pc, detector),
and rendering the same report twice yields identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from . import TOOL_NAME, __version__

IMPACT_LEVELS = ("IP1", "IP2", "IP3", "IP4", "IP5")


def impact_rank(impact: str) -> int:
    """1 for IP1 (most severe) ... 5 for IP5."""
    try:
        return IMPACT_LEVELS.index(impact) + 1
    except ValueError:
        raise ValueError(f"unknown impact level {impact!r}") from None


@dataclass(frozen=True, slots=True)
class Finding:
    detector: str
    category: str
    impact: str
    file: str
    message: str
    advice: str
    line: Optional[int] = None
    column: Optional[int] = None
    pc: Optional[int] = None

    @property
    def position(self) -> int:
        return self.line if self.line is not None else (self.pc or 0)

    def identity(self) -> tuple:
        return (self.detector, self.file,
                self.line if self.line is not None else self.pc)

    def sort_key(self) -> tuple:
        return (self.file, self.position, self.detector,
                self.column if self.column is not None else 0)


@dataclass(frozen=True, slots=True)
class InputRecord:
    path: str
    sha256: str


@dataclass
class Report:
    inputs: list[InputRecord] = field(default_factory=list)
    findings: list[Finding] = field(default_factory=list)
    tool: str = TOOL_NAME
    version: str = __version__

    def __post_init__(self) -> None:
        self.normalize()

    def normalize(self) -> None:
        unique: dict[tuple, Finding] = {}
        for f in self.findings:
            unique.setdefault(f.identity(), f)
        self.findings = sorted(unique.values(), key=Finding.sort_key)
        self.inputs = sorted(set(self.inputs), key=lambda i: i.path)

    def summary(self) -> dict:
        by_detector: dict[str, int] = {}
        by_impact: dict[str, int] = {}
        by_category: dict[str, int] = {}
        for f in self.findings:
            by_detector[f.detector] = by_detector.get(f.detector, 0) + 1
            by_impact[f.impact] = by_impact.get(f.impact, 0) + 1
            by_category[f.category] = by_category.get(f.category, 0) + 1
        return {
            "by_detector": dict(sorted(by_detector.items())),
            "by_impact": dict(sorted(by_impact.items())),
            "by_category": dict(sorted(by_category.items())),
        }


def filter_by_impact(report: Report, min_impact: str) -> Report:
    """Keep findings at least as severe as ``min_impact`` (IP1 strongest)."""
    cutoff = impact_rank(min_impact)
    kept = [f for f in report.findings if impact_rank(f.impact) <= cutoff]
    return Report(list(report.inputs), kept, report.tool, report.version)


# ---------------------------------------------------------------------------
# Rendering


def render(report: Report, format: str) -> bytes:
    if format == "text":
        return render_text(report)
    if format == "json":
        return render_json(report)
    if format == "sarif":
        return render_sarif(report)
    raise ValueError(f"unknown output format {format!r}")


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


def report_to_obj(report: Report) -> dict:
    return {
        "tool": report.tool,
        "version": report.version,
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


def render_json(report: Report) -> bytes:
    return (json.dumps(report_to_obj(report), indent=2, sort_keys=False)
            + "\n").encode("utf-8")


_SARIF_LEVELS = {"IP1": "error", "IP2": "error", "IP3": "warning",
                 "IP4": "warning", "IP5": "note"}


def render_sarif(report: Report) -> bytes:
    """SARIF 2.1.0 with one rule per detector and one result per finding."""
    from .detectors import REGISTRY  # late import to avoid a cycle
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
            "level": _SARIF_LEVELS[f.impact],
            "message": {"text": f.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": f.file},
                    "region": region,
                },
            }],
        })
    doc = {
        "$schema": "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                   "master/Schemata/sarif-schema-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": report.tool,
                "version": report.version,
                "informationUri": "",
                "rules": rules,
            }},
            "results": results,
        }],
    }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")
