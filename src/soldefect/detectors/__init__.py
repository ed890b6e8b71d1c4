"""The 20-defect detector catalog.

Importing this package registers every detector; REGISTRY holds the
descriptors in catalog order (9 security, 4 availability, 3 performance,
2 maintainability, 2 reusability).
"""

from __future__ import annotations

from ..config import DetectorConfig
from ..report import Finding
from ..spans import Diagnostic, Span, position
from . import availability, bytecode, maintainability, performance  # noqa: F401
from . import reusability, security  # noqa: F401
from .base import (AnalysisContext, BytecodeFacts, ContractFacts,
                   DetectorDescriptor, SourceFacts, _BYTECODE_DETECTORS,
                   _DESCRIPTORS, _SOURCE_DETECTORS)

REGISTRY: list[DetectorDescriptor] = sorted(_DESCRIPTORS.values(),
                                            key=lambda d: d.code)

BY_ID: dict[str, DetectorDescriptor] = {d.id: d for d in REGISTRY}
BY_CODE: dict[str, DetectorDescriptor] = {d.code: d for d in REGISTRY}


def resolve_detector_id(name: str) -> str | None:
    """Accept either the slug id or the short D-code."""
    if name in BY_ID:
        return name
    if name in BY_CODE:
        return BY_CODE[name].id
    return None


def run_detectors(ctx: AnalysisContext) -> list[Finding]:
    """Run every enabled detector of the frontend whose facts ``ctx`` holds
    (a caller sets one of them); never raises.

    Each (where, message) hit a detector yields becomes a Finding with the
    detector's catalog entry: a source hit's span gives line and column
    through the file's line starts, a bytecode hit is a program counter.
    A context holds the facts of one file, source or bytecode, so within one
    detector's run only the position can differ: of the findings at one
    line or pc, only the first is kept. A detector that raises contributes
    no findings, not even the hits it yielded first, and an error in
    ``ctx.diagnostics`` naming it; the others still run.
    Pure with respect to the facts: running twice yields identical
    findings in identical order.
    """
    if ctx.source is not None:
        file_id, unit = ctx.source.file_id, ctx.source.unit
        detectors = _SOURCE_DETECTORS
        where_failed = (unit.span, *position(unit.line_starts, unit.span.offset))

        def finding(d, span, message):
            return Finding(d.id, d.category, d.impact, file_id, message,
                           d.advice, *position(unit.line_starts, span.offset))
    else:
        file_id, detectors = ctx.bytecode.file_id, _BYTECODE_DETECTORS
        where_failed = (Span(file_id, 0, 0), 1, 1)

        def finding(d, pc, message):
            return Finding(d.id, d.category, d.impact, file_id, message,
                           d.advice, pc=pc)
    findings: list[Finding] = []
    for desc in REGISTRY:
        fn = detectors.get(desc.id)
        if fn is None or not ctx.config.is_enabled(desc.id):
            continue
        try:
            found: dict[int, Finding] = {}
            for where, message in fn(ctx):
                f = finding(desc, where, message)
                found.setdefault(f.position, f)
        except Exception as exc:  # one detector's fault must not cost the others
            ctx.diagnostics.append(Diagnostic(
                "error", f"detector {desc.id} ({desc.code}) failed: "
                         f"{type(exc).__name__}: {exc}", *where_failed))
        else:
            findings += found.values()
    return findings


__all__ = [
    "AnalysisContext", "BytecodeFacts", "ContractFacts", "DetectorConfig",
    "DetectorDescriptor", "REGISTRY", "BY_ID", "BY_CODE", "SourceFacts",
    "resolve_detector_id", "run_detectors",
]
