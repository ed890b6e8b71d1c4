"""The 20-defect detector catalog.

Importing this package registers every detector; REGISTRY holds the
descriptors in catalog order (9 security, 4 availability, 3 performance,
2 maintainability, 2 reusability).
"""

from __future__ import annotations

from ..config import DetectorConfig
from ..report import Finding
from ..spans import Diagnostic, Span
from . import availability, bytecode, maintainability, performance  # noqa: F401
from . import reusability, security  # noqa: F401
from .base import (AnalysisContext, BytecodeFacts, ContractFacts,
                   DetectorDescriptor, SourceFacts, _BYTECODE_DETECTORS,
                   _SOURCE_DETECTORS)

REGISTRY: list[DetectorDescriptor] = [
    security.UNCHECKED_EXTERNAL_CALLS,
    security.DOS_UNDER_EXTERNAL_INFLUENCE,
    security.STRICT_BALANCE_EQUALITY,
    security.UNMATCHED_TYPE_ASSIGNMENT,
    security.TRANSACTION_STATE_DEPENDENCY,
    security.BLOCK_INFO_DEPENDENCY,
    security.REENTRANCY,
    security.NESTED_CALL,
    security.MISLEADING_DATA_LOCATION,
    availability.UNMATCHED_ERC20,
    availability.MISSING_REMINDER,
    availability.MISSING_RETURN_STATEMENT,
    availability.GREEDY_CONTRACT,
    performance.UNUSED_STATEMENT,
    performance.HIGH_GAS_FUNCTION_TYPE,
    performance.HIGH_GAS_DATA_TYPE,
    maintainability.HARD_CODE_ADDRESS,
    maintainability.MISSING_INTERRUPTER,
    reusability.DEPRECATED_APIS,
    reusability.UNSPECIFIED_COMPILER_VERSION,
]

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
    """Run every enabled detector whose facts are present; never raises.

    A detector that raises contributes no findings and an error in
    ``ctx.diagnostics`` naming it; the others still run. Pure with respect
    to the facts: running twice yields identical findings in identical
    order.
    """
    findings: list[Finding] = []
    for desc in REGISTRY:
        if not ctx.config.is_enabled(desc.id):
            continue
        runs = []
        if ctx.source is not None:
            runs.append((_SOURCE_DETECTORS.get(desc.id), ctx.source.unit.span))
        if ctx.bytecode is not None and "bytecode" in desc.frontends:
            runs.append((_BYTECODE_DETECTORS.get(desc.id),
                         Span(ctx.bytecode.file_id, 1, 1, 0, 0)))
        for fn, span in runs:
            try:
                findings.extend(fn(ctx) if fn is not None else ())
            except Exception as exc:  # one detector's fault must not cost the others
                ctx.diagnostics.append(Diagnostic(
                    "error", f"detector {desc.id} ({desc.code}) failed: "
                             f"{type(exc).__name__}: {exc}", span))
    return findings


__all__ = [
    "AnalysisContext", "BytecodeFacts", "ContractFacts", "DetectorConfig",
    "DetectorDescriptor", "REGISTRY", "BY_ID", "BY_CODE", "SourceFacts",
    "resolve_detector_id", "run_detectors",
]
