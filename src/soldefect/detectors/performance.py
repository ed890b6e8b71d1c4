"""Performance defect detectors (three kinds)."""

from __future__ import annotations

from collections.abc import Iterator

from ..nodes import FunctionDefinition, VariableDeclaration
from .base import AnalysisContext, Hit, register


@register("unused-statement")
def detect_unused_statement(ctx: AnalysisContext) -> Iterator[Hit]:
    for index in ctx.source.bodies():
        if not isinstance(index.fn, FunctionDefinition):
            continue
        for var in index.def_use:
            if var.live:
                continue
            role = "parameter" if var.is_parameter else "local variable"
            yield (var.declaration.span,
                   f"{role} {var.declaration.name} never affects contract "
                   f"statements or return values")


# ---------------------------------------------------------------------------


def _has_array_parameter(fn) -> bool:
    return any(t.kind == "array" or (t.kind == "elementary" and t.name in ("bytes", "string"))
               for t in (p.type_name for p in fn.parameters))


@register("high-gas-function-type")
def detect_high_gas_function_type(ctx: AnalysisContext) -> Iterator[Hit]:
    for cf in ctx.source.contracts:
        for fn in cf.contract.functions:
            if fn.body is None or fn.is_constructor or fn.is_fallback:
                continue
            if fn.visibility not in ("public", "default"):
                continue
            if not _has_array_parameter(fn) or fn.name in ctx.source.callees(cf):
                continue
            yield (fn.span,
                   f"public function {fn.name} takes array arguments and has "
                   f"no internal callers; declare it external")


# ---------------------------------------------------------------------------


def _is_byte_array(type_name) -> bool:
    return (type_name.kind == "array" and type_name.length is None
            and type_name.element is not None
            and type_name.element.kind == "elementary"
            and type_name.element.canonical() == "bytes1")


@register("high-gas-data-type")
def detect_high_gas_data_type(ctx: AnalysisContext) -> Iterator[Hit]:
    for cf in ctx.source.contracts:
        for node in ctx.source.tree.within(cf.contract, VariableDeclaration):
            if _is_byte_array(node.type_name):
                yield (node.span,
                       f"declaration {node.name or '<unnamed>'} uses byte[]; "
                       f"bytes is cheaper")
