"""Performance defect detectors (three kinds)."""

from __future__ import annotations

from collections.abc import Iterator

from ..nodes import FunctionDefinition, VariableDeclaration
from .base import AnalysisContext, DetectorDescriptor, Hit, register

UNUSED_STATEMENT = DetectorDescriptor(
    code="D14", id="unused-statement", name="Unused Statement",
    category="performance", impact="IP5",
    description="A parameter or local variable never affects contract state, "
                "conditions, or return values.",
    advice="Remove parameters and locals that never affect state or return "
           "values.",
)


@register(UNUSED_STATEMENT)
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


HIGH_GAS_FUNCTION_TYPE = DetectorDescriptor(
    code="D15", id="high-gas-function-type",
    name="High Gas Consumption Function Type",
    category="performance", impact="IP5",
    description="A public function with array parameters is never called "
                "internally; external would read calldata instead of copying "
                "to memory.",
    advice="Declare externally-used functions with array parameters as "
           "external; calldata access is cheaper than copying to memory.",
)


def _has_array_parameter(fn) -> bool:
    for p in fn.parameters:
        t = p.type_name
        if t.kind == "array":
            return True
        if t.kind == "elementary" and t.name in ("bytes", "string"):
            return True
    return False


@register(HIGH_GAS_FUNCTION_TYPE)
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


HIGH_GAS_DATA_TYPE = DetectorDescriptor(
    code="D16", id="high-gas-data-type", name="High Gas Consumption Data Type",
    category="performance", impact="IP5",
    description="byte[] pads every element to a 32-byte slot; bytes packs "
                "tightly and is cheaper.",
    advice="Use bytes instead of byte[]; byte[] wastes 31 bytes of storage "
           "per element.",
)


def _is_byte_array(type_name) -> bool:
    return (type_name.kind == "array" and type_name.length is None
            and type_name.element is not None
            and type_name.element.kind == "elementary"
            and type_name.element.canonical() == "bytes1")


@register(HIGH_GAS_DATA_TYPE)
def detect_high_gas_data_type(ctx: AnalysisContext) -> Iterator[Hit]:
    for cf in ctx.source.contracts:
        for node in ctx.source.tree.within(cf.contract, VariableDeclaration):
            if _is_byte_array(node.type_name):
                yield (node.span,
                       f"declaration {node.name or '<unnamed>'} uses byte[]; "
                       f"bytes is cheaper")
