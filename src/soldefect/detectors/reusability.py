"""Reusability defect detectors (two kinds)."""

from __future__ import annotations

from collections.abc import Iterator

from ..nodes import CallExpression, MemberAccess, ThrowStatement
from .base import AnalysisContext, DetectorDescriptor, Hit, register
from .common import builtin_call_name, global_member

DEPRECATED_APIS = DetectorDescriptor(
    code="D19", id="deprecated-apis", name="Deprecated APIs",
    category="reusability", impact="IP5",
    description="The code uses constructs the language has replaced (throw, "
                "suicide, sha3, callcode, msg.gas, constant mutability).",
    advice="Replace deprecated constructs (throw, suicide, sha3, callcode, "
           "msg.gas, constant) with their modern equivalents.",
)

# Free-standing calls that have modern replacements. `block.blockhash` is
# deliberately not in the default set (it only became deprecated late in the
# 0.4 line); add it via `deprecated.extra = block.blockhash` when wanted.
_DEPRECATED_CALLS = {
    "suicide": "selfdestruct",
    "sha3": "keccak256",
}

_DEPRECATED_MEMBERS = {
    ("msg", "gas"): "gasleft()",
}


def _deprecated(old: str, new: str | None) -> str:
    return f"deprecated {old}; use {new}" if new else f"deprecated {old}"


@register(DEPRECATED_APIS)
def detect_deprecated_apis(ctx: AnalysisContext) -> Iterator[Hit]:
    extra = set(ctx.config.deprecated_extra)
    extra_members = {tuple(name.split(".", 1)) for name in extra if "." in name}
    extra_calls = {name for name in extra if "." not in name}
    for cf in ctx.source.contracts:
        for fn in cf.contract.functions:
            if fn.mutability == "constant":
                yield fn.span, _deprecated("`constant` function mutability",
                                           "view or pure")
        for index in ctx.source.indexes(cf.contract.functions + cf.contract.modifiers):
            for node in index.of(ThrowStatement, CallExpression, MemberAccess):
                if isinstance(node, ThrowStatement):
                    yield node.span, _deprecated("throw", "revert()")
                elif isinstance(node, CallExpression):
                    name = builtin_call_name(node)
                    if name in _DEPRECATED_CALLS:
                        yield node.span, _deprecated(
                            f"{name}()", f"{_DEPRECATED_CALLS[name]}()")
                    elif name in extra_calls:
                        yield node.span, _deprecated(f"{name}()", None)
                else:
                    pair = global_member(node)
                    if pair in _DEPRECATED_MEMBERS:
                        yield node.span, _deprecated(".".join(pair),
                                                     _DEPRECATED_MEMBERS[pair])
                    elif pair in extra_members:
                        yield node.span, _deprecated(".".join(pair), None)
                    elif node.member == "callcode":
                        yield node.span, _deprecated(".callcode", "delegatecall")


# ---------------------------------------------------------------------------


UNSPECIFIED_COMPILER_VERSION = DetectorDescriptor(
    code="D20", id="unspecified-compiler-version",
    name="Unspecified Compiler Version",
    category="reusability", impact="IP5",
    description="The file has no solidity pragma, or the pragma accepts a "
                "range of compiler versions instead of pinning one.",
    advice="Pin the pragma to one compiler version (pragma solidity 0.4.25;) "
           "so future compilers cannot change behavior.",
)


@register(UNSPECIFIED_COMPILER_VERSION)
def detect_unspecified_compiler_version(ctx: AnalysisContext) -> Iterator[Hit]:
    unit = ctx.source.unit
    solidity_pragmas = [p for p in unit.pragmas if p.name == "solidity"]
    if not solidity_pragmas:
        yield unit.span, "no compiler version pragma"
    for pragma in solidity_pragmas:
        if pragma.constraint_kind != "exact":
            yield (pragma.span, f"pragma solidity {pragma.version_text} "
                                f"accepts multiple compiler versions")
