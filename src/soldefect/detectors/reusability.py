"""Reusability defect detectors (two kinds)."""

from __future__ import annotations

from collections.abc import Iterator

from ..nodes import CallExpression, MemberAccess, ThrowStatement
from .base import AnalysisContext, Hit, register
from .common import builtin_call_name, global_member

# Free-standing calls that have modern replacements. `block.blockhash` is
# deliberately not in the default set (it only became deprecated late in the
# 0.4 line); add it via `deprecated.extra = block.blockhash` when wanted.
_DEPRECATED_CALLS = {
    "suicide": "selfdestruct()",
    "sha3": "keccak256()",
}

_DEPRECATED_MEMBERS = {
    ("msg", "gas"): "gasleft()",
}


# the nodes the checks below report, found by name, but for the extra names
_KINDS = (ThrowStatement, (MemberAccess, "callcode"),
          *((CallExpression, name) for name in _DEPRECATED_CALLS),
          *((MemberAccess, *pair) for pair in _DEPRECATED_MEMBERS))


def _deprecated(old: str, new: str | None) -> str:
    return f"deprecated {old}; use {new}" if new else f"deprecated {old}"


@register("deprecated-apis")
def detect_deprecated_apis(ctx: AnalysisContext) -> Iterator[Hit]:
    extra = set(ctx.config.deprecated_extra)
    extra_members = {tuple(name.split(".", 1)) for name in extra if "." in name}
    extra_calls = {name for name in extra if "." not in name}
    kinds = (*_KINDS, *((CallExpression, name) for name in sorted(extra_calls)), *(
        (MemberAccess, *pair) for pair in sorted(extra_members))) if extra else _KINDS
    for cf in ctx.source.contracts:
        for fn in cf.contract.functions:
            if fn.mutability == "constant":
                yield fn.span, _deprecated("`constant` function mutability",
                                           "view or pure")
        for index in ctx.source.indexes(cf.contract.functions + cf.contract.modifiers):
            for node in index.of(*kinds):
                if isinstance(node, ThrowStatement):
                    yield node.span, _deprecated("throw", "revert()")
                elif isinstance(node, CallExpression):
                    name = builtin_call_name(node)
                    yield node.span, _deprecated(f"{name}()", _DEPRECATED_CALLS.get(name))
                elif (pair := global_member(node)) in _DEPRECATED_MEMBERS \
                        or pair in extra_members:
                    yield node.span, _deprecated(".".join(pair),
                                                 _DEPRECATED_MEMBERS.get(pair))
                else:  # a member named callcode
                    yield node.span, _deprecated(".callcode", "delegatecall")


# ---------------------------------------------------------------------------


@register("unspecified-compiler-version")
def detect_unspecified_compiler_version(ctx: AnalysisContext) -> Iterator[Hit]:
    unit = ctx.source.unit
    solidity_pragmas = [p for p in unit.pragmas if p.name == "solidity"]
    if not solidity_pragmas:
        yield unit.span, "no compiler version pragma"
    for pragma in solidity_pragmas:
        if pragma.constraint_kind != "exact":
            yield (pragma.span, f"pragma solidity {pragma.version_text} "
                                f"accepts multiple compiler versions")
