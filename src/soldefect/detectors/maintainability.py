"""Maintainability defect detectors (two kinds)."""

from __future__ import annotations

from collections.abc import Iterator

from ..evm.eip55 import is_valid_address
from ..nodes import Assignment, HexLiteral, Identifier, MemberAccess
from .base import (AnalysisContext, ContractFacts, DetectorDescriptor, Hit,
                   SourceFacts, register)
from .common import can_receive_ether, global_member, unwrap
from .index import FunctionIndex

HARD_CODE_ADDRESS = DetectorDescriptor(
    code="D17", id="hard-code-address", name="Hard Code Address",
    category="maintainability", impact="IP3",
    impact_note="IP3 type 2: major unwanted behavior (partial ether loss)",
    description="An address literal is baked into the code; it cannot be "
                "corrected after deployment and may not even pass the "
                "EIP-55 checksum.",
    advice="Pass addresses as parameters or configuration instead of "
           "hard-coding them; validate the EIP-55 checksum.",
)


@register(HARD_CODE_ADDRESS)
def detect_hard_code_address(ctx: AnalysisContext) -> Iterator[Hit]:
    for cf in ctx.source.contracts:
        for node in ctx.source.tree.within(cf.contract, HexLiteral):
            if not node.is_address:
                continue
            if node.value == 0:
                continue  # address(0) comparisons are not configuration
            if not is_valid_address(node.text):
                yield (node.span, f"illegal address: hard-coded literal "
                                  f"{node.text} fails the EIP-55 checksum")
            else:
                yield node.span, f"hard-coded address {node.text}"


# ---------------------------------------------------------------------------


MISSING_INTERRUPTER = DetectorDescriptor(
    code="D18", id="missing-interrupter", name="Missing Interrupter",
    category="maintainability", impact="IP4",
    description="A contract that can hold ether has neither a selfdestruct "
                "escape hatch nor an owner-gated circuit breaker to stop it "
                "in an emergency.",
    advice="Provide an emergency stop: a selfdestruct escape hatch or an "
           "owner-controlled circuit breaker.",
)


@register(MISSING_INTERRUPTER)
def detect_missing_interrupter(ctx: AnalysisContext) -> Iterator[Hit]:
    for cf in ctx.source.contracts:
        if not can_receive_ether(cf.table):
            continue  # cannot accumulate ether through calls
        if any("selfdestruct" in index.ether_exits
               for index in ctx.source.callables(cf)):
            continue
        if _has_circuit_breaker(cf, ctx.source):
            continue
        yield (cf.contract.span,
               f"contract {cf.contract.name} can hold ether but has no "
               f"emergency stop mechanism")


def _has_circuit_breaker(cf: ContractFacts, source: SourceFacts) -> bool:
    """An owner-gated boolean: a bool state variable checked by require/if
    in at least one externally callable function and written by an
    access-controlled function."""
    bool_states = {name for name, decl in cf.table.state_variables.items()
                   if decl.type_name.kind == "elementary"
                   and decl.type_name.name == "bool"}
    if not bool_states:
        return False

    checked: set[str] = set()
    written_controlled: set[str] = set()
    for index in source.indexes(cf.table.functions.values()):
        unshadowed = bool_states.difference(index.locals)
        if index.fn.visibility in ("public", "default", "external"):
            checked.update(node.name for node in index.in_conditions(Identifier)
                           if node.name in unshadowed)
        if _is_access_controlled(index):
            for node in index.of(Assignment):
                target = unwrap(node.target)
                if isinstance(target, Identifier) and target.name in unshadowed:
                    written_controlled.add(target.name)
    return bool(checked & written_controlled)


_CALLER_READS = frozenset((name, member) for name in ("msg", "tx")
                          for member in ("sender", "origin"))


def _is_access_controlled(index: FunctionIndex) -> bool:
    return bool(index.fn.modifiers_invoked) or any(
        global_member(node) in _CALLER_READS
        for node in index.in_conditions(MemberAccess))
