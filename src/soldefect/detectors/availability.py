"""Availability defect detectors (four kinds)."""

from __future__ import annotations

from collections.abc import Iterator

from ..nodes import (CallExpression, EmitStatement, ExpressionStatement,
                     FunctionDefinition, IfStatement, ModifierDefinition,
                     ThrowStatement)
from ..semantic import SymbolTable
from .base import AnalysisContext, DetectorDescriptor, Hit, register
from .common import (ETHER_SENDING_KINDS, builtin_call_name,
                     can_receive_ether, is_guard_call, is_revert,
                     is_selfdestruct, returns_on_all_paths, unwrap)
from .index import FunctionIndex

# ---------------------------------------------------------------------------
# ERC-20 interface tables

# Each mandatory function: name, parameter types, return types, and its
# 4-byte selector, the first four bytes of the keccak256 of its signature,
# written out so that no run has to hash them.
ERC20_MANDATORY: tuple[tuple[str, tuple[str, ...], tuple[str, ...], int], ...] = (
    ("totalSupply", (), ("uint256",), 0x18160DDD),
    ("balanceOf", ("address",), ("uint256",), 0x70A08231),
    ("transfer", ("address", "uint256"), ("bool",), 0xA9059CBB),
    ("transferFrom", ("address", "address", "uint256"), ("bool",), 0x23B872DD),
    ("approve", ("address", "uint256"), ("bool",), 0x095EA7B3),
    ("allowance", ("address", "address"), ("uint256",), 0xDD62ED3E),
)

ERC20_OPTIONAL: tuple[tuple[str, tuple[str, ...], tuple[str, ...]], ...] = (
    ("name", (), ("string",)),
    ("symbol", (), ("string",)),
    ("decimals", (), ("uint8",)),
)

ERC20_EVENTS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("Transfer", ("address", "address", "uint256")),
    ("Approval", ("address", "address", "uint256")),
)


UNMATCHED_ERC20 = DetectorDescriptor(
    code="D10", id="unmatched-erc20", name="Unmatched ERC-20 Standard",
    category="availability", impact="IP4",
    description="A token-like contract deviates from the ERC-20 interface: "
                "missing mandatory functions, wrong return types, or missing "
                "Transfer/Approval events.",
    advice="Match the ERC-20 interface exactly: the six mandatory functions, "
           "their bool/uint256 return types, and the Transfer/Approval events.",
)


@register(UNMATCHED_ERC20)
def detect_unmatched_erc20(ctx: AnalysisContext) -> Iterator[Hit]:
    for cf in ctx.source.contracts:
        if all(_erc20_function(cf.table, name, params) is None
               for name, params, *_ in ERC20_MANDATORY):
            continue
        problems: list[str] = []
        for prefix, entries in (("", ERC20_MANDATORY),
                                ("optional ", ERC20_OPTIONAL)):
            for name, params, expected_returns, *_ in entries:
                fn = _erc20_function(cf.table, name, params)
                if fn is None:
                    if not prefix:  # only the mandatory ones must exist
                        problems.append(
                            f"missing function {name}({','.join(params)})")
                    continue
                actual = tuple(r.type_name.canonical() for r in fn.returns_)
                if actual != expected_returns:
                    problems.append(
                        f"{prefix}{name} must return "
                        f"({','.join(expected_returns)}), found ({','.join(actual)})")
        for event_name, params in ERC20_EVENTS:
            event = cf.table.events.get(event_name)
            if event is None:
                problems.append(f"missing event {event_name}")
            else:
                actual = tuple(p.type_name.canonical() for p in event.parameters)
                if actual != params:
                    problems.append(
                        f"event {event_name} must take ({','.join(params)})")
        if problems:
            yield (cf.contract.span,
                   f"contract {cf.contract.name} deviates from ERC-20: "
                   + "; ".join(sorted(problems)))


def _erc20_function(table: SymbolTable, name: str,
                    params: tuple[str, ...]) -> FunctionDefinition | None:
    """The function ``name(params)`` that ``table`` holds, unless it is
    missing or a constructor."""
    fn = table.functions.get(f"{name}({','.join(params)})")
    return None if fn is None or fn.is_constructor else fn


# ---------------------------------------------------------------------------


MISSING_REMINDER = DetectorDescriptor(
    code="D11", id="missing-reminder", name="Missing Reminder",
    category="availability", impact="IP4",
    description="A payable function changes state or conditionally reverts "
                "but never emits an event, so callers cannot observe the "
                "outcome.",
    advice="Emit an event so callers can observe whether the function "
           "succeeded.",
)


@register(MISSING_REMINDER)
def detect_missing_reminder(ctx: AnalysisContext) -> Iterator[Hit]:
    for index in ctx.source.bodies():
        fn = index.fn
        if isinstance(fn, ModifierDefinition) or not fn.is_payable:
            continue
        if not (index.state_writes or _has_conditional_revert(index)):
            continue
        if _emits_event(index):
            continue
        label = fn.name or "fallback function"
        yield (fn.span, f"payable function {label} gives callers no event to "
                        f"observe its outcome")


def _has_conditional_revert(index: FunctionIndex) -> bool:
    return any(is_revert(inner) for stmt in index.of(IfStatement)
               for inner in index.within(stmt, ThrowStatement,
                                         ExpressionStatement)) \
        or any(is_guard_call(unwrap(stmt.expression))
               for stmt in index.of(ExpressionStatement))


def _emits_event(index: FunctionIndex) -> bool:
    return bool(index.of(EmitStatement)) or any(
        builtin_call_name(unwrap(stmt.expression)) in index.table.events
        for stmt in index.of(ExpressionStatement))


# ---------------------------------------------------------------------------


MISSING_RETURN_STATEMENT = DetectorDescriptor(
    code="D12", id="missing-return-statement", name="Missing Return Statement",
    category="availability", impact="IP4",
    description="A function declares return values but some path reaches the "
                "end without returning, so callers observe the zero default.",
    advice="Return an explicit value on every path; callers otherwise "
           "observe the zero default.",
)


@register(MISSING_RETURN_STATEMENT)
def detect_missing_return_statement(ctx: AnalysisContext) -> Iterator[Hit]:
    for cf in ctx.source.contracts:
        for fn in cf.contract.functions:
            if fn.body is None or not fn.returns_:
                continue
            if any(r.name for r in fn.returns_):
                continue  # named returns are implicitly returned
            if returns_on_all_paths(fn.body):
                continue
            yield (fn.span,
                   f"function {fn.name or 'fallback'} declares return values "
                   f"but does not return on every path")


# ---------------------------------------------------------------------------


GREEDY_CONTRACT = DetectorDescriptor(
    code="D13", id="greedy-contract", name="Greedy Contract",
    category="availability", impact="IP3",
    impact_note="IP3 type 1: critical unwanted behavior, not externally "
                "triggerable",
    description="The contract can receive ether (payable function) but has "
                "no transfer/send/call.value/selfdestruct to move it out.",
    advice="Add a withdrawal path (transfer/send/call.value or selfdestruct) "
           "to any contract that can receive ether.",
)


@register(GREEDY_CONTRACT)
def detect_greedy_contract(ctx: AnalysisContext) -> Iterator[Hit]:
    for cf in ctx.source.contracts:
        if not can_receive_ether(cf.table):
            continue
        if _can_move_ether_out(ctx.source.callables(cf)):
            continue
        yield (cf.contract.span,
               f"contract {cf.contract.name} can receive ether but has no way "
               f"to send it out")


def _can_move_ether_out(callables: list[FunctionIndex]) -> bool:
    return any(index.kind(node) in ETHER_SENDING_KINDS or is_selfdestruct(node)
               for index in callables for node in index.of(CallExpression))
