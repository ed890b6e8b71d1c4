"""Availability defect detectors (four kinds)."""

from __future__ import annotations

from collections.abc import Iterator

from ..nodes import (EmitStatement, ExpressionStatement, FunctionDefinition,
                     IfStatement, ModifierDefinition, ThrowStatement)
from ..semantic import SymbolTable
from .base import AnalysisContext, Hit, register
from .common import (builtin_call_name, can_receive_ether, is_guard_call,
                     is_revert, returns_on_all_paths, unwrap)
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


@register("unmatched-erc20")
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


@register("missing-reminder")
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


@register("missing-return-statement")
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


@register("greedy-contract")
def detect_greedy_contract(ctx: AnalysisContext) -> Iterator[Hit]:
    for cf in ctx.source.contracts:
        if not can_receive_ether(cf.table):
            continue
        if any(index.ether_exits for index in ctx.source.callables(cf)):
            continue
        yield (cf.contract.span,
               f"contract {cf.contract.name} can receive ether but has no way "
               f"to send it out")
