"""AST pattern helpers shared by the source-mode detectors."""

from __future__ import annotations

from typing import Optional

from ..nodes import (BinaryOperation, Block, CallExpression, Expression,
                     ExpressionStatement, HexLiteral, Identifier, IfStatement,
                     IndexAccess, MemberAccess, NumberLiteral, ReturnStatement,
                     Statement, ThrowStatement, TupleExpression, UnaryOperation)
from ..semantic import SymbolTable


def unwrap(expr: Expression) -> Expression:
    while isinstance(expr, TupleExpression) and len(expr.components) == 1:
        expr = expr.components[0]
    return expr


# ---------------------------------------------------------------------------
# External call classification

ETHER_SENDING_KINDS = frozenset({"send", "transfer", "callvalue"})
CHECKABLE_CALL_KINDS = frozenset({"send", "call", "callvalue", "delegatecall"})


def external_call_kind(expr: Expression) -> Optional[str]:
    """Classify `x.send(..)`, `x.call(..)`, `x.call.value(..)(..)`,
    `x.delegatecall(..)`, `x.transfer(..)` style call expressions.

    Returns one of send/transfer/call/callvalue/delegatecall/callcode,
    or None when the expression is not a low-level external call. Both
    the invoked form `.call.value(x)()` and the bare builder form
    `.call.value(x)` classify as "callvalue".
    """
    if not isinstance(expr, CallExpression):
        return None
    callee = unwrap(expr.callee)
    if isinstance(callee, CallExpression):
        return external_call_kind(callee)
    if not isinstance(callee, MemberAccess):
        return None
    member = callee.member
    if member in ("send", "transfer", "delegatecall", "callcode"):
        return member
    if member == "call":
        return "call"
    if member in ("value", "gas"):
        inner = unwrap(callee.object)
        if isinstance(inner, MemberAccess):
            if inner.member == "call":
                return "callvalue" if member == "value" else "call"
            if inner.member in ("delegatecall", "callcode"):
                return inner.member
        if isinstance(inner, CallExpression):
            kind = external_call_kind(inner)
            if kind in ("call", "callvalue"):
                return "callvalue" if member == "value" else kind
            return kind
    return None


def call_target(expr: Expression) -> Optional[Expression]:
    """Leftmost object of an external-call chain (the callee address)."""
    node = expr
    while True:
        node = unwrap(node)
        if isinstance(node, CallExpression):
            node = node.callee
        elif isinstance(node, MemberAccess):
            if node.member in ("send", "transfer", "call", "delegatecall",
                               "callcode", "value", "gas"):
                node = node.object
            else:
                return node
        else:
            return node


def call_chain_arguments(expr: Expression) -> list[Expression]:
    """All argument expressions of a call chain, e.g. the value and gas
    amounts plus the final invocation arguments."""
    args: list[Expression] = []
    node: Expression = expr
    while isinstance(node, CallExpression):
        args.extend(node.arguments)
        node = unwrap(node.callee)
        while isinstance(node, MemberAccess):
            obj = unwrap(node.object)
            node = obj
            if isinstance(obj, CallExpression):
                break
    return args


def builtin_call_name(expr: Expression) -> Optional[str]:
    if isinstance(expr, CallExpression):
        callee = unwrap(expr.callee)
        if isinstance(callee, Identifier):
            return callee.name
    return None


def is_guard_call(expr: Expression) -> bool:
    return builtin_call_name(expr) in ("require", "assert")


# ---------------------------------------------------------------------------
# Loop bounds, stores and other patterns


def bound_is_constant(condition: Optional[Expression],
                      table: SymbolTable) -> bool:
    """A loop bound is constant when the comparison involves a literal or
    a `constant` state variable with a literal initializer."""
    if condition is None:
        return False
    condition = unwrap(condition)
    if not isinstance(condition, BinaryOperation):
        return False
    if condition.operator not in ("<", "<=", ">", ">=", "!=", "=="):
        return False
    return (_is_compile_time_constant(condition.left, table)
            or _is_compile_time_constant(condition.right, table))


def _is_compile_time_constant(expr: Expression, table: SymbolTable) -> bool:
    expr = unwrap(expr)
    if isinstance(expr, (NumberLiteral, HexLiteral)):
        return True
    if isinstance(expr, UnaryOperation) and isinstance(unwrap(expr.operand),
                                                       (NumberLiteral, HexLiteral)):
        return True
    if isinstance(expr, Identifier):
        decl = table.lookup_state(expr.name)
        return (decl is not None and decl.is_constant
                and isinstance(decl.initializer, (NumberLiteral, HexLiteral)))
    return False


def store_base(expr: Expression) -> Optional[Identifier]:
    expr = unwrap(expr)
    while isinstance(expr, (IndexAccess, MemberAccess)):
        expr = expr.base if isinstance(expr, IndexAccess) else expr.object
        expr = unwrap(expr)
    return expr if isinstance(expr, Identifier) else None


def is_balance_expression(expr: Expression) -> bool:
    """Matches this.balance and address(this).balance."""
    expr = unwrap(expr)
    if not isinstance(expr, MemberAccess) or expr.member != "balance":
        return False
    obj = unwrap(expr.object)
    if isinstance(obj, Identifier) and obj.name == "this":
        return True
    if isinstance(obj, CallExpression):
        from ..nodes import ElementaryTypeExpression
        callee = unwrap(obj.callee)
        if (isinstance(callee, ElementaryTypeExpression)
                and callee.type_name.name == "address"
                and len(obj.arguments) == 1):
            inner = unwrap(obj.arguments[0])
            return isinstance(inner, Identifier) and inner.name == "this"
    return False


def is_tx_origin(expr: Expression) -> bool:
    expr = unwrap(expr)
    return (isinstance(expr, MemberAccess) and expr.member == "origin"
            and isinstance(unwrap(expr.object), Identifier)
            and unwrap(expr.object).name == "tx")


def returns_on_all_paths(stmt: Statement | None) -> bool:
    """Conservatively: does every path through stmt end in return/throw/revert?"""
    if stmt is None:
        return False
    if isinstance(stmt, (ReturnStatement, ThrowStatement)):
        return True
    if isinstance(stmt, ExpressionStatement):
        return builtin_call_name(unwrap(stmt.expression)) == "revert"
    if isinstance(stmt, Block):
        return any(returns_on_all_paths(s) for s in stmt.statements)
    if isinstance(stmt, IfStatement):
        return (stmt.else_branch is not None
                and returns_on_all_paths(stmt.then_branch)
                and returns_on_all_paths(stmt.else_branch))
    return False
