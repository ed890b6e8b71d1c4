"""AST pattern helpers shared by the source-mode detectors."""

from __future__ import annotations

from ..nodes import (BinaryOperation, Block, CallExpression,
                     ElementaryTypeExpression, Expression, ExpressionStatement,
                     HexLiteral, Identifier, IfStatement, IndexAccess,
                     MemberAccess, NumberLiteral, ReturnStatement, Statement,
                     ThrowStatement, TupleExpression, UnaryOperation)
from ..semantic import SymbolTable


def unwrap(expr: Expression) -> Expression:
    while isinstance(expr, TupleExpression) and len(expr.components) == 1:
        expr = expr.components[0]
    return expr


# ---------------------------------------------------------------------------
# External call classification

ETHER_SENDING_KINDS = frozenset({"send", "transfer", "callvalue"})
CHECKABLE_CALL_KINDS = frozenset({"send", "call", "callvalue", "delegatecall"})


# the members a low-level call chain is built from, and of them the ones
# that take a `.value`/`.gas` builder
_CHAIN_MEMBERS = frozenset({"send", "transfer", "call", "delegatecall",
                            "callcode", "value", "gas"})
_BUILDABLE = frozenset({"call", "delegatecall", "callcode"})


def external_call(expr: Expression) -> tuple[str | None, Expression,
                                            list[Expression]]:
    """Decode a call chain such as `x.send(..)`, `x.call(..)`,
    `x.call.value(..)(..)` or `x.delegatecall.gas(..)(..)` in one walk down
    its callees and member objects: (kind, receiver, arguments).

    kind is one of send/transfer/call/callvalue/delegatecall/callcode, or
    None when expr is not a low-level external call; both the invoked form
    `.call.value(x)()` and the bare builder form `.call.value(x)` are
    "callvalue". The receiver is the first node of the walk that is neither
    a call nor a chain member (`f(y).call()` gives `f`). The arguments are
    those of every call on the walk, outermost first: the final
    invocation's, then the value and gas amounts.
    """
    kind = None
    deciding = isinstance(expr, CallExpression)  # only chain members so far
    values = False   # a `.value` builder lies above the member deciding it
    called = False   # a call lies between this member and the one above
    receiver = None
    arguments: list[Expression] = []
    node: Expression = expr
    while True:
        node = unwrap(node)
        if isinstance(node, CallExpression):
            arguments += node.arguments
            called = True
            node = node.callee
        elif isinstance(node, MemberAccess):
            member = node.member
            if receiver is None and member not in _CHAIN_MEMBERS:
                receiver = node
            if deciding:
                if called and member in ("value", "gas"):
                    values |= member == "value"
                else:
                    deciding = False
                    if member in (_CHAIN_MEMBERS if called else _BUILDABLE):
                        kind = member
            called = False
            node = node.object
        else:
            break
    if kind == "call" and values:
        kind = "callvalue"
    return kind, node if receiver is None else receiver, arguments


def builtin_call_name(expr: Expression) -> str | None:
    if isinstance(expr, CallExpression):
        callee = unwrap(expr.callee)
        if isinstance(callee, Identifier):
            return callee.name
    return None


def is_guard_call(expr: Expression) -> bool:
    return builtin_call_name(expr) in ("require", "assert")


# ---------------------------------------------------------------------------
# Loop bounds, stores and other patterns


def bound_is_constant(condition: Expression | None,
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
        decl = table.state_variables.get(expr.name)
        return (decl is not None and decl.is_constant
                and isinstance(decl.initializer, (NumberLiteral, HexLiteral)))
    return False


def store_base(expr: Expression) -> Identifier | None:
    expr = unwrap(expr)
    while isinstance(expr, (IndexAccess, MemberAccess)):
        expr = expr.base if isinstance(expr, IndexAccess) else expr.object
        expr = unwrap(expr)
    return expr if isinstance(expr, Identifier) else None


def global_member(expr: Expression) -> tuple[str, str] | None:
    """(name, member) for a member of a bare name, such as `tx.origin`,
    `msg.sender`, `block.number` or `this.balance`; None otherwise."""
    expr = unwrap(expr)
    if isinstance(expr, MemberAccess):
        obj = unwrap(expr.object)
        if isinstance(obj, Identifier):
            return obj.name, expr.member
    return None


def is_balance_expression(expr: Expression) -> bool:
    """Matches this.balance and address(this).balance."""
    if global_member(expr) == ("this", "balance"):
        return True
    expr = unwrap(expr)
    if not isinstance(expr, MemberAccess) or expr.member != "balance":
        return False
    obj = unwrap(expr.object)
    if isinstance(obj, CallExpression):
        callee = unwrap(obj.callee)
        if (isinstance(callee, ElementaryTypeExpression)
                and callee.type_name.name == "address"
                and len(obj.arguments) == 1):
            inner = unwrap(obj.arguments[0])
            return isinstance(inner, Identifier) and inner.name == "this"
    return False


def is_tx_origin(expr: Expression) -> bool:
    return global_member(expr) == ("tx", "origin")


def is_selfdestruct(expr: Expression) -> bool:
    return builtin_call_name(expr) in ("selfdestruct", "suicide")


def can_receive_ether(table: SymbolTable) -> bool:
    """Whether a payable function of ``table`` has a body to take ether."""
    return any(f.is_payable and f.body is not None
               for f in table.functions.values())


def is_revert(stmt: Statement) -> bool:
    """`throw;` or `revert(...);`."""
    return isinstance(stmt, ThrowStatement) or (
        isinstance(stmt, ExpressionStatement)
        and builtin_call_name(unwrap(stmt.expression)) == "revert")


def returns_on_all_paths(stmt: Statement) -> bool:
    """Conservatively: does every path through stmt end in return/throw/revert?"""
    if isinstance(stmt, ReturnStatement) or is_revert(stmt):
        return True
    if isinstance(stmt, Block):
        return any(returns_on_all_paths(s) for s in stmt.statements)
    if isinstance(stmt, IfStatement):
        return (stmt.else_branch is not None
                and returns_on_all_paths(stmt.then_branch)
                and returns_on_all_paths(stmt.else_branch))
    return False
