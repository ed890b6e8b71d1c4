"""AST pattern helpers shared by the source-mode detectors."""

from __future__ import annotations

from ..nodes import (BinaryOperation, Block, CallExpression,
                     ElementaryTypeExpression, Expression, ExpressionStatement,
                     HexLiteral, Identifier, IfStatement, IndexAccess,
                     MemberAccess, NumberLiteral, ReturnStatement, Statement,
                     ThrowStatement, UnaryOperation, builtin_call_name,
                     global_member, unwrap)
from ..semantic import SymbolTable


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


def is_guard_call(expr: Expression) -> bool:
    return builtin_call_name(expr) in ("require", "assert")


# ---------------------------------------------------------------------------
# Loop bounds, stores and other patterns


def bound_is_constant(condition: Expression | None,
                      table: SymbolTable) -> bool:
    """A loop bound is constant when the comparison sets a literal, or a
    `constant` state variable with a literal initializer, against a plain
    name that is not a state variable: `i < 10`, but not
    `members.length > 0`."""
    if condition is None:
        return False
    condition = unwrap(condition)
    if not isinstance(condition, BinaryOperation):
        return False
    if condition.operator not in ("<", "<=", ">", ">=", "!=", "=="):
        return False
    left, right = unwrap(condition.left), unwrap(condition.right)
    return ((_is_counter(left, table) and _is_compile_time_constant(right, table))
            or (_is_counter(right, table)
                and _is_compile_time_constant(left, table)))


def _is_counter(expr: Expression, table: SymbolTable) -> bool:
    return isinstance(expr, Identifier) and expr.name not in table.state_variables


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
