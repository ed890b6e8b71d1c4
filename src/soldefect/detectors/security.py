"""Security defect detectors (nine kinds)."""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator

from ..nodes import (Assignment, BinaryOperation, CallExpression,
                     ExpressionStatement, ForStatement, Identifier,
                     IfStatement, IndexAccess, MemberAccess, ModifierDefinition,
                     NumberLiteral, Statement, ThrowStatement, TupleExpression,
                     TypeName, VariableDeclarationStatement, WhileStatement)
from ..semantic import infer_var_type
from ..spans import Span
from .base import AnalysisContext, Hit, register
from .common import (CHECKABLE_CALL_KINDS, ETHER_SENDING_KINDS,
                     builtin_call_name, global_member, is_balance_expression,
                     is_guard_call, unwrap)
from .index import FunctionIndex


@register("unchecked-external-calls")
def detect_unchecked_external_calls(ctx: AnalysisContext) -> Iterator[Hit]:
    for index in ctx.source.bodies():
        if not index.call_kinds & CHECKABLE_CALL_KINDS:
            continue
        for st in index.statements:
            stmt = st.node
            if not isinstance(stmt, ExpressionStatement):
                continue
            kind = index.kind(unwrap(stmt.expression))
            if kind in CHECKABLE_CALL_KINDS:
                yield (stmt.span,
                       f"result of .{_kind_spelling(kind)} is not checked")


def _kind_spelling(kind: str) -> str:
    return "call.value" if kind == "callvalue" else kind


# ---------------------------------------------------------------------------


@register("dos-under-external-influence")
def detect_dos_under_external_influence(ctx: AnalysisContext) -> Iterator[Hit]:
    for index in ctx.source.bodies():
        for _loop, body in index.unbounded_loops:
            for st in body:
                reason = _reverting_statement(st.node, index)
                if reason is not None:
                    yield (st.node.span,
                           f"{reason} can revert the whole transaction inside "
                           f"a loop without a constant bound")


def _reverting_statement(stmt: Statement, index: FunctionIndex) -> str | None:
    if isinstance(stmt, ThrowStatement):
        return "throw"
    if not isinstance(stmt, ExpressionStatement):
        return None
    expr = unwrap(stmt.expression)
    name = builtin_call_name(expr)
    if name in ("require", "assert", "revert"):
        return f"{name}()"
    if index.kind(expr) == "transfer":
        return ".transfer()"
    return None


# ---------------------------------------------------------------------------


@register("strict-balance-equality")
def detect_strict_balance_equality(ctx: AnalysisContext) -> Iterator[Hit]:
    operators = {"=="}
    if ctx.config.strict_balance_neq:
        operators.add("!=")
    for index in ctx.source.bodies():
        if not index.of((MemberAccess, "balance")):
            continue  # a balance expression is a member named balance
        for node in index.in_conditions(BinaryOperation):
            if (node.operator in operators
                    and (is_balance_expression(node.left)
                         or is_balance_expression(node.right))):
                yield (node.span,
                       f"branch condition compares the contract balance "
                       f"with {node.operator}")


# ---------------------------------------------------------------------------


@register("unmatched-type-assignment")
def detect_unmatched_type_assignment(ctx: AnalysisContext) -> Iterator[Hit]:
    for index in ctx.source.bodies():
        for stmt in index.of(ForStatement):
            if stmt.condition is None:
                continue
            counter = _loop_counter(stmt)
            if counter is None:
                continue
            counter_name, counter_type = counter
            if counter_type is not None and counter_type.kind == "var":
                # only a declared counter has a type, `var` among them
                counter_type = infer_var_type(
                    stmt.init.declaration.initializer,
                    lambda name: getattr(index.declaration(name, stmt.span.offset),
                                         "type_name", None))
            if counter_type is None:
                continue
            bits = counter_type.int_bits()
            if bits is None:
                continue
            problem = _bound_exceeds(stmt, counter_name, bits, index)
            if problem:
                yield (stmt.span,
                       f"loop counter {counter_name} is "
                       f"{counter_type.canonical()} but the loop bound "
                       f"{problem}")


def _loop_counter(stmt: ForStatement) -> tuple[str, TypeName | None] | None:
    init = stmt.init
    if isinstance(init, VariableDeclarationStatement) and init.declaration.name:
        return init.declaration.name, init.declaration.type_name
    if isinstance(init, ExpressionStatement):
        expr = unwrap(init.expression)
        if isinstance(expr, Assignment) and isinstance(expr.target, Identifier):
            return expr.target.name, None
    return None


def _bound_exceeds(loop: ForStatement, counter_name: str, counter_bits: int,
                   index: FunctionIndex) -> str | None:
    condition = unwrap(loop.condition)
    if not isinstance(condition, BinaryOperation) \
            or condition.operator not in ("<", "<=", ">", ">=", "!="):
        return None
    left, right = unwrap(condition.left), unwrap(condition.right)
    if isinstance(left, Identifier) and left.name == counter_name:
        bound = right
    elif isinstance(right, Identifier) and right.name == counter_name:
        bound = left
    else:
        return None
    if isinstance(bound, NumberLiteral):
        value = bound.value
        if value is None:
            return None
        # the counter must be able to reach the bound, else the loop wraps
        threshold = 1 << counter_bits
        if condition.operator in ("<=", ">="):
            threshold -= 1
        if value >= threshold:
            return f"{bound.text} exceeds its {counter_bits}-bit range"
        return None
    bound_bits = _static_bits(bound, index, loop.span.offset)
    if bound_bits is not None and bound_bits > counter_bits:
        return f"has a {bound_bits}-bit type"
    return None


def _static_bits(expr, index: FunctionIndex, at: int) -> int | None:
    if isinstance(expr, MemberAccess) and expr.member == "length":
        return 256
    if isinstance(expr, Identifier):
        decl = index.declaration(expr.name, at)
        if decl is not None:
            return decl.type_name.int_bits()
        return 256  # unresolved names: assume full width
    return None


# ---------------------------------------------------------------------------


# tx.origin, or in parentheses a tuple: what global_member gives _TX_ORIGIN for
_TX_ORIGIN = ("tx", "origin")
_ORIGINS = ((MemberAccess, *_TX_ORIGIN), (TupleExpression, *_TX_ORIGIN))


@register("transaction-state-dependency")
def detect_transaction_state_dependency(ctx: AnalysisContext) -> Iterator[Hit]:
    for index in ctx.source.bodies():
        spots = index.of(*_ORIGINS)
        if not spots:
            continue  # every spot is or holds one of them
        if not ctx.config.strict_tx_origin_all_uses:
            spots = index.in_conditions(*_ORIGINS)
            if isinstance(index.fn, ModifierDefinition):
                spots += [node for node in index.of(BinaryOperation)
                          if node.operator in ("==", "!=")
                          and _TX_ORIGIN in map(global_member, (node.left, node.right))]
        for node in spots:
            yield node.span, "tx.origin used in a permission check"


# ---------------------------------------------------------------------------


# block info: `now`, blockhash(...) and these members of `block`
_BLOCK_INFO = ((Identifier, "now"), (CallExpression, "blockhash"), *(
    (MemberAccess, "block", member) for member in (
        "blockhash", "timestamp", "number", "difficulty", "coinbase")))


def _block_info_sources(index: FunctionIndex, expr) -> list[Span]:
    return [node.span for node in index.within(expr, *_BLOCK_INFO)]


@register("block-info-dependency")
def detect_block_info_dependency(ctx: AnalysisContext) -> Iterator[Hit]:
    for index in ctx.source.bodies():
        if not index.of(*_BLOCK_INFO):
            continue  # every finding starts at some block info
        # local name -> source spans of block info flowing into it
        taint = index.propagate(
            lambda value: _block_info_sources(index, value),
            locals_only=False)

        def origins(expr) -> list[Span]:
            found = _block_info_sources(index, expr)
            if taint:
                for node in index.identifiers(expr):
                    if node.name in taint:
                        found.extend(taint[node.name])
            return found

        sinks: list = list(index.conditions)
        for node in index.of(IndexAccess, CallExpression):
            if isinstance(node, IndexAccess):
                if node.index is not None:
                    sinks.append(node.index)
            elif index.kind(node) in ETHER_SENDING_KINDS:
                _, receiver, arguments = index.call(node)
                sinks += arguments
                sinks.append(receiver)
        for sink in sinks:
            for span in origins(sink):
                yield span, "block information influences contract logic"


# ---------------------------------------------------------------------------


@register("reentrancy")
def detect_reentrancy(ctx: AnalysisContext) -> Iterator[Hit]:
    """A call.value call is guarded by the state its guards read: the
    enclosing if/while/for conditions, plus, for calls in expression and
    declaration statements, the require/assert arguments of statements up
    to and including their own; guards that contain the call are left out.
    Calls in for-loop init and post expressions, return values and emits
    are not considered."""
    for index in ctx.source.bodies():
        if isinstance(index.fn, ModifierDefinition) \
                or "callvalue" not in index.call_kinds:
            continue
        # local -> the state variables its value was derived from
        deps = index.propagate(lambda value: _state_reads(index, value),
                               locals_only=True)
        known: dict[int, set[str]] = {}  # id(guard) -> the state it reads

        def reads(guard) -> set[str]:
            if id(guard) not in known:
                known[id(guard)] = set(_state_reads(index, guard)).union(
                    *(deps.get(n.name, ()) for n in index.identifiers(guard)))
            return known[id(guard)]

        writes = sorted((expr.span.offset, k, name)
                        for k, (name, expr) in enumerate(index.state_writes))
        by_name: dict[str, list[tuple]] = {}
        for write in writes:
            by_name.setdefault(write[2], []).append(write)
        required: set[str] = set()  # read by the require/assert arguments so far
        for st in index.statements:
            stmt, arguments, prior = st.node, (), [required]
            if isinstance(stmt, (IfStatement, WhileStatement, ForStatement)):
                expr, prior = stmt.condition, []  # guarded by its conditions only
            elif isinstance(stmt, ExpressionStatement):
                expr = stmt.expression
            elif isinstance(stmt, VariableDeclarationStatement):
                expr = stmt.declaration.initializer
            else:
                continue
            if expr is None or st.for_init:
                continue
            if prior and is_guard_call(unwrap(expr)):
                arguments = unwrap(expr).arguments
            for call in index.within(expr, CallExpression):
                if index.kind(call) != "callvalue":
                    continue
                guarded = prior + [reads(c) for c in st.conditions] + [
                    reads(a) for a in arguments if not index.contains(a, call)]
                first = _first_write(writes, by_name, guarded,
                                     (call.span.offset + 1,))
                if first is not None:
                    yield (call.span, f"external call precedes the update of "
                                      f"{first[2]}, which its guard reads")
            for argument in arguments:
                required |= reads(argument)


def _first_write(writes: list[tuple], by_name: dict[str, list[tuple]],
                 guarded: list[set[str]], after: tuple) -> tuple | None:
    """The first of the sorted (offset, position, name) ``writes`` at or
    after ``after`` whose name is in a ``guarded`` set. It scans forward
    while the scan is shorter than the guarded names, then bisects each
    name's writes, so a call costs at most the smaller of the two."""
    start = bisect_left(writes, after)
    size = sum(map(len, guarded))
    for write in writes[start:start + size]:
        if any(write[2] in names for names in guarded):
            return write
    if start + size >= len(writes):
        return None
    later = [w[i] for names in guarded for name in names if (w := by_name.get(name))
             and (i := bisect_left(w, after)) < len(w)]
    return min(later, default=None)


def _state_reads(index: FunctionIndex, expr) -> list[str]:
    return [node.name for node in index.identifiers(expr)
            if node.name not in index.locals
            and node.name in index.table.state_variables]


# ---------------------------------------------------------------------------


@register("nested-call")
def detect_nested_call(ctx: AnalysisContext) -> Iterator[Hit]:
    for index in ctx.source.bodies():
        for loop, _body in index.unbounded_loops:
            for node in index.within(loop.body, CallExpression):
                if index.kind(node) in ("call", "callvalue", "send", "transfer"):
                    yield (loop.span,
                           "external call inside a loop without a constant "
                           "bound")
                    break


# ---------------------------------------------------------------------------


@register("misleading-data-location")
def detect_misleading_data_location(ctx: AnalysisContext) -> Iterator[Hit]:
    for index in ctx.source.bodies():
        for st in index.statements:
            stmt = st.node
            if not isinstance(stmt, VariableDeclarationStatement):
                continue
            decl = stmt.declaration
            if decl.data_location == "unspecified" \
                    and decl.type_name.is_reference_type():
                yield (stmt.span,
                       f"local {decl.type_name.canonical()} {decl.name} "
                       f"has no data location and points at storage")
