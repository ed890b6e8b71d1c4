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
from .base import AnalysisContext, DetectorDescriptor, Hit, register
from .common import (CHECKABLE_CALL_KINDS, ETHER_SENDING_KINDS,
                     builtin_call_name, global_member, is_balance_expression,
                     is_guard_call, is_tx_origin, unwrap)
from .index import FunctionIndex

# ---------------------------------------------------------------------------


UNCHECKED_EXTERNAL_CALLS = DetectorDescriptor(
    code="D01", id="unchecked-external-calls", name="Unchecked External Calls",
    category="security", impact="IP3",
    impact_note="IP3 type 2: major unwanted behavior (partial ether loss)",
    description="The boolean result of a low-level external call "
                "(send/call/call.value/delegatecall) is ignored.",
    advice="Check the boolean result of send/call/delegatecall, or use "
           "transfer so a failed send reverts.",
)


@register(UNCHECKED_EXTERNAL_CALLS)
def detect_unchecked_external_calls(ctx: AnalysisContext) -> Iterator[Hit]:
    for index in ctx.source.bodies():
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


DOS_UNDER_EXTERNAL_INFLUENCE = DetectorDescriptor(
    code="D02", id="dos-under-external-influence",
    name="DoS Under External Influence",
    category="security", impact="IP2",
    description="A statement that can revert the whole transaction sits "
                "inside a loop whose bound is not a compile-time constant.",
    advice="Avoid statements that can revert inside unbounded loops; check a "
           "boolean send result and continue instead of reverting.",
)


@register(DOS_UNDER_EXTERNAL_INFLUENCE)
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


STRICT_BALANCE_EQUALITY = DetectorDescriptor(
    code="D03", id="strict-balance-equality", name="Strict Balance Equality",
    category="security", impact="IP2",
    description="The contract balance is compared with == in a branch "
                "condition; forced ether transfers break exact checks.",
    advice="Compare the balance with a range (>= and <) instead of strict "
           "equality; anyone can force ether into a contract.",
)


@register(STRICT_BALANCE_EQUALITY)
def detect_strict_balance_equality(ctx: AnalysisContext) -> Iterator[Hit]:
    operators = {"=="}
    if ctx.config.strict_balance_neq:
        operators.add("!=")
    for index in ctx.source.bodies():
        for node in index.in_conditions(BinaryOperation):
            if (node.operator in operators
                    and (is_balance_expression(node.left)
                         or is_balance_expression(node.right))):
                yield (node.span,
                       f"branch condition compares the contract balance "
                       f"with {node.operator}")


# ---------------------------------------------------------------------------


UNMATCHED_TYPE_ASSIGNMENT = DetectorDescriptor(
    code="D04", id="unmatched-type-assignment", name="Unmatched Type Assignment",
    category="security", impact="IP2",
    description="A loop counter is narrower than its bound, so incrementing "
                "it can overflow and the loop never terminates.",
    advice="Declare the loop counter as uint256 (or match the bound's type) "
           "so the counter cannot wrap around.",
)


@register(UNMATCHED_TYPE_ASSIGNMENT)
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


TRANSACTION_STATE_DEPENDENCY = DetectorDescriptor(
    code="D05", id="transaction-state-dependency",
    name="Transaction State Dependency",
    category="security", impact="IP1",
    description="tx.origin is used for a permission check; intermediary "
                "contracts can make the check pass for an attacker.",
    advice="Use msg.sender for permission checks; tx.origin names the "
           "transaction originator, not the immediate caller.",
)


# is_tx_origin holds only for these (a parenthesized tx.origin is a tuple)
_ORIGIN_TYPES = (MemberAccess, TupleExpression)


@register(TRANSACTION_STATE_DEPENDENCY)
def detect_transaction_state_dependency(ctx: AnalysisContext) -> Iterator[Hit]:
    for index in ctx.source.bodies():
        if ctx.config.strict_tx_origin_all_uses:
            spots = [node for node in index.of(*_ORIGIN_TYPES)
                     if is_tx_origin(node)]
        else:
            spots = [node for node in index.in_conditions(*_ORIGIN_TYPES)
                     if is_tx_origin(node)]
            if isinstance(index.fn, ModifierDefinition):
                for node in index.of(BinaryOperation):
                    if (node.operator in ("==", "!=")
                            and (is_tx_origin(node.left)
                                 or is_tx_origin(node.right))):
                        spots.append(node)
        for node in spots:
            yield node.span, "tx.origin used in a permission check"


# ---------------------------------------------------------------------------


BLOCK_INFO_DEPENDENCY = DetectorDescriptor(
    code="D06", id="block-info-dependency", name="Block Info Dependency",
    category="security", impact="IP3",
    impact_note="IP3 type 2: major unwanted behavior, externally triggerable",
    description="Miner-controllable block data (blockhash, timestamp, "
                "number, ...) flows into a branch condition, array index, "
                "or ether transfer.",
    advice="Do not derive control flow or randomness from miner-influenced "
           "block data; use commit-reveal schemes or oracle input.",
)

_BLOCK_GLOBALS = frozenset(("block", member) for member in (
    "blockhash", "timestamp", "number", "difficulty", "coinbase"))


# _is_block_info holds only for these
_BLOCK_SOURCE_TYPES = (MemberAccess, Identifier, CallExpression)


def _is_block_info(node) -> bool:
    if isinstance(node, MemberAccess):
        return global_member(node) in _BLOCK_GLOBALS
    if isinstance(node, Identifier):
        return node.name == "now"
    return builtin_call_name(node) == "blockhash"


def _block_info_sources(index: FunctionIndex, expr) -> list[Span]:
    return [node.span for node in index.within(expr, *_BLOCK_SOURCE_TYPES)
            if _is_block_info(node)]


@register(BLOCK_INFO_DEPENDENCY)
def detect_block_info_dependency(ctx: AnalysisContext) -> Iterator[Hit]:
    for index in ctx.source.bodies():
        if not any(_is_block_info(node)
                   for node in index.of(*_BLOCK_SOURCE_TYPES)):
            continue  # every finding starts at some block info
        # local name -> source spans of block info flowing into it
        taint = index.propagate(
            lambda value: _block_info_sources(index, value),
            locals_only=False)

        def origins(expr) -> list[Span]:
            found = _block_info_sources(index, expr)
            if taint:
                for node in index.within(expr, Identifier):
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


REENTRANCY = DetectorDescriptor(
    code="D07", id="reentrancy", name="Reentrancy",
    category="security", impact="IP1",
    description="A call.value external call runs before the storage the "
                "call was guarded by is updated, so the callee can re-enter.",
    advice="Update state before making the external call, or use "
           "transfer/send whose gas stipend prevents re-entrant calls.",
)


@register(REENTRANCY)
def detect_reentrancy(ctx: AnalysisContext) -> Iterator[Hit]:
    """A call.value call is guarded by the state its guards read: the
    enclosing if/while/for conditions, plus, for calls in expression and
    declaration statements, the require/assert arguments of statements up
    to and including their own; guards that contain the call are left out.
    Calls in for-loop init and post expressions, return values and emits
    are not considered."""
    for index in ctx.source.bodies():
        if isinstance(index.fn, ModifierDefinition) \
                or "callvalue" not in map(index.kind, index.of(CallExpression)):
            continue
        # local -> the state variables its value was derived from
        deps = index.propagate(lambda value: _state_reads(index, value),
                               locals_only=True)
        known: dict[int, set[str]] = {}  # id(guard) -> the state it reads

        def reads(guard) -> set[str]:
            if id(guard) not in known:
                known[id(guard)] = set(_state_reads(index, guard)).union(
                    *(deps.get(n.name, ()) for n in index.within(guard, Identifier)))
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
    return [node.name for node in index.within(expr, Identifier)
            if node.name not in index.locals
            and node.name in index.table.state_variables]


# ---------------------------------------------------------------------------


NESTED_CALL = DetectorDescriptor(
    code="D08", id="nested-call", name="Nested Call",
    category="security", impact="IP2",
    description="An external call executes inside a loop whose iteration "
                "count is not bounded by a constant; gas use is unbounded.",
    advice="Bound the number of loop iterations before performing external "
           "calls inside the loop.",
)


@register(NESTED_CALL)
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


MISLEADING_DATA_LOCATION = DetectorDescriptor(
    code="D09", id="misleading-data-location", name="Misleading Data Location",
    category="security", impact="IP2",
    description="A reference-typed local (array/mapping/bytes/string) has no "
                "explicit data location and silently aliases storage slot 0.",
    advice="Declare the data location (memory) explicitly for array, struct "
           "and mapping locals; they default to storage pointers.",
)


@register(MISLEADING_DATA_LOCATION)
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
