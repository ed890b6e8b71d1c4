"""Semantic facts over the AST, each in the form its detectors read: one
flat symbol table per contract (inherited members merged), `var` type
inference, the names a contract's code calls, and def-use liveness.

Each builder is one pass whose cost grows with the input's size, not its
depth: bases are merged from one stack, and liveness takes its reads in
one loop over the body's statements as ``nodes.statements`` lists them,
then spreads back from the variables read live, taking each variable
once; each body's fact index runs it on its own statement list and the
file's ``nodes.NodeIndex`` (``FunctionIndex.def_use``), so a run without
D14 computes none. The callee names find their calls in that node index
when the caller passes it, else in one built for each function alone.

All analyses are intra-procedural and conservative: anything that escapes
the patterns below (unresolved names, calls, container writes) is treated
as live / unknown rather than dead, which keeps the unused-statement and
gas detectors free of speculative positives.
"""

from __future__ import annotations

from .nodes import (Assignment, BinaryOperation, BoolLiteral,
                    CallExpression, Conditional, ContractDefinition,
                    ElementaryTypeExpression, EmitStatement, EventDefinition,
                    Expression, ExpressionStatement, ForStatement,
                    FunctionDefinition, HexLiteral, Identifier, IfStatement,
                    IndexAccess, MemberAccess, ModifierDefinition, NodeIndex,
                    NumberLiteral, ReturnStatement, SourceUnit, StatementFacts,
                    StringLiteral, TupleExpression, TypeName, UnaryOperation,
                    VariableDeclaration, VariableDeclarationStatement,
                    WhileStatement, statements)
from .records import field, record
from .spans import Diagnostic, Span, position

# ---------------------------------------------------------------------------
# Inheritance flattening and symbol tables


@record
class SymbolTable:
    """Flattened member lookup for one contract (inherited members merged,
    derived definitions win)."""

    contract: ContractDefinition
    state_variables: dict[str, VariableDeclaration] = field(default_factory=dict)
    # signature -> function, in merge order
    functions: dict[str, FunctionDefinition] = field(default_factory=dict)
    modifiers: dict[str, ModifierDefinition] = field(default_factory=dict)
    events: dict[str, EventDefinition] = field(default_factory=dict)


def flatten_contract(unit: SourceUnit, contract: ContractDefinition,
                     diagnostics: list[Diagnostic]) -> SymbolTable:
    """Merge inherited members, derived-contract overrides winning.

    Bases are resolved by name within the same source unit, through the
    map that the unit builds once (``SourceUnit.contracts_by_name``), and
    taken depth-first in declared order from one stack, each contract
    merged after its own bases; a base that appears more than once through
    different paths (diamond) is merged once and a warning is recorded.
    """
    table = SymbolTable(contract)
    seen: set[str] = set()
    repeated: list[str] = []
    stack = [(contract, False)]
    while stack:
        c, bases_merged = stack.pop()
        if bases_merged:
            for var in c.state_variables:
                table.state_variables[var.name] = var
            for fn in c.functions:
                key = fn.signature
                table.functions.pop(key, None)  # an override moves to the end
                table.functions[key] = fn
            for mod in c.modifiers:
                table.modifiers[mod.name] = mod
            for event in c.events:
                table.events[event.name] = event
        elif c.name in seen:
            repeated.append(c.name)
        else:
            seen.add(c.name)
            stack.append((c, True))
            # pushed last first, so the first declared base is taken first
            stack += [(base, False)
                      for base in map(unit.contracts_by_name.get, reversed(c.bases))
                      if base is not None]
    diagnostics += [Diagnostic(
        "warning", f"contract {contract.name}: base {name} inherited more "
                   f"than once; flat-union merge applied", contract.span,
        *position(unit.line_starts, contract.span.offset)) for name in repeated]
    return table


# ---------------------------------------------------------------------------
# Callee names


def build_call_graph(table: SymbolTable,
                     tree: NodeIndex | None = None) -> set[str]:
    """Every name that a function or modifier of ``table`` calls by plain
    name or invokes as a modifier, modifier arguments included. External
    member calls are not counted. ``tree`` indexes the file that declares
    them; without it each function is indexed alone."""
    callees: set[str] = set()
    for fn in [*table.functions.values(), *table.modifiers.values()]:
        if isinstance(fn, FunctionDefinition):
            callees.update(name for name, _args in fn.modifiers_invoked)
        calls = (tree or NodeIndex(fn)).within(fn, CallExpression)
        callees.update(node.callee.name for node in calls
                       if isinstance(node.callee, Identifier))
    return callees


# ---------------------------------------------------------------------------
# Def-use / transitive liveness


@record
class VarFacts:
    declaration: VariableDeclaration
    is_parameter: bool
    # positions in the function's list of the variables read into this one
    sources: list[int] = field(default_factory=list)
    live: bool = False


def compute_def_use(function: FunctionDefinition) -> list[VarFacts]:
    """``liveness`` from the function's own statements and node index."""
    tree = NodeIndex(function)
    return liveness(function, statements(function),
                    lambda expr: tree.within(expr, Identifier))


def liveness(function: FunctionDefinition, body: list[StatementFacts],
             identifiers) -> list[VarFacts]:
    """Transitive liveness of each parameter and local: one entry per
    declaration, the parameters, then the locals in order.

    A variable is live iff some read of it (directly or through a chain
    of local-to-local assignments) reaches anything other than another
    dead local: a state write, return value, condition, call argument,
    event argument, index expression, and so on. Named return variables
    are exempt (implicitly read by the return machinery).

    Each name read resolves to the declaration in scope at that point: a
    local hides a parameter or an earlier local of its name from its
    declaration on. The reads are taken in one loop over ``body``, the
    body's statements as ``nodes.statements`` lists them, a for loop's init,
    condition and post expression at the loop, ahead of its body; the
    identifiers an expression reads, in pre-order, from
    ``identifiers(expr)``, which the body's fact index answers once per
    expression for every detector that asks (``FunctionIndex.identifiers``).
    """
    variables: list[VarFacts] = []
    # name -> position of its declaration in variables, or None for a
    # named return, whose reads are not tracked
    scope: dict[str, int | None] = {}
    for param in function.parameters:
        if param.name:
            scope[param.name] = len(variables)
            variables.append(VarFacts(param, True))
    for ret in function.returns_:
        if ret.name:
            scope[ret.name] = None

    # No helper below refers to itself, so none holds a reference cycle
    # that would keep the tree alive once the facts are dropped.
    def reads(expr: Expression | None) -> list[int]:
        """The parameters and locals in scope that `expr` reads."""
        if expr is None or not variables:
            return []
        return [v for node in identifiers(expr)
                if (v := scope.get(node.name)) is not None]

    def consume(expr: Expression | None) -> None:
        for v in reads(expr):
            variables[v].live = True

    def expression(expr: Expression | None) -> None:
        if isinstance(expr, Assignment):
            target = expr.target
            if isinstance(target, Identifier):
                written = scope.get(target.name)
                if written is not None:  # a parameter or local
                    variables[written].sources += reads(expr.value)
                    return
            # state, member and container stores: everything read stays
            # conservatively live; the variable written through is not read
            while isinstance(target, (IndexAccess, MemberAccess)):
                if isinstance(target, IndexAccess):
                    consume(target.index)
                    target = target.base
                else:
                    target = target.object
            consume(expr.value)
        elif isinstance(expr, UnaryOperation) \
                and expr.operator in ("++", "--", "delete") \
                and isinstance(expr.operand, Identifier):
            pass  # bumping or deleting a variable writes it, not reads it
        else:
            consume(expr)

    def simple(stmt) -> None:
        """A declaration or expression statement."""
        if isinstance(stmt, VariableDeclarationStatement):
            decl = stmt.declaration
            # the initializer reads what was in scope before this name
            sources = reads(decl.initializer)
            scope[decl.name] = len(variables)
            variables.append(VarFacts(decl, False, sources))
        elif isinstance(stmt, ExpressionStatement):
            expression(stmt.expression)

    for st in body:
        stmt = st.node
        cls = stmt.__class__
        if cls is IfStatement or cls is WhileStatement:
            consume(stmt.condition)
        elif cls is ForStatement:  # a missing part reads nothing
            simple(stmt.init)
            consume(stmt.condition)
            expression(stmt.post)
        elif cls is ReturnStatement:
            consume(stmt.value)
        elif cls is EmitStatement:
            consume(stmt.call)
        elif cls is VariableDeclarationStatement or cls is ExpressionStatement:
            if not st.for_init:  # its loop took the init statement
                simple(stmt)

    # a variable read into a live one is live: each is pushed at most once
    work = [vf for vf in variables if vf.live]
    while work:
        for v in work.pop().sources:
            source = variables[v]
            if not source.live:
                source.live = True
                work.append(source)
    return variables


# ---------------------------------------------------------------------------
# `var` type inference


_MEMBER_TYPES = {
    ("msg", "value"): "uint256",
    ("msg", "sender"): "address",
    ("msg", "gas"): "uint256",
    ("tx", "origin"): "address",
    ("tx", "gasprice"): "uint256",
    ("block", "timestamp"): "uint256",
    ("block", "number"): "uint256",
    ("block", "difficulty"): "uint256",
    ("block", "gaslimit"): "uint256",
    ("block", "coinbase"): "address",
    ("this", "balance"): "uint256",
}


def infer_var_type(initializer: Expression | None,
                   lookup=None) -> TypeName | None:
    """Infer the type a `var` declaration takes from its initializer.

    Integer literals get the smallest uintN (intN when negative) whose
    range contains the value; other initializers get their static type
    when it is derivable, else None (unknown), as is a missing
    initializer. `lookup(name)` resolves identifiers to declared TypeNames.
    """
    if initializer is None:
        return None
    return _infer(initializer, lookup or (lambda name: None))


def smallest_int_type(value: int, span: Span) -> TypeName:
    if value >= 0:
        bits = 8
        while bits < 256 and value >= (1 << bits):
            bits += 8
        return TypeName("elementary", span, name=f"uint{bits}")
    bits = 8
    while bits < 256 and not (-(1 << (bits - 1)) <= value < (1 << (bits - 1))):
        bits += 8
    return TypeName("elementary", span, name=f"int{bits}")


_BOOL_OPERATORS = frozenset({"==", "!=", "<", ">", "<=", ">=", "&&", "||"})


def _infer(expr: Expression, lookup) -> TypeName | None:
    if isinstance(expr, NumberLiteral):
        value = expr.value
        if value is None:
            return None
        return smallest_int_type(value, expr.span)
    if isinstance(expr, BoolLiteral):
        return TypeName("elementary", expr.span, name="bool")
    if isinstance(expr, StringLiteral):
        return TypeName("elementary", expr.span, name="string")
    if isinstance(expr, HexLiteral):
        if expr.is_address:
            return TypeName("elementary", expr.span, name="address")
        return smallest_int_type(expr.value, expr.span)
    if isinstance(expr, UnaryOperation):
        if expr.operator == "-" and isinstance(expr.operand, NumberLiteral):
            value = expr.operand.value
            if value is None:
                return None
            return smallest_int_type(-value, expr.span)
        if expr.operator == "!":
            return TypeName("elementary", expr.span, name="bool")
        return _infer(expr.operand, lookup)
    if isinstance(expr, TupleExpression) and len(expr.components) == 1:
        return _infer(expr.components[0], lookup)
    if isinstance(expr, Identifier):
        return lookup(expr.name)
    if isinstance(expr, MemberAccess):
        if expr.member == "length":
            return TypeName("elementary", expr.span, name="uint256")
        if isinstance(expr.object, Identifier):
            known = _MEMBER_TYPES.get((expr.object.name, expr.member))
            if known:
                return TypeName("elementary", expr.span, name=known)
        base = _infer(expr.object, lookup)
        if base is not None and expr.member == "balance" \
                and base.kind == "elementary" and base.name == "address":
            return TypeName("elementary", expr.span, name="uint256")
        return None
    if isinstance(expr, IndexAccess):
        base = _infer(expr.base, lookup)
        if base is None:
            return None
        if base.kind == "array":
            return base.element
        if base.kind == "mapping":
            return base.value_type
        return None
    if isinstance(expr, CallExpression):
        if isinstance(expr.callee, ElementaryTypeExpression):
            return expr.callee.type_name
        return None
    if isinstance(expr, BinaryOperation):
        if expr.operator in _BOOL_OPERATORS:
            return TypeName("elementary", expr.span, name="bool")
        # The parser builds `a + b + ...` in a loop, so its nesting limit does
        # not bound this left spine: walk it without recursing.
        rights = []
        while isinstance(expr, BinaryOperation) \
                and expr.operator not in _BOOL_OPERATORS:
            rights.append(expr.right)
            expr = expr.left
        left = _infer(expr, lookup)
        for right_expr in reversed(rights):
            right = _infer(right_expr, lookup)
            lb = left.int_bits() if left is not None else None
            rb = right.int_bits() if right is not None else None
            if lb is not None and rb is not None:
                left = left if lb >= rb else right
            elif left is None:
                left = right
        return left
    if isinstance(expr, Conditional):
        return _infer(expr.true_expression, lookup)
    return None
