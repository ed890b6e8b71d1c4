"""Semantic facts over the AST: symbol tables, inheritance flattening,
`var` type inference, the intra-contract call graph, and def-use liveness.

All analyses are intra-procedural and conservative: anything that escapes
the patterns below (unresolved names, calls, container writes) is treated
as live / unknown rather than dead, which keeps the unused-statement and
gas detectors free of speculative positives.
"""

from __future__ import annotations

from collections.abc import Iterable

from .nodes import (Assignment, BinaryOperation, Block, BoolLiteral,
                    CallExpression, Conditional, ContractDefinition,
                    ElementaryTypeExpression, EmitStatement, EventDefinition,
                    Expression, ExpressionStatement, ForStatement,
                    FunctionDefinition, HexLiteral, Identifier, IfStatement,
                    IndexAccess, MemberAccess, ModifierDefinition,
                    NumberLiteral, ReturnStatement, SourceUnit, StringLiteral,
                    TupleExpression, TypeName, UnaryOperation,
                    VariableDeclaration, VariableDeclarationStatement,
                    WhileStatement, walk)
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
    # name -> signature -> function, each name's overloads in merge order
    functions: dict[str, dict[str, FunctionDefinition]] = field(default_factory=dict)
    modifiers: dict[str, ModifierDefinition] = field(default_factory=dict)
    events: dict[str, EventDefinition] = field(default_factory=dict)

    def all_functions(self) -> list[FunctionDefinition]:
        return [f for overloads in self.functions.values() for f in overloads.values()]

    def lookup_state(self, name: str) -> VariableDeclaration | None:
        return self.state_variables.get(name)


def flatten_contract(unit: SourceUnit, contract: ContractDefinition,
                     diagnostics: list[Diagnostic] | None = None) -> SymbolTable:
    """Merge inherited members, derived-contract overrides winning.

    Bases are resolved by name within the same source unit, through the
    map that the unit builds once (``SourceUnit.contracts_by_name``); a base
    that appears more than once through different paths (diamond) is merged
    once and a warning is recorded.
    """
    table = SymbolTable(contract)
    repeated: list[str] = []
    _absorb(contract, table, unit.contracts_by_name, set(), repeated)
    if diagnostics is not None:
        diagnostics += [Diagnostic(
            "warning", f"contract {contract.name}: base {name} inherited more "
                       f"than once; flat-union merge applied", contract.span,
            *position(unit.line_starts, contract.span.offset)) for name in repeated]
    return table


def _absorb(c: ContractDefinition, table: SymbolTable,
            by_name: dict[str, ContractDefinition], seen: set[str],
            repeated: list[str]) -> None:
    """Merge ``c``'s bases, then ``c`` itself, into ``table``; a base met
    again is added to ``repeated`` instead.

    A module-level function, not a closure over the table: a closure that
    calls itself is a reference cycle, which would keep the file's whole
    tree alive until the cyclic garbage collector runs.
    """
    if c.name in seen:
        repeated.append(c.name)
        return
    seen.add(c.name)
    for base_name in c.bases:
        base = by_name.get(base_name)
        if base is not None:
            _absorb(base, table, by_name, seen, repeated)
    for var in c.state_variables:
        table.state_variables[var.name] = var
    for fn in c.functions:
        overloads = table.functions.setdefault(fn.name, {})
        key = fn.signature()
        overloads.pop(key, None)  # an override moves to the end
        overloads[key] = fn
    for mod in c.modifiers:
        table.modifiers[mod.name] = mod
    for event in c.events:
        table.events[event.name] = event


# ---------------------------------------------------------------------------
# Call graph


@record
class CallGraph:
    """Internal call edges of one contract: f calls g by plain name, or f
    invokes modifier g. External member calls are not edges."""

    edges: set[tuple[str, str]] = field(default_factory=set)


def _node_key(fn: FunctionDefinition | ModifierDefinition) -> str:
    if isinstance(fn, ModifierDefinition):
        return fn.name
    return fn.name or "<fallback>"


def build_call_graph(table: SymbolTable) -> CallGraph:
    graph = CallGraph()
    callables: list[FunctionDefinition | ModifierDefinition] = []
    callables.extend(table.all_functions())
    callables.extend(table.modifiers.values())
    known = {_node_key(c) for c in callables}

    for fn in callables:
        src = _node_key(fn)
        if isinstance(fn, FunctionDefinition):
            for mod_name, _args in fn.modifiers_invoked:
                if mod_name in known:
                    graph.edges.add((src, mod_name))
        if fn.body is None:
            continue
        for node in walk(fn.body):
            if isinstance(node, CallExpression) and isinstance(node.callee, Identifier) \
                    and node.callee.name in known:
                graph.edges.add((src, node.callee.name))
    return graph


# ---------------------------------------------------------------------------
# Def-use / transitive liveness


@record
class VarFacts:
    declaration: VariableDeclaration
    is_parameter: bool
    # positions in DefUseFacts.variables of the locals assigned from this one
    flows_into: set[int] = field(default_factory=set)
    live: bool = False


@record
class DefUseFacts:
    # one entry per declaration: the parameters, then the locals in order
    variables: list[VarFacts] = field(default_factory=list)

    def dead_variables(self) -> list[VarFacts]:
        return [v for v in self.variables if not v.live]


def compute_def_use(function: FunctionDefinition) -> DefUseFacts:
    """Transitive liveness of each parameter and local.

    A variable is live iff some read of it (directly or through a chain
    of local-to-local assignments) reaches anything other than another
    dead local: a state write, return value, condition, call argument,
    event argument, index expression, and so on. Named return variables
    are exempt (implicitly read by the return machinery).

    Each name read resolves to the declaration in scope at that point: a
    local hides a parameter or an earlier local of its name from its
    declaration on.
    """
    visitor = _DefUseWalk(function)
    if function.body is not None:
        for stmt in function.body.statements:
            visitor.statement(stmt)
    variables = visitor.facts.variables

    # liveness fixpoint over local assignment chains
    changed = True
    while changed:
        changed = False
        for vf in variables:
            if vf.live:
                continue
            for target in vf.flows_into:
                if variables[target].live:
                    vf.live = True
                    changed = True
                    break
    return visitor.facts


class _DefUseWalk:
    """One pass over a function's statements, recording reads and flows.

    Its methods reach the walk's state through ``self``, and nothing here
    refers back to the walk, so no reference cycle keeps the tree alive
    once the facts are dropped.
    """

    __slots__ = ("facts", "scope")

    def __init__(self, function: FunctionDefinition) -> None:
        self.facts = DefUseFacts()
        # name -> position of its declaration in facts.variables, or None
        # for a named return, whose reads are not tracked
        self.scope: dict[str, int | None] = {}
        for param in function.parameters:
            if param.name:
                self.declare(param, True)
        for ret in function.returns_:
            if ret.name:
                self.scope[ret.name] = None

    def declare(self, decl: VariableDeclaration, is_parameter: bool) -> int:
        variables = self.facts.variables
        self.scope[decl.name] = len(variables)
        variables.append(VarFacts(decl, is_parameter))
        return len(variables) - 1

    def reads(self, expr: Expression | None) -> list[int]:
        """The parameters and locals in scope that `expr` reads."""
        if expr is None:
            return []
        scope = self.scope
        return [v for node in walk(expr) if isinstance(node, Identifier)
                and (v := scope.get(node.name)) is not None]

    def consume(self, expr: Expression | None) -> None:
        variables = self.facts.variables
        for v in self.reads(expr):
            variables[v].live = True

    def flow(self, sources: list[int], target: int) -> None:
        variables = self.facts.variables
        for v in sources:
            variables[v].flows_into.add(target)

    def statement(self, stmt) -> None:
        if isinstance(stmt, VariableDeclarationStatement):
            decl = stmt.declaration
            if decl.name:
                # the initializer reads what was in scope before this name
                sources = self.reads(decl.initializer)
                self.flow(sources, self.declare(decl, False))
            else:
                self.consume(decl.initializer)
        elif isinstance(stmt, ExpressionStatement):
            self.expression_statement(stmt.expression)
        elif isinstance(stmt, Block):
            for s in stmt.statements:
                self.statement(s)
        elif isinstance(stmt, IfStatement):
            self.consume(stmt.condition)
            self.statement(stmt.then_branch)
            if stmt.else_branch is not None:
                self.statement(stmt.else_branch)
        elif isinstance(stmt, WhileStatement):
            self.consume(stmt.condition)
            self.statement(stmt.body)
        elif isinstance(stmt, ForStatement):
            if stmt.init is not None:
                self.statement(stmt.init)
            self.consume(stmt.condition)
            if stmt.post is not None:
                self.expression_statement(stmt.post)
            self.statement(stmt.body)
        elif isinstance(stmt, ReturnStatement):
            self.consume(stmt.value)
        elif isinstance(stmt, EmitStatement):
            self.consume(stmt.call)

    def expression_statement(self, expr: Expression) -> None:
        if isinstance(expr, Assignment):
            target = expr.target
            if isinstance(target, Identifier):
                written = self.scope.get(target.name)
                if written is not None:  # a parameter or local
                    self.flow(self.reads(expr.value), written)
                    return
            # state, member and container stores: everything read stays
            # conservatively live; the variable written through is not read
            for part in _assignment_reads(target):
                self.consume(part)
            self.consume(expr.value)
        elif isinstance(expr, UnaryOperation) \
                and expr.operator in ("++", "--", "delete") \
                and isinstance(expr.operand, Identifier):
            pass  # bumping or deleting a variable writes it, not reads it
        else:
            self.consume(expr)


def _assignment_reads(target: Expression) -> Iterable[Expression]:
    if isinstance(target, IndexAccess):
        if target.index is not None:
            yield target.index
        yield from _assignment_reads(target.base)
    elif isinstance(target, MemberAccess):
        yield from _assignment_reads(target.object)


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


class InferenceError(Exception):
    pass


def infer_var_type(initializer: Expression | None,
                   lookup=None) -> TypeName | None:
    """Infer the type a `var` declaration takes from its initializer.

    Integer literals get the smallest uintN (intN when negative) whose
    range contains the value; other initializers get their static type
    when it is derivable, else None (unknown). `lookup(name)` resolves
    identifiers to declared TypeNames.
    """
    if initializer is None:
        raise InferenceError("var declaration without initializer")
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
