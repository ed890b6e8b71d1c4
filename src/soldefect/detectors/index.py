"""The facts the source detectors query instead of walking the tree: the
file's nodes in pre-order (``nodes.NodeIndex``, which def-use and the
callee names read too), and one index per function or modifier body,
shared by every contract that inherits it, over the body's statements in
context (``nodes.statements``, the list def-use liveness reads too) and
the declarations its names resolve to."""

from __future__ import annotations

from collections.abc import Callable
from functools import cached_property

from ..nodes import (Assignment, CallExpression, Conditional, Expression,
                     ExpressionStatement, ForStatement, FunctionDefinition,
                     Identifier, IfStatement, MemberAccess, ModifierDefinition,
                     NodeIndex, Statement, StatementFacts, UnaryOperation,
                     VariableDeclaration, VariableDeclarationStatement,
                     WhileStatement, statements)
from ..semantic import SymbolTable
from .common import (bound_is_constant, external_call, is_guard_call,
                     store_base, unwrap)


class FunctionIndex:
    """Facts about one function or modifier body, held in ``tree``.

    ``statements`` lists every statement with its context, in the order of
    ``nodes.statements``: a for loop's body comes before its init
    statement. Facts that need the symbol table are built on first use.
    """

    def __init__(self, fn: FunctionDefinition | ModifierDefinition,
                 table: SymbolTable, tree: NodeIndex) -> None:
        self.fn = fn
        self.table = table
        self.tree = tree
        self.within = tree.within
        self.contains = tree.contains
        self.start = tree.pos[id(fn.body)]
        self.end = tree.ends[self.start]
        # id(call) -> external_call(call), for the low-level external calls
        self._calls = {id(call): decoded for call in self.of(CallExpression)
                       if (decoded := external_call(call))[0] is not None}
        self.statements: list[StatementFacts] = statements(fn)
        # each named parameter, named return and local of the body
        self.declared: list[VariableDeclaration] = [
            p for p in fn.parameters if p.name]
        if isinstance(fn, FunctionDefinition):
            self.declared += [r for r in fn.returns_ if r.name]
        # (assigned local or state name, value), in statement order
        self.assignments: list[tuple[str, Expression]] = []
        for st in self.statements:
            stmt = st.node
            if isinstance(stmt, VariableDeclarationStatement):
                decl = stmt.declaration
                self.declared.append(decl)
                if decl.initializer is not None:
                    self.assignments.append((decl.name, decl.initializer))
            elif isinstance(stmt, ExpressionStatement):
                expr = unwrap(stmt.expression)
                if isinstance(expr, Assignment) \
                        and isinstance(expr.target, Identifier):
                    self.assignments.append((expr.target.name, expr.value))
        # the names of those, anywhere in the body: 0.4's function scoping
        self.locals: set[str] = {decl.name for decl in self.declared}

    def declaration(self, name: str, at: int) -> VariableDeclaration | None:
        """The declaration a name read at source offset ``at`` resolves to,
        as in ``compute_def_use``: the last parameter, named return or local
        of this body declared before ``at``, else a state variable."""
        before = [decl for decl in self.declared
                  if decl.name == name and decl.span.offset < at]
        if before:
            return max(before, key=lambda decl: decl.span.offset)
        return self.table.state_variables.get(name)

    def of(self, *types: type) -> list:
        """Body nodes of the given types, in pre-order."""
        return self.tree.select(types, self.start, self.end)

    def kind(self, expr) -> str | None:
        """The kind of ``external_call(expr)``, for a node of this body."""
        return self._calls.get(id(expr), (None,))[0]

    def call(self, expr) -> tuple | None:
        """``external_call(expr)`` for an external call of this body, or None."""
        return self._calls.get(id(expr))

    @cached_property
    def conditions(self) -> list[Expression]:
        """Branch conditions: if/while/for conditions in statement order,
        then ternary conditions and require/assert arguments in pre-order."""
        found = [st.node.condition for st in self.statements
                 if isinstance(st.node, (IfStatement, WhileStatement, ForStatement))
                 and st.node.condition is not None]
        for node in self.of(Conditional, CallExpression):
            if isinstance(node, Conditional):
                found.append(node.condition)
            elif is_guard_call(node):
                found += node.arguments
        return found

    def in_conditions(self, *types: type) -> list:
        """Nodes of the given types in the branch conditions, condition by
        condition, each in pre-order."""
        within = self.within
        return [node for cond in self.conditions for node in within(cond, *types)]

    @cached_property
    def unbounded_loops(self) -> list[tuple[Statement, list[StatementFacts]]]:
        """(loop, statements of its body) for each for/while loop whose bound
        is not a compile-time constant, or that is nested in such a loop."""
        found = []
        covered = 0  # statements before this one lie in such a loop's body
        for k, st in enumerate(self.statements):
            loop = st.node
            if isinstance(loop, (ForStatement, WhileStatement)) and (
                    k < covered or not bound_is_constant(loop.condition, self.table)):
                body_end = self.statements[k + 1].end
                found.append((loop, self.statements[k + 1:body_end]))
                covered = max(covered, body_end)
        return found

    @cached_property
    def state_writes(self) -> list[tuple[str, Expression]]:
        """(state variable name, written expression) pairs, in pre-order."""
        stores = []
        for node in self.of(Assignment, UnaryOperation, CallExpression):
            if isinstance(node, Assignment):
                stores.append(node.target)
            elif isinstance(node, UnaryOperation):
                if node.operator in ("++", "--", "delete"):
                    stores.append(node.operand)
            else:  # a push or pop writes the array
                callee = unwrap(node.callee)
                if isinstance(callee, MemberAccess) and callee.member in ("push", "pop"):
                    stores.append(callee.object)
        return [(base.name, expr) for expr in stores
                if (base := store_base(expr)) is not None
                and base.name not in self.locals
                and base.name in self.table.state_variables]

    def propagate(self, sources: Callable[[Expression], list],
                  locals_only: bool) -> dict[str, dict]:
        """Assignment propagation, two passes over the statements: each
        assigned name collects ``sources(value)`` plus what the names read in
        the value collected before, skipping assignments to non-locals when
        ``locals_only``. Returns name -> facts, as the keys of a dict in
        first-seen order."""
        facts: dict[str, dict] = {}
        for _ in range(2):
            for name, value in self.assignments:
                if locals_only and name not in self.locals:
                    continue
                found = list(sources(value))
                if facts:
                    for node in self.within(value, Identifier):
                        found += facts.get(node.name, ())
                if found:
                    facts.setdefault(name, {}).update(dict.fromkeys(found))
        return facts
