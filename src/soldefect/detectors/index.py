"""The facts the source detectors query instead of walking the tree: the
file's nodes in pre-order (``nodes.NodeIndex``), by type or, for rare ones
such as ``block.number``, by name; and one index per function or modifier
body, shared by every contract that inherits it, over its statements in
context (``nodes.statements``), its declarations, and the identifiers of
each expression, found once. Facts only some detectors read come on first use."""

from __future__ import annotations

from collections.abc import Callable

from ..nodes import (Assignment, CallExpression, Conditional, Expression,
                     ExpressionStatement, ForStatement, FunctionDefinition,
                     Identifier, IfStatement, MemberAccess, ModifierDefinition,
                     NodeIndex, Statement, StatementFacts, UnaryOperation,
                     VariableDeclaration, VariableDeclarationStatement,
                     WhileStatement, statements)
from ..records import lazy
from ..semantic import SymbolTable, VarFacts, liveness
from .common import (ETHER_SENDING_KINDS, bound_is_constant,
                     builtin_call_name, external_call, store_base, unwrap)


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
                       if builtin_call_name(call) is None
                       and (decoded := external_call(call))[0] is not None}
        self.call_kinds: set[str] = {kind for kind, *_ in self._calls.values()}
        self._identifiers: dict[int, list[Identifier]] = {}
        self.statements: list[StatementFacts] = statements(fn)

    @lazy
    def declared(self) -> list[VariableDeclaration]:
        """Each named parameter, named return and local of the body."""
        returns = self.fn.returns_ if isinstance(self.fn, FunctionDefinition) else []
        return [decl for decl in (*self.fn.parameters, *returns) if decl.name] + [
            st.node.declaration for st in self.statements
            if isinstance(st.node, VariableDeclarationStatement)]

    @lazy
    def locals(self) -> set[str]:
        """The names of those, anywhere in the body: 0.4's function scoping."""
        return {decl.name for decl in self.declared}

    @lazy
    def assignments(self) -> list[tuple[str, Expression]]:
        """(assigned local or state name, value), in statement order."""
        found = []
        for st in self.statements:
            stmt = st.node
            if isinstance(stmt, VariableDeclarationStatement):
                decl = stmt.declaration
                if decl.initializer is not None:
                    found.append((decl.name, decl.initializer))
            elif isinstance(stmt, ExpressionStatement):
                expr = unwrap(stmt.expression)
                if isinstance(expr, Assignment) and isinstance(expr.target, Identifier):
                    found.append((expr.target.name, expr.value))
        return found

    def declaration(self, name: str, at: int) -> VariableDeclaration | None:
        """The declaration a name read at source offset ``at`` resolves to,
        as in ``def_use``: the last parameter, named return or local of this
        body declared before ``at``, else a state variable."""
        before = [decl for decl in self.declared
                  if decl.name == name and decl.span.offset < at]
        if before:
            return max(before, key=lambda decl: decl.span.offset)
        return self.table.state_variables.get(name)

    def of(self, *kinds) -> list:
        """Body nodes of any of the given kinds (``NodeIndex``), in pre-order."""
        return self.tree.select(kinds, self.start, self.end)

    def identifiers(self, expr) -> list[Identifier]:
        """The identifiers in expr's subtree, in pre-order: one answer per
        expression, kept for every later reader."""
        if expr.__class__ is Identifier:
            return [expr]
        found = self._identifiers.get(id(expr))
        if found is None:
            found = self._identifiers[id(expr)] = self.within(expr, Identifier)
        return found

    def kind(self, expr) -> str | None:
        """The kind of ``external_call(expr)``, for a node of this body."""
        return self._calls.get(id(expr), (None,))[0]

    def call(self, expr) -> tuple | None:
        """``external_call(expr)`` for an external call of this body, or None."""
        return self._calls.get(id(expr))

    @lazy
    def def_use(self) -> list[VarFacts]:
        """``semantic.liveness`` of this function body."""
        return liveness(self.fn, self.statements, self.identifiers)

    @lazy
    def ether_exits(self) -> set[str]:
        """How ether can leave this body: "call" for a call that sends
        value, "selfdestruct" for selfdestruct or suicide."""
        exits = {"call"} if self.call_kinds & ETHER_SENDING_KINDS else set()
        if self.of((CallExpression, "selfdestruct"), (CallExpression, "suicide")):
            exits.add("selfdestruct")
        return exits

    @lazy
    def conditions(self) -> list[Expression]:
        """Branch conditions: if/while/for conditions in statement order,
        then ternary conditions and require/assert arguments in pre-order."""
        found = [st.node.condition for st in self.statements
                 if isinstance(st.node, (IfStatement, WhileStatement, ForStatement))
                 and st.node.condition is not None]
        for node in self.of(Conditional, (CallExpression, "require"),
                            (CallExpression, "assert")):  # is_guard_call
            if isinstance(node, Conditional):
                found.append(node.condition)
            else:
                found += node.arguments
        return found

    def in_conditions(self, *kinds) -> list:
        """Nodes of any of the given kinds in the branch conditions, condition
        by condition, each in pre-order."""
        return [node for cond in self.conditions for node in self.within(cond, *kinds)]

    @lazy
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

    @lazy
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
                    for node in self.identifiers(value):
                        found += facts.get(node.name, ())
                if found:
                    facts.setdefault(name, {}).update(dict.fromkeys(found))
        return facts
