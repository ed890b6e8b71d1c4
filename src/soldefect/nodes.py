"""AST for the Solidity subset, and its walks: ``walk``, every node of a
subtree in pre-order; ``NodeIndex``, that pre-order built once per file
through one child fetcher per class, whose positions per type, and per name
for the rare nodes found by name, the callee names and the detectors' fact
index read; and ``statements``, every statement of a body with its enclosing
conditions, listed once per body by the fact index for def-use liveness.

Every node carries exactly one Span. Nodes are slotted records (see
``records.py``) that compare field by field, so two parses of the same bytes
compare equal; like any mutable record, a node is unhashable.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from operator import attrgetter

from .lexer import ETHER_UNITS
from .records import field, lazy, record
from .spans import Span

# ---------------------------------------------------------------------------
# Types


@record(slots=True)
class TypeName:
    kind: str  # "elementary" | "array" | "mapping" | "user" | "var"
    span: Span
    name: str = ""                    # elementary or user-defined name
    element: TypeName | None = None   # arrays
    length: Expression | None = None  # fixed-size arrays
    key_type: TypeName | None = None  # mappings
    value_type: TypeName | None = None

    def canonical(self) -> str:
        """Canonical spelling for ABI-style signature matching."""
        if self.kind == "elementary":
            return _ALIASES.get(self.name, self.name)
        if self.kind == "array":
            suffix = "[]" if self.length is None else f"[{_const_text(self.length)}]"
            return self.element.canonical() + suffix
        if self.kind == "mapping":
            return f"mapping({self.key_type.canonical()}=>{self.value_type.canonical()})"
        if self.kind == "var":
            return "var"
        return self.name

    def int_bits(self) -> int | None:
        """Bit width for uintN/intN (plain uint/int normalize to 256)."""
        if self.kind == "elementary":
            sign, found, digits = self.name.partition("int")
            if found and sign in ("", "u") and (not digits or digits.isdigit()):
                return int(digits or 256)
        return None

    def is_reference_type(self) -> bool:
        return (self.kind in ("array", "mapping")
                or (self.kind == "elementary" and self.name in ("bytes", "string")))


_ALIASES = {"uint": "uint256", "int": "int256", "byte": "bytes1"}


def _const_text(expr: "Expression") -> str:
    if isinstance(expr, NumberLiteral):
        return expr.text
    return "?"


# ---------------------------------------------------------------------------
# Expressions


@record(slots=True)
class Identifier:
    name: str
    span: Span


@record(slots=True)
class MemberAccess:
    object: "Expression"
    member: str
    span: Span


@record(slots=True)
class IndexAccess:
    base: "Expression"
    index: Expression | None
    span: Span


@record(slots=True)
class CallExpression:
    callee: "Expression"
    arguments: list["Expression"]
    span: Span


@record(slots=True)
class BinaryOperation:
    operator: str
    left: "Expression"
    right: "Expression"
    span: Span


@record(slots=True)
class UnaryOperation:
    operator: str
    operand: "Expression"
    prefix: bool
    span: Span


@record(slots=True)
class Assignment:
    operator: str  # "=", "+=", ...
    target: "Expression"
    value: "Expression"
    span: Span


@record(slots=True)
class Conditional:
    condition: "Expression"
    true_expression: "Expression"
    false_expression: "Expression"
    span: Span


@record(slots=True)
class NumberLiteral:
    text: str         # exact source spelling, e.g. "0.1" or "10"
    unit: str | None  # "ether", "wei", ... or None
    span: Span

    @property
    def value(self) -> int | None:
        """Exact integer value (unit applied), or None when non-integral or
        past an exponent of 4096, which no type holds and is costly to build."""
        text = self.text
        try:
            if text.isdigit() and text.isascii():  # digits only: int() will do
                magnitude = int(text)  # over int's digit limit: ValueError
            else:
                _, _, exponent = text.lower().partition("e")
                if exponent and abs(int(exponent)) > 4096:
                    return None
                from fractions import Fraction  # loads decimal: not at start-up
                magnitude = Fraction(text)
        except (ValueError, ZeroDivisionError):
            return None
        if self.unit:
            magnitude *= ETHER_UNITS[self.unit]
        if magnitude.denominator != 1:
            return None
        return int(magnitude)


@record(slots=True)
class HexLiteral:
    text: str  # including the 0x prefix
    span: Span

    @property
    def is_address(self) -> bool:
        return len(self.text) == 42  # 0x + 40 hex digits

    @property
    def value(self) -> int:
        return int(self.text, 16)


@record(slots=True)
class StringLiteral:
    text: str  # raw source spelling including quotes
    span: Span


@record(slots=True)
class BoolLiteral:
    value: bool
    span: Span


@record(slots=True)
class ElementaryTypeExpression:
    """A type name used in expression position, e.g. the cast uint(x)."""

    type_name: TypeName
    span: Span


@record(slots=True)
class TupleExpression:
    components: list["Expression"]
    span: Span


Expression = (Identifier, MemberAccess, IndexAccess, CallExpression,
              BinaryOperation, UnaryOperation, Assignment, Conditional,
              NumberLiteral, HexLiteral, StringLiteral, BoolLiteral,
              ElementaryTypeExpression, TupleExpression)


# ---------------------------------------------------------------------------
# Statements


@record(slots=True)
class Block:
    statements: list["Statement"]
    span: Span


@record(slots=True)
class IfStatement:
    condition: Expression
    then_branch: "Statement"
    else_branch: Statement | None
    span: Span


@record(slots=True)
class ForStatement:
    init: Statement | None  # declaration or expression statement
    condition: Expression | None
    post: Expression | None
    body: "Statement"
    span: Span


@record(slots=True)
class WhileStatement:
    condition: Expression
    body: "Statement"
    span: Span


@record(slots=True)
class ReturnStatement:
    value: Expression | None
    span: Span


@record(slots=True)
class EmitStatement:
    call: CallExpression
    span: Span


@record(slots=True)
class ThrowStatement:
    span: Span


@record(slots=True)
class BreakStatement:
    span: Span


@record(slots=True)
class ContinueStatement:
    span: Span


@record(slots=True)
class PlaceholderStatement:
    """The `_;` statement inside modifier bodies."""

    span: Span


@record(slots=True)
class VariableDeclarationStatement:
    declaration: "VariableDeclaration"
    span: Span


@record(slots=True)
class ExpressionStatement:
    expression: Expression
    span: Span


Statement = (Block, IfStatement, ForStatement, WhileStatement,
             ReturnStatement, EmitStatement, ThrowStatement, BreakStatement,
             ContinueStatement, PlaceholderStatement,
             VariableDeclarationStatement, ExpressionStatement)


# ---------------------------------------------------------------------------
# Declarations


@record(slots=True)
class VariableDeclaration:
    name: str  # "" for unnamed parameters/returns
    type_name: TypeName
    span: Span
    data_location: str = "unspecified"  # "storage" | "memory" | "calldata" | "unspecified"
    initializer: Expression | None = None
    visibility: str = "default"
    is_constant: bool = False
    is_indexed: bool = False


@record(slots=True)
class FunctionDefinition:
    name: str  # "" for the fallback function
    parameters: list[VariableDeclaration]
    returns_: list[VariableDeclaration]
    visibility: str  # "public" | "external" | "internal" | "private" | "default"
    is_payable: bool
    mutability: str | None  # "constant" | "view" | "pure" | None
    modifiers_invoked: list[tuple[str, list[Expression]]]
    body: Block | None
    is_constructor: bool
    span: Span
    # "name(canonical parameter types)", set once when the node is built
    signature: str = field(default_factory=str, init=False, repr=False,
                           compare=False)

    def __post_init__(self) -> None:
        params = ",".join(p.type_name.canonical() for p in self.parameters)
        self.signature = f"{self.name}({params})"

    @property
    def is_fallback(self) -> bool:
        return self.name == "" and not self.is_constructor


@record(slots=True)
class ModifierDefinition:
    name: str
    parameters: list[VariableDeclaration]
    body: Block | None
    span: Span


@record(slots=True)
class EventDefinition:
    name: str
    parameters: list[VariableDeclaration]
    anonymous: bool
    span: Span


@record(slots=True)
class ContractDefinition:
    name: str
    kind: str  # "contract" | "interface" | "library"
    bases: list[str]
    state_variables: list[VariableDeclaration]
    functions: list[FunctionDefinition]
    modifiers: list[ModifierDefinition]
    events: list[EventDefinition]
    span: Span


@record(slots=True)
class PragmaDirective:
    name: str  # "solidity", "experimental", ...
    constraint_kind: str  # "exact" | "caret" | "range" | "other"
    version_text: str
    span: Span


@record(slots=True)
class SourceUnit:
    pragmas: list[PragmaDirective]
    contracts: list[ContractDefinition]
    span: Span
    line_starts: list[int] = field(repr=False, compare=False)
    # name -> contract, the last of a repeated name; built once per file
    contracts_by_name: dict[str, ContractDefinition] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.contracts_by_name = {c.name: c for c in self.contracts}


# ---------------------------------------------------------------------------
# Generic traversal

_CHILD_FIELDS = {
    SourceUnit: ("pragmas", "contracts"),
    ContractDefinition: ("state_variables", "functions", "modifiers", "events"),
    FunctionDefinition: ("parameters", "returns_", "body"),
    ModifierDefinition: ("parameters", "body"),
    EventDefinition: ("parameters",),
    VariableDeclaration: ("initializer",),
    Block: ("statements",),
    IfStatement: ("condition", "then_branch", "else_branch"),
    ForStatement: ("init", "condition", "post", "body"),
    WhileStatement: ("condition", "body"),
    ReturnStatement: ("value",),
    EmitStatement: ("call",),
    VariableDeclarationStatement: ("declaration",),
    ExpressionStatement: ("expression",),
    Identifier: (),
    MemberAccess: ("object",),
    IndexAccess: ("base", "index"),
    CallExpression: ("callee", "arguments"),
    BinaryOperation: ("left", "right"),
    UnaryOperation: ("operand",),
    Assignment: ("target", "value"),
    Conditional: ("condition", "true_expression", "false_expression"),
    TupleExpression: ("components",),
    PragmaDirective: (),
    ThrowStatement: (),
    BreakStatement: (),
    ContinueStatement: (),
    PlaceholderStatement: (),
    NumberLiteral: (),
    HexLiteral: (),
    StringLiteral: (),
    BoolLiteral: (),
    ElementaryTypeExpression: (),
    TypeName: (),
}


def _pusher(cls: type, fields: tuple[str, ...]):
    """A function that pushes the children of a ``cls`` node onto a stack,
    last first, a missing one as None; built once per class from its child
    fields, a list of children where the field's annotation says so."""
    parts = [(attrgetter(name), cls.__annotations__[name].startswith("list"))
             for name in reversed(fields)]
    if not any(many for _, many in parts):
        get = attrgetter(*reversed(fields))  # a tuple for two or more
        if len(fields) == 1:
            return lambda node, stack: stack.append(get(node))
        return lambda node, stack: stack.extend(get(node))

    def push(node, stack) -> None:
        if cls is FunctionDefinition:  # modifier arguments come last
            for _, args in reversed(node.modifiers_invoked):
                stack.extend(reversed(args))
        for get, many in parts:
            if many:
                stack.extend(reversed(get(node)))
            else:
                stack.append(get(node))
    return push


_PUSH = {cls: _pusher(cls, fields) for cls, fields in _CHILD_FIELDS.items() if fields}


def children(node) -> list:
    """Direct child nodes, in source order; none for a node of any type
    not listed in _CHILD_FIELDS."""
    kids: list = []
    if (push := _PUSH.get(node.__class__)) is not None:
        push(node, kids)
    return [kid for kid in reversed(kids) if kid is not None]


def walk(node):
    """Yield node and all descendants, depth-first, pre-order."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(reversed(children(current)))


def unwrap(expr: Expression) -> Expression:
    while isinstance(expr, TupleExpression) and len(expr.components) == 1:
        expr = expr.components[0]
    return expr


def _bare_name(expr: Expression) -> str | None:
    """The name, if expr is one, parenthesized or not."""
    if expr.__class__ is TupleExpression:
        expr = unwrap(expr)
    return expr.name if expr.__class__ is Identifier else None


def global_member(expr: Expression) -> tuple[str, str] | None:
    """(name, member) for a member of a bare name, such as `tx.origin`,
    `msg.sender`, `block.number` or `this.balance`; None otherwise."""
    expr = unwrap(expr)
    name = _bare_name(expr.object) if isinstance(expr, MemberAccess) else None
    return None if name is None else (name, expr.member)


def builtin_call_name(expr: Expression) -> str | None:
    return _bare_name(expr.callee) if isinstance(expr, CallExpression) else None


class NodeIndex:
    """The pre-order of a subtree (what ``walk(root)`` yields) and, per
    position i, ``ends[i]``: one past the end of that node's subtree. So a
    subtree is a slice, containment a range check, and a subtree's nodes of
    some kinds (node types or keys of ``names``) a bisection, once filed."""

    def __init__(self, root) -> None:
        self.nodes: list = []
        self.ends: list[int] = []
        self._by_type: dict[type, list[int]] = defaultdict(list)
        # kinds -> (their positions, sorted; the nodes there)
        self._filed: dict[tuple, tuple[list[int], list]] = {}
        nodes, ends, by_type, pushers = self.nodes, self.ends, self._by_type, _PUSH
        stack: list = [root]
        while stack:
            node = stack.pop()
            cls = node.__class__
            if cls is int:  # every node of that subtree is listed
                ends[node] = len(nodes)
                continue
            if node is None:  # a missing child
                continue
            i = len(nodes)
            nodes.append(node)
            by_type[cls].append(i)
            push = pushers.get(cls)
            if push is None:
                ends.append(i + 1)
            else:
                ends.append(0)
                stack.append(i)
                push(node, stack)
        self.pos: dict[int, int] = dict(zip(map(id, nodes), range(len(nodes))))

    @lazy
    def names(self) -> dict[tuple, list[int]]:
        """Positions of the nodes found by name: ``(Identifier, name)``,
        ``(MemberAccess, member)``, ``(MemberAccess or TupleExpression, name,
        member)`` by ``global_member``, ``(CallExpression, builtin_call_name)``."""
        names: dict[tuple, list[int]] = defaultdict(list)
        nodes, by_type = self.nodes, self._by_type
        for p in by_type[Identifier]:
            names[Identifier, nodes[p].name].append(p)
        for p in by_type[MemberAccess]:
            node = nodes[p]
            names[MemberAccess, node.member].append(p)
            if (name := _bare_name(node.object)) is not None:
                names[MemberAccess, name, node.member].append(p)
        for p in by_type[TupleExpression]:
            if (pair := global_member(nodes[p])) is not None:
                names[(TupleExpression, *pair)].append(p)
        for p in by_type[CallExpression]:
            if (name := _bare_name(nodes[p].callee)) is not None:
                names[CallExpression, name].append(p)
        return names

    def select(self, kinds: tuple, start: int, end: int) -> list:
        """Nodes of any of the given kinds at positions [start, end), in
        pre-order."""
        at, found = self._filed.get(kinds) or self._file(kinds)
        return found[bisect_left(at, start):bisect_left(at, end)]

    def _file(self, kinds: tuple) -> tuple[list[int], list]:
        if len(kinds) == 1 and kinds[0].__class__ is not tuple:  # one type
            at = self._by_type.get(kinds[0], ())
        else:
            found = [at for kind in kinds if (at := (
                self.names if kind.__class__ is tuple else self._by_type).get(kind))]
            at = found[0] if len(found) == 1 else sorted(set().union(*found))
        filed = self._filed[kinds] = (at, list(map(self.nodes.__getitem__, at)))
        return filed

    def within(self, node, *kinds) -> list:
        """Nodes of any of the given kinds in node's subtree, node included."""
        start = self.pos[id(node)]
        return self.select(kinds, start, self.ends[start])

    def contains(self, outer, inner) -> bool:
        start = self.pos[id(outer)]
        return start <= self.pos[id(inner)] < self.ends[start]


@record(slots=True)
class StatementFacts:
    node: Statement
    conditions: tuple  # enclosing if/while/for conditions, outermost first
    for_init: bool     # the init statement of a for loop
    end: int           # one past this statement's subtree in the list


def statements(fn: FunctionDefinition | ModifierDefinition) -> list[StatementFacts]:
    """Every statement of fn's body, the body first, depth-first with its
    context: a then-branch before its else-branch, and a for loop's body
    before its init statement. Empty for a function without a body."""
    out: list[StatementFacts] = []
    stack: list = [] if fn.body is None else [fn.body]
    conditions: tuple = ()
    while stack:
        stmt = stack.pop()
        cls = stmt.__class__
        if cls is int:  # every statement of that subtree is listed
            out[stmt].end = len(out)
            conditions = out[stmt].conditions  # its siblings' context
            continue
        for_init = cls is tuple  # a for loop's init, in the loop's context
        if for_init:
            stmt, conditions = stmt
            cls = stmt.__class__
        k = len(out)
        out.append(StatementFacts(stmt, conditions, for_init, k + 1))
        if cls is Block:
            stack.append(k)
            stack += reversed(stmt.statements)
        elif cls is IfStatement:
            stack.append(k)
            stack += [b for b in (stmt.else_branch, stmt.then_branch) if b is not None]
            conditions += (stmt.condition,)
        elif cls is ForStatement or cls is WhileStatement:
            stack.append(k)
            if cls is ForStatement and stmt.init is not None:
                stack.append((stmt.init, conditions))
            if stmt.condition is not None:
                conditions += (stmt.condition,)
            stack.append(stmt.body)
    return out
