"""AST for the Solidity subset, and its walks: ``walk``, every node of a
subtree in pre-order; ``NodeIndex``, that pre-order built once per file,
whose per-type positions the callee names and the detectors' fact index
read; and ``statements``, every statement of a body with its enclosing
conditions, listed once per body by the fact index, whose def-use
liveness reads that list.

Every node carries exactly one Span. Nodes are slotted records (see
``records.py``) that compare field by field, so two parses of the same bytes
compare equal; like any mutable record, a node is unhashable.
"""

from __future__ import annotations

from bisect import bisect_left

from .lexer import ETHER_UNITS
from .records import field, record
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
            if self.name == "uint":
                return "uint256"
            if self.name == "int":
                return "int256"
            if self.name == "byte":
                return "bytes1"
            return self.name
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
        if self.kind != "elementary":
            return None
        name = self.name
        if name in ("uint", "int"):
            return 256
        for prefix in ("uint", "int"):
            if name.startswith(prefix) and name[len(prefix):].isdigit():
                return int(name[len(prefix):])
        return None

    def is_reference_type(self) -> bool:
        return (self.kind in ("array", "mapping")
                or (self.kind == "elementary" and self.name in ("bytes", "string")))


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


def children(node) -> list:
    """Direct child nodes, in source order; none for a node of any type
    not listed in _CHILD_FIELDS."""
    cls = node.__class__
    fields = _CHILD_FIELDS.get(cls)
    if not fields:
        return []
    out = []
    append = out.append
    for name in fields:
        value = getattr(node, name)
        if value is None:
            continue
        if value.__class__ is list:
            for item in value:
                if item is not None:
                    append(item)
        else:
            append(value)
    if cls is FunctionDefinition:
        for _, args in node.modifiers_invoked:
            out += args
    return out


def walk(node):
    """Yield node and all descendants, depth-first, pre-order."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(reversed(children(current)))


class NodeIndex:
    """The pre-order of a subtree (what ``walk(root)`` yields) and, per
    position i, ``ends[i]``: one past the end of that node's subtree. So a
    subtree is a slice, containment a range check, and a subtree's nodes of
    one type a bisection of that type's positions."""

    def __init__(self, root) -> None:
        self.nodes: list = []
        self.ends: list[int] = []
        self._by_type: dict[type, list[int]] = {}
        nodes, ends, by_type = self.nodes, self.ends, self._by_type
        stack: list = [root]
        while stack:
            node = stack.pop()
            if node.__class__ is int:  # every node of that subtree is listed
                ends[node] = len(nodes)
                continue
            i = len(nodes)
            nodes.append(node)
            by_type.setdefault(node.__class__, []).append(i)
            kids = children(node)
            if kids:
                ends.append(0)
                stack.append(i)
                kids.reverse()
                stack.extend(kids)
            else:
                ends.append(i + 1)
        self.pos: dict[int, int] = {id(node): i for i, node in enumerate(nodes)}

    def select(self, types: tuple[type, ...], start: int, end: int) -> list:
        """Nodes of the given types at positions [start, end), in pre-order."""
        positions: list[int] = []
        for t in types:
            found = self._by_type.get(t, ())
            positions += found[bisect_left(found, start):bisect_left(found, end)]
        if len(types) > 1:
            positions.sort()
        nodes = self.nodes
        return [nodes[p] for p in positions]

    def within(self, node, *types: type) -> list:
        """Nodes of the given types in node's subtree, node included."""
        start = self.pos[id(node)]
        return self.select(types, start, self.ends[start])

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
    stack: list = [] if fn.body is None else [(fn.body, (), False)]
    while stack:
        item = stack.pop()
        if item.__class__ is int:  # every statement of that subtree is listed
            out[item].end = len(out)
            continue
        stmt, conditions, for_init = item
        k = len(out)
        out.append(StatementFacts(stmt, conditions, for_init, k + 1))
        if isinstance(stmt, Block):
            pushed = [(s, conditions, False) for s in reversed(stmt.statements)]
        elif isinstance(stmt, IfStatement):
            inner = conditions + (stmt.condition,)
            pushed = [(branch, inner, False) for branch
                      in (stmt.else_branch, stmt.then_branch) if branch is not None]
        elif isinstance(stmt, (ForStatement, WhileStatement)):
            init = stmt.init if isinstance(stmt, ForStatement) else None
            pushed = [(init, conditions, True)] if init is not None else []
            if stmt.condition is not None:
                conditions += (stmt.condition,)
            pushed.append((stmt.body, conditions, False))
        else:
            continue
        stack.append(k)
        stack += pushed
    return out
