"""Recursive-descent parser for the Solidity subset.

Covers 0.4.x-era constructs needed by the defect detectors: pragmas,
contracts/interfaces/libraries with inheritance lists, state variables,
functions (fallback, `function constructor()` and `constructor()`),
modifiers with `_;`, events, the statement/expression families, `var`
declarations, ether units, and address/number/hex/string literals.

Every syntax error is one diagnostic and one skip by one rule
(`_Parser._skip`): a skip that starts at `{` ends after the matching `}`;
any other skip stops at the first `;` outside braces (consumed), at a `}`
it did not open, at a stop word outside braces, or at the end of input.
The stop words are `function`/`modifier`/`event`/`constructor` in a
contract, `pragma`/`contract`/`interface`/`library`/`import` at the top
level, `)` in a for header's init, and none in a block. So an error never
hides its sibling statements or functions, and a contract or `{...}` block
that the file ends inside keeps its complete members or statements. An
error that several levels of recovery see in turn, such as the end of a
file cut inside nested blocks, is reported once. Unsupported constructs
(import, struct/enum, using) are skipped by the same rule with a "partial
analysis" warning instead of failing the file.

The parser indexes the lexer's ``(kind, text, offset, length)`` token
tuples. A node's span ends at the end of the last token it consumed.

The token list ends with an end token, at the last token's span (offset 0
in a file of no tokens), whose text, "end of input", is what an error at
the end of the file names ("expected ';', found 'end of input'"). Nothing
consumes it or looks past it, so no lookahead bounds-checks. Only the
loops that must stop at the end (the skip, and the unit, contract, block,
function-header and pragma loops) test for it, besides the three errors
worded "unexpected end of input" or "expected a type" there.

One nesting rule bounds the parser's recursion: a type name, a compound
statement, an expression, a `**` or prefix operand and each postfix
operator enter a level (`_Parser._enter`), and a level past MAX_NESTING is a
syntax error.
"""

from __future__ import annotations

from .lexer import (COMMENT, ETHER_UNITS, HEX, IDENTIFIER, KEYWORD,
                    NUMBER, STRING, Token, Tokens, is_elementary_type_name)
from .nodes import (Assignment, BinaryOperation, Block, BoolLiteral,
                    BreakStatement, CallExpression, Conditional,
                    ContinueStatement, ContractDefinition,
                    ElementaryTypeExpression, EmitStatement, EventDefinition,
                    Expression, ExpressionStatement, ForStatement,
                    FunctionDefinition, HexLiteral, Identifier, IfStatement,
                    IndexAccess, MemberAccess, ModifierDefinition,
                    NumberLiteral, PlaceholderStatement, PragmaDirective,
                    ReturnStatement, SourceUnit, Statement, StringLiteral,
                    ThrowStatement, TupleExpression, TypeName, UnaryOperation,
                    VariableDeclaration, VariableDeclarationStatement,
                    WhileStatement)
from .spans import Diagnostic, Span, join_spans, new_span, position

_VISIBILITY = ("public", "private", "internal", "external")
_MUTABILITY = ("constant", "view", "pure")

# The kind of the token that ends the parser's token list.
_END = "end"

# The modifier words a variable declaration takes after its type, by context.
_LOCAL_WORDS = frozenset({"memory", "storage", "calldata"})
_PARAMETER_WORDS = _LOCAL_WORDS | {"indexed"}
_STATE_WORDS = frozenset(_VISIBILITY) | {"constant"}

# The statements that are one word and a `;`.
_WORD_STATEMENTS = {"throw": ThrowStatement, "break": BreakStatement,
                    "continue": ContinueStatement, "_": PlaceholderStatement}

# (precedence, right-associative); higher binds tighter
_BINARY_OPS = {
    "||": (1, False),
    "&&": (2, False),
    "==": (3, False), "!=": (3, False),
    "<": (4, False), ">": (4, False), "<=": (4, False), ">=": (4, False),
    "|": (5, False),
    "^": (6, False),
    "&": (7, False),
    "<<": (8, False), ">>": (8, False),
    "+": (9, False), "-": (9, False),
    "*": (10, False), "/": (10, False), "%": (10, False),
    "**": (11, True),
}

_ASSIGN_OPS = frozenset({"=", "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=", "<<=", ">>="})

_UNARY_PREFIX = frozenset({"!", "~", "-", "+", "++", "--", "delete", "new"})

_POSTFIX_OPS = frozenset({".", "(", "[", "++", "--"})

# The nesting limit of the module docstring. A level costs the parser at
# most five Python frames, so it and the recursive passes over the tree it
# builds stay well inside the default recursion limit of 1000.
MAX_NESTING = 128

# The statements that hold statements, each a nesting level.
_COMPOUND_STATEMENTS = frozenset({"{", "if", "for", "while"})

# The words a skip stops before: those that start a contract member, and
# those that start a top-level unit.
_MEMBER_STOPS = frozenset({"function", "modifier", "event", "constructor"})
_UNIT_STARTS = frozenset({"pragma", "contract", "interface", "library"})
_TOP_LEVEL_STOPS = _UNIT_STARTS | {"import"}
_HEADER_STOPS = frozenset({")"})


class ParseError(Exception):
    """A syntax error at ``token``; the recovery point that catches it records it."""

    def __init__(self, message: str, token: Token):
        super().__init__(message)
        self.message = message
        self.token = token


class ParseResult:
    """A SourceUnit plus the diagnostics produced while building it."""

    def __init__(self, unit: SourceUnit, diagnostics: list[Diagnostic]):
        self.unit = unit
        self.diagnostics = diagnostics


def parse(tokens: Tokens, file_id: str = "<input>") -> ParseResult:
    return _Parser(tokens, file_id).parse_source_unit()


class _Parser:
    def __init__(self, tokens: Tokens, file_id: str):
        self.file_id = file_id
        self.line_starts = tokens.line_starts
        self.tokens = [t for t in tokens if t[0] != COMMENT]
        _, _, offset, length = self.tokens[-1] if self.tokens else (_END, "", 0, 0)
        self.tokens.append((_END, "end of input", offset, length))
        self.pos = 0
        self.depth = 0
        self.diagnostics: list[Diagnostic] = []

    # -- token plumbing ----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[self.pos + offset]

    def at(self, text: str, offset: int = 0) -> bool:
        return self.tokens[self.pos + offset][1] == text

    def at_kind(self, kind: str) -> bool:
        return self.tokens[self.pos][0] == kind

    def advance(self) -> Token:
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, text: str) -> Token:
        t = self.tokens[self.pos]
        if t[1] != text:
            raise ParseError(f"expected {text!r}, found {t[1]!r}", t)
        self.pos += 1
        return t

    def expect_identifier(self) -> Token:
        t = self.tokens[self.pos]
        if t[0] != IDENTIFIER:
            raise ParseError(f"expected identifier, found {t[1]!r}", t)
        self.pos += 1
        return t

    def error(self, message: str, t: Token, severity: str = "error") -> None:
        """Record a diagnostic at token ``t``, unless it repeats the one just
        recorded: an error raised through several recovery points is
        reported once."""
        diagnostic = Diagnostic(severity, message, Span(self.file_id, t[2], t[3]),
                                *position(self.line_starts, t[2]))
        if not self.diagnostics or self.diagnostics[-1] != diagnostic:
            self.diagnostics.append(diagnostic)

    def warn(self, message: str, t: Token) -> None:
        self.error(message, t, "warning")

    def _enter(self) -> None:
        """Enter one nesting level; leave it with ``self.depth -= 1``.

        A level past MAX_NESTING raises. A ParseError skips the leaving:
        each recovery point restores the depth it started at.
        """
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels",
                             self.tokens[self.pos])

    def _span_from(self, start: int) -> Span:
        """The span from offset ``start`` to the end of the last token
        consumed (at first, the end token: offset 0 in a file of no tokens)."""
        _, _, offset, length = self.tokens[self.pos - 1]
        return new_span(Span, (self.file_id, start, offset + length - start))

    def _skip(self, stops: frozenset[str] = frozenset()) -> None:
        """Skip past a syntax error by the one recovery rule of the module
        docstring; ``stops`` are the stop words, which it does not consume."""
        tokens = self.tokens
        i = self.pos
        from_brace = tokens[i][1] == "{"
        depth = 0
        while tokens[i][0] != _END:
            text = tokens[i][1]
            if text == "{":
                depth += 1
            elif text == "}":
                if depth == 0:
                    break
                depth -= 1
                if depth == 0 and from_brace:
                    i += 1
                    break
            elif depth == 0 and text == ";":
                i += 1
                break
            elif depth == 0 and text in stops:
                break
            i += 1
        self.pos = i

    def _recover(self, exc: ParseError, depth: int,
                 stops: frozenset[str] = frozenset()) -> None:
        """Record ``exc``, back at nesting ``depth``, and ``_skip`` past it."""
        self.depth = depth
        self.error(exc.message, exc.token)
        self._skip(stops)

    def _close(self) -> None:
        """Consume the `}` that ends a contract or block. At the end of input
        it is missing: record that, and the caller keeps what it parsed."""
        if self.at_kind(_END):
            self.error("expected '}', found 'end of input'", self.peek())
        else:
            self.pos += 1

    def _list(self, parse_item) -> list:
        """The comma-separated items after a `(`, up to the closing `)`."""
        items = []
        if not self.at(")"):
            items.append(parse_item())
            while self.at(","):
                self.pos += 1
                items.append(parse_item())
        self.expect(")")
        return items

    # -- top level ---------------------------------------------------------

    def parse_source_unit(self) -> ParseResult:
        start = self.peek()[2]
        pragmas: list[PragmaDirective] = []
        contracts: list[ContractDefinition] = []
        while not self.at_kind(_END):
            text = self.peek()[1]
            depth = self.depth
            try:
                if text == "pragma":
                    pragmas.append(self.parse_pragma())
                elif text in ("contract", "interface", "library"):
                    contracts.append(self.parse_contract())
                elif text == "import":
                    self.warn("import directives are ignored (partial analysis)",
                              self.peek())
                    self._skip(_UNIT_STARTS)  # from `import`, not a stop here
                else:
                    self.error(f"unexpected {text!r} at top level", self.peek())
                    self.pos += 1
                    self._skip(_TOP_LEVEL_STOPS)
            except ParseError as exc:
                self._recover(exc, depth, _TOP_LEVEL_STOPS)
        unit = SourceUnit(pragmas, contracts, self._span_from(start), self.line_starts)
        return ParseResult(unit, self.diagnostics)

    def parse_pragma(self) -> PragmaDirective:
        start = self.expect("pragma")[2]
        name = self.expect_identifier()[1]
        parts: list[Token] = []
        # a pragma missing its `;` ends before the next unit
        while (not self.at(";") and not self.at_kind(_END)
               and self.peek()[1] not in _TOP_LEVEL_STOPS):
            parts.append(self.advance())
        self.expect(";")
        version_text = "".join(t[1] for t in parts)
        return PragmaDirective(name, _classify_pragma(name, parts), version_text,
                               self._span_from(start))

    def parse_contract(self) -> ContractDefinition:
        kw = self.advance()  # contract | interface | library
        name = self.expect_identifier()[1]
        bases: list[str] = []
        if self.at("is"):
            self.advance()
            bases.append(self.expect_identifier()[1])
            while self.at(","):
                self.advance()
                bases.append(self.expect_identifier()[1])
        self.expect("{")
        contract = ContractDefinition(name, kw[1], bases, [], [], [], [],
                                      self._span_from(kw[2]))
        while not self.at("}") and not self.at_kind(_END):
            self.parse_contract_member(contract)
        self._close()
        contract.span = self._span_from(kw[2])
        return contract

    def parse_contract_member(self, contract: ContractDefinition) -> None:
        text = self.peek()[1]
        depth = self.depth
        try:
            if text == "function" or (text == "constructor" and self.at("(", 1)):
                contract.functions.append(self.parse_function())
            elif text == "modifier":
                contract.modifiers.append(self.parse_modifier())
            elif text == "event":
                contract.events.append(self.parse_event())
            elif text in ("struct", "enum"):
                self.warn(f"{text} definitions are not analyzed (partial analysis)",
                          self.peek())
                self.advance()
                if self.at_kind(IDENTIFIER):
                    self.advance()
                self._skip(_MEMBER_STOPS)
            elif text == "using":
                self.warn("using-for directives are ignored (partial analysis)",
                          self.peek())
                self._skip(_MEMBER_STOPS)
            else:
                decl = self.parse_variable(_STATE_WORDS)
                self.expect(";")
                decl.span = self._span_from(decl.span.offset)
                contract.state_variables.append(decl)
        except ParseError as exc:
            self._recover(exc, depth, _MEMBER_STOPS)

    def parse_function(self) -> FunctionDefinition:
        start = self.peek()[2]
        is_constructor = False
        name = ""
        if self.at("constructor"):
            self.advance()
            is_constructor = True
        else:
            self.expect("function")
            if self.at_kind(IDENTIFIER) or self.at("constructor"):
                name = self.advance()[1]
                if name == "constructor":
                    is_constructor = True
        parameters = self.parse_parameter_list()
        visibility = "default"
        is_payable = False
        mutability = None
        modifiers: list[tuple[str, list[Expression]]] = []
        returns_: list[VariableDeclaration] = []
        while not self.at("{") and not self.at(";") and not self.at_kind(_END):
            text = self.peek()[1]
            if text in _VISIBILITY:
                visibility = self.advance()[1]
            elif text == "payable":
                is_payable = True
                self.advance()
            elif text in _MUTABILITY:
                mutability = self.advance()[1]
            elif text == "returns":
                self.advance()
                returns_ = self.parse_parameter_list()
            elif self.at_kind(IDENTIFIER):
                self.advance()
                args: list[Expression] = []
                if self.at("("):
                    self.advance()
                    args = self._list(self.parse_expression)
                modifiers.append((text, args))
            else:
                raise ParseError(f"unexpected {text!r} in function header",
                                 self.peek())
        body = None
        if self.at("{"):
            body = self.parse_block()
        else:
            self.expect(";")
        return FunctionDefinition(name, parameters, returns_, visibility,
                                  is_payable, mutability, modifiers, body,
                                  is_constructor, self._span_from(start))

    def parse_modifier(self) -> ModifierDefinition:
        start = self.expect("modifier")[2]
        name = self.expect_identifier()[1]
        parameters: list[VariableDeclaration] = []
        if self.at("("):
            parameters = self.parse_parameter_list()
        body = self.parse_block()
        return ModifierDefinition(name, parameters, body, self._span_from(start))

    def parse_event(self) -> EventDefinition:
        start = self.expect("event")[2]
        name = self.expect_identifier()[1]
        parameters = self.parse_parameter_list()
        anonymous = False
        if self.at("anonymous"):
            anonymous = True
            self.advance()
        self.expect(";")
        return EventDefinition(name, parameters, anonymous, self._span_from(start))

    def parse_parameter_list(self) -> list[VariableDeclaration]:
        self.expect("(")
        return self._list(lambda: self.parse_variable(_PARAMETER_WORDS))

    def parse_variable(self, words: frozenset[str]) -> VariableDeclaration:
        """A state variable, parameter or local, up to its `;` or `,`: the
        type, any of ``words`` (the modifiers the context allows), the name,
        and an initializer. A parameter's name is optional and it has no
        initializer."""
        type_name = self.parse_type_name()
        decl = VariableDeclaration("", type_name, type_name.span)
        while self.peek()[1] in words:
            word = self.advance()[1]
            if word == "constant":
                decl.is_constant = True
            elif word == "indexed":
                decl.is_indexed = True
            elif word in _VISIBILITY:
                decl.visibility = word
            else:
                decl.data_location = word
        if words is _PARAMETER_WORDS:
            if self.at_kind(IDENTIFIER):
                decl.name = self.advance()[1]
        else:
            decl.name = self.expect_identifier()[1]
            if self.at("="):
                self.advance()
                decl.initializer = self.parse_expression()
        decl.span = self._span_from(type_name.span.offset)
        return decl

    # -- types --------------------------------------------------------------

    def parse_type_name(self) -> TypeName:
        kind, text, offset, length = t = self.peek()
        span = new_span(Span, (self.file_id, offset, length))
        self._enter()
        if text == "mapping":
            self.advance()
            self.expect("(")
            key = self.parse_type_name()
            self.expect("=>")
            value = self.parse_type_name()
            self.expect(")")
            base = TypeName("mapping", self._span_from(offset),
                            key_type=key, value_type=value)
        elif text == "var":
            self.advance()
            base = TypeName("var", span)
        elif is_elementary_type_name(text):
            self.advance()
            base = TypeName("elementary", span, name=text)
        elif kind == IDENTIFIER:
            self.advance()
            base = TypeName("user", span, name=text)
        elif kind == _END:
            raise ParseError("expected a type", t)
        else:
            raise ParseError(f"expected a type, found {text!r}", t)
        while self.at("["):
            self.advance()
            length = None if self.at("]") else self.parse_expression()
            self.expect("]")
            base = TypeName("array", self._span_from(base.span.offset),
                            element=base, length=length)
        self.depth -= 1
        return base

    # -- statements ----------------------------------------------------------

    def parse_block(self) -> Block:
        start = self.expect("{")[2]
        statements: list[Statement] = []
        depth = self.depth
        while not self.at("}") and not self.at_kind(_END):
            try:
                statements.append(self.parse_statement())
            except ParseError as exc:
                self._recover(exc, depth)
        self._close()
        return Block(statements, self._span_from(start))

    def parse_statement(self) -> Statement:
        t = self.peek()
        text = t[1]
        if text in _COMPOUND_STATEMENTS:
            self._enter()
            if text == "{":
                statement = self.parse_block()
            elif text == "if":
                statement = self.parse_if()
            elif text == "for":
                statement = self.parse_for()
            else:
                statement = self.parse_while()
            self.depth -= 1
            return statement
        start = t[2]
        if text == "return":
            self.advance()
            value = None if self.at(";") else self.parse_expression()
            self.expect(";")
            return ReturnStatement(value, self._span_from(start))
        if text == "emit":
            self.advance()
            call = self.parse_expression()
            self.expect(";")
            if not isinstance(call, CallExpression):
                raise ParseError("emit expects an event call", t)
            return EmitStatement(call, self._span_from(start))
        if text in _WORD_STATEMENTS and (text != "_" or self.at(";", 1)):
            self.advance()
            self.expect(";")
            return _WORD_STATEMENTS[text](self._span_from(start))
        statement = self.parse_simple_statement()
        self.expect(";")
        statement.span = self._span_from(start)
        return statement

    def parse_simple_statement(self) -> Statement:
        """A declaration or an expression statement, without its `;`."""
        if self._looks_like_declaration():
            decl = self.parse_variable(_LOCAL_WORDS)
            return VariableDeclarationStatement(decl, decl.span)
        expr = self.parse_expression()
        return ExpressionStatement(expr, expr.span)

    def _looks_like_declaration(self) -> bool:
        kind, text, _, _ = self.peek()
        if text in ("var", "mapping"):
            return True
        if kind == KEYWORD and is_elementary_type_name(text):
            return True
        if kind != IDENTIFIER:
            return False
        # `Foo bar ...` or `Foo[...] bar ...` declares a user-typed local.
        nxt = self.peek(1)
        if nxt[0] == IDENTIFIER:
            return True
        if nxt[1] == "[":
            tokens = self.tokens
            i = self.pos + 2
            depth = 1
            while depth and tokens[i][0] != _END:
                if tokens[i][1] == "[":
                    depth += 1
                elif tokens[i][1] == "]":
                    depth -= 1
                i += 1
            return tokens[i][0] == IDENTIFIER
        return False

    def parse_if(self) -> IfStatement:
        start = self.expect("if")[2]
        self.expect("(")
        condition = self.parse_expression()
        self.expect(")")
        then_branch = self.parse_statement()
        else_branch = None
        if self.at("else"):
            self.advance()
            else_branch = self.parse_statement()
        return IfStatement(condition, then_branch, else_branch,
                           self._span_from(start))

    def parse_for(self) -> ForStatement:
        start = self.expect("for")[2]
        self.expect("(")
        init: Statement | None = None
        depth = self.depth
        try:
            if not self.at(";"):
                init = self.parse_simple_statement()
            self.expect(";")
        except ParseError as exc:  # one error, then on after the init's `;`
            self._recover(exc, depth, _HEADER_STOPS)
            if self.tokens[self.pos - 1][1] != ";":
                raise  # no such `;`: the block skips the loop, not repeating it
        condition = None if self.at(";") else self.parse_expression()
        self.expect(";")
        post = None if self.at(")") else self.parse_expression()
        self.expect(")")
        body = self.parse_statement()
        return ForStatement(init, condition, post, body, self._span_from(start))

    def parse_while(self) -> WhileStatement:
        start = self.expect("while")[2]
        self.expect("(")
        condition = self.parse_expression()
        self.expect(")")
        body = self.parse_statement()
        return WhileStatement(condition, body, self._span_from(start))

    # -- expressions ----------------------------------------------------------

    def parse_expression(self) -> Expression:
        """An assignment (right-associative), a conditional or a binary
        expression."""
        self._enter()
        expr = self.parse_binary(0)
        text = self.peek()[1]
        if text == "?":
            self.pos += 1
            true_expr = self.parse_expression()
            self.expect(":")
            # the false branch takes any assignment that follows
            false_expr = self.parse_expression()
            expr = Conditional(expr, true_expr, false_expr,
                               join_spans(expr.span, false_expr.span))
        elif text in _ASSIGN_OPS:
            self.pos += 1
            value = self.parse_expression()
            expr = Assignment(text, expr, value, join_spans(expr.span, value.span))
        self.depth -= 1
        return expr

    def parse_binary(self, min_prec: int) -> Expression:
        left = self.parse_unary()
        tokens = self.tokens
        while True:
            text = tokens[self.pos][1]
            op = _BINARY_OPS.get(text)
            if op is None or op[0] < min_prec:
                return left
            self.pos += 1
            prec, right_assoc = op
            if right_assoc:  # `a ** b ** c` nests to the right
                self._enter()
                right = self.parse_binary(prec)
                self.depth -= 1
            else:
                right = self.parse_binary(prec + 1)
            left = BinaryOperation(text, left, right, join_spans(left.span, right.span))

    def parse_unary(self) -> Expression:
        t = self.peek()
        if t[1] in _UNARY_PREFIX:
            self.pos += 1
            self._enter()
            operand = self.parse_unary()
            self.depth -= 1
            return UnaryOperation(t[1], operand, True, self._span_from(t[2]))
        return self.parse_postfix()

    def parse_postfix(self) -> Expression:
        expr = self.parse_primary()
        start = expr.span.offset
        tokens = self.tokens
        outer = self.depth
        while True:
            text = tokens[self.pos][1]
            if text not in _POSTFIX_OPS:
                self.depth = outer
                return expr
            # each operator nests the expression so far one level deeper
            self._enter()
            self.pos += 1
            if text == ".":
                member = tokens[self.pos]
                if member[0] == _END:
                    raise ParseError("unexpected end of input", member)
                self.pos += 1
                if member[0] not in (IDENTIFIER, KEYWORD, NUMBER):
                    raise ParseError(f"expected member name, found {member[1]!r}",
                                     member)
                expr = MemberAccess(expr, member[1], self._span_from(start))
            elif text == "(":
                args = self._list(self.parse_expression)
                expr = CallExpression(expr, args, self._span_from(start))
            elif text == "[":
                index = None if self.at("]") else self.parse_expression()
                self.expect("]")
                expr = IndexAccess(expr, index, self._span_from(start))
            else:  # ++ or --
                expr = UnaryOperation(text, expr, False, self._span_from(start))

    def parse_primary(self) -> Expression:
        i = self.pos
        kind, text, offset, length = t = self.tokens[i]
        span = new_span(Span, (self.file_id, offset, length))
        # the cases are disjoint: type names and true/false are keywords
        if kind == IDENTIFIER:
            self.pos = i + 1
            return Identifier(text, span)
        if kind == NUMBER:
            self.pos = i + 1
            unit = self.peek()[1]
            if unit in ETHER_UNITS:
                self.pos += 1
                return NumberLiteral(text, unit, self._span_from(offset))
            return NumberLiteral(text, None, span)
        if kind == HEX:
            self.pos = i + 1
            return HexLiteral(text, span)
        if kind == STRING:
            self.pos = i + 1
            return StringLiteral(text, span)
        if text == "true" or text == "false":
            self.pos = i + 1
            return BoolLiteral(text == "true", span)
        if is_elementary_type_name(text):
            self.pos = i + 1
            return ElementaryTypeExpression(
                TypeName("elementary", span, name=text), span)
        if text == "(":
            self.pos = i + 1
            components = self._list(self.parse_expression)
            return TupleExpression(components, self._span_from(offset))
        if kind == _END:
            raise ParseError("unexpected end of input", t)
        raise ParseError(f"unexpected {text!r} in expression", t)


def _classify_pragma(name: str, parts: list[Token]) -> str:
    if name != "solidity":
        return "other"
    if len(parts) == 1 and parts[0][0] == NUMBER:
        return "exact"
    if parts and parts[0][1] == "^":
        return "caret"
    if any(p[1] in ("<", ">", "<=", ">=", "~") for p in parts):
        return "range"
    return "other"
