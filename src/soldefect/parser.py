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
level, and none in a block. So an error never hides its sibling
statements or functions, and a contract cut off by the end of the file
keeps its complete members. Nesting deeper than MAX_NESTING levels is such
an error, which bounds the parser's recursion. Unsupported constructs
(import, struct/enum, using) are skipped by the same rule with a "partial
analysis" warning instead of failing the file.
"""

from __future__ import annotations

from .lexer import (COMMENT, ETHER_UNITS, HEX, IDENTIFIER, KEYWORD,
                    NUMBER, STRING, Token, is_elementary_type_name, tokenize)
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
from .spans import Diagnostic, Span, join_spans

_VISIBILITY = ("public", "private", "internal", "external")
_MUTABILITY = ("constant", "view", "pure")

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

# Statements, expressions, unary and `**` operands, postfix chains and
# type names nested deeper than this are a syntax error. A level costs the
# parser at most five Python frames, so it and the recursive passes over
# the tree it builds stay well inside the default recursion limit of 1000.
MAX_NESTING = 128

# The statements that hold statements, each a nesting level.
_COMPOUND_STATEMENTS = frozenset({"{", "if", "for", "while"})

# The words a skip stops before: those that start a contract member, and
# those that start a top-level unit.
_MEMBER_STOPS = frozenset({"function", "modifier", "event", "constructor"})
_UNIT_STARTS = frozenset({"pragma", "contract", "interface", "library"})
_TOP_LEVEL_STOPS = _UNIT_STARTS | {"import"}


class ParseError(Exception):
    def __init__(self, message: str, span: Span):
        super().__init__(f"{span}: {message}")
        self.message = message
        self.span = span


class ParseResult:
    """A SourceUnit plus the diagnostics produced while building it."""

    def __init__(self, unit: SourceUnit, diagnostics: list[Diagnostic]):
        self.unit = unit
        self.diagnostics = diagnostics

    @property
    def has_errors(self) -> bool:
        return any(d.severity == "error" for d in self.diagnostics)


def parse_source(source_text: str, file_id: str) -> ParseResult:
    return parse(tokenize(source_text, file_id), file_id)


def parse(tokens: list[Token], file_id: str = "<input>") -> ParseResult:
    return _Parser(tokens, file_id).parse_source_unit()


class _Parser:
    def __init__(self, tokens: list[Token], file_id: str):
        self.tokens = [t for t in tokens if t.kind != COMMENT]
        self.n = len(self.tokens)
        self.pos = 0
        self.depth = 0
        self.file_id = file_id
        self.diagnostics: list[Diagnostic] = []
        self._eof_span = (self.tokens[-1].span if self.tokens
                          else Span(file_id, 1, 1, 0, 0))

    # -- token plumbing ----------------------------------------------------

    def peek(self, offset: int = 0) -> Token | None:
        i = self.pos + offset
        return self.tokens[i] if i < self.n else None

    def at(self, text: str, offset: int = 0) -> bool:
        i = self.pos + offset
        return i < self.n and self.tokens[i].text == text

    def at_kind(self, kind: str) -> bool:
        i = self.pos
        return i < self.n and self.tokens[i].kind == kind

    def advance(self) -> Token:
        i = self.pos
        if i >= self.n:
            raise ParseError("unexpected end of input", self._eof_span)
        self.pos = i + 1
        return self.tokens[i]

    def expect(self, text: str) -> Token:
        i = self.pos
        if i < self.n:
            t = self.tokens[i]
            if t.text == text:
                self.pos = i + 1
                return t
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.span)
        raise ParseError(f"expected {text!r}, found 'end of input'",
                         self._eof_span)

    def expect_identifier(self) -> Token:
        t = self.peek()
        if t is None or t.kind != IDENTIFIER:
            got = t.text if t else "end of input"
            raise ParseError(f"expected identifier, found {got!r}",
                             t.span if t else self._eof_span)
        return self.advance()

    def error(self, message: str, span: Span) -> None:
        self.diagnostics.append(Diagnostic("error", message, span))

    def warn(self, message: str, span: Span) -> None:
        self.diagnostics.append(Diagnostic("warning", message, span))

    def _too_deep(self) -> None:
        """Raise the error for a level past MAX_NESTING.

        A level is entered with ``depth = self.depth + 1``, checked against
        MAX_NESTING and left by storing ``depth - 1`` back. A ParseError
        skips the leaving: each recovery point restores the depth it
        started at.
        """
        t = self.peek()
        raise ParseError(f"nesting deeper than {MAX_NESTING} levels",
                         t.span if t is not None else self._eof_span)

    def _span_from(self, start: Span) -> Span:
        last = self.tokens[self.pos - 1].span if self.pos else start
        if last.offset < start.offset:
            last = start
        return join_spans(start, last)

    def _skip(self, stops: frozenset[str] = frozenset()) -> None:
        """Skip past a syntax error by the one recovery rule of the module
        docstring; ``stops`` are the stop words, which it does not consume."""
        tokens = self.tokens
        i = self.pos
        from_brace = i < self.n and tokens[i].text == "{"
        depth = 0
        while i < self.n:
            text = tokens[i].text
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

    def _list(self, parse_item) -> tuple[list, Token]:
        """The comma-separated items after a `(`, and the closing `)`."""
        items = []
        if not self.at(")"):
            items.append(parse_item())
            while self.at(","):
                self.pos += 1
                items.append(parse_item())
        return items, self.expect(")")

    # -- top level ---------------------------------------------------------

    def parse_source_unit(self) -> ParseResult:
        start = self.peek().span if self.peek() else self._eof_span
        pragmas: list[PragmaDirective] = []
        contracts: list[ContractDefinition] = []
        while self.peek() is not None:
            t = self.peek()
            depth = self.depth
            try:
                if t.text == "pragma":
                    pragmas.append(self.parse_pragma())
                elif t.text in ("contract", "interface", "library"):
                    contracts.append(self.parse_contract())
                elif t.text == "import":
                    self.warn("import directives are ignored (partial analysis)", t.span)
                    self._skip(_UNIT_STARTS)  # from `import`, not a stop here
                else:
                    self.error(f"unexpected {t.text!r} at top level", t.span)
                    self.pos += 1
                    self._skip(_TOP_LEVEL_STOPS)
            except ParseError as exc:
                self.depth = depth
                self.error(exc.message, exc.span)
                self._skip(_TOP_LEVEL_STOPS)
        unit = SourceUnit(pragmas, contracts, self._span_from(start))
        return ParseResult(unit, self.diagnostics)

    def parse_pragma(self) -> PragmaDirective:
        start = self.expect("pragma").span
        name = self.expect_identifier()
        parts: list[Token] = []
        # a pragma missing its `;` ends before the next unit
        while (self.pos < self.n and not self.at(";")
               and self.tokens[self.pos].text not in _TOP_LEVEL_STOPS):
            parts.append(self.advance())
        end = self.expect(";")
        version_text = "".join(t.text for t in parts)
        kind = _classify_pragma(name.text, parts)
        return PragmaDirective(name.text, kind, version_text,
                               join_spans(start, end.span))

    def parse_contract(self) -> ContractDefinition:
        kw = self.advance()  # contract | interface | library
        name = self.expect_identifier()
        bases: list[str] = []
        if self.at("is"):
            self.advance()
            bases.append(self.expect_identifier().text)
            while self.at(","):
                self.advance()
                bases.append(self.expect_identifier().text)
        self.expect("{")
        contract = ContractDefinition(name.text, kw.text, bases, [], [], [], [],
                                      kw.span)
        while self.peek() is not None and not self.at("}"):
            self.parse_contract_member(contract)
        if self.pos < self.n:
            self.pos += 1
        else:  # keep the members of a file cut short
            self.error("expected '}', found 'end of input'", self._eof_span)
        contract.span = self._span_from(kw.span)
        return contract

    def parse_contract_member(self, contract: ContractDefinition) -> None:
        t = self.peek()
        depth = self.depth
        try:
            if t.text == "function" or (t.text == "constructor" and self.at("(", 1)):
                contract.functions.append(self.parse_function())
            elif t.text == "modifier":
                contract.modifiers.append(self.parse_modifier())
            elif t.text == "event":
                contract.events.append(self.parse_event())
            elif t.text in ("struct", "enum"):
                self.warn(f"{t.text} definitions are not analyzed (partial analysis)",
                          t.span)
                self.advance()
                if self.at_kind(IDENTIFIER):
                    self.advance()
                self._skip(_MEMBER_STOPS)
            elif t.text == "using":
                self.warn("using-for directives are ignored (partial analysis)", t.span)
                self._skip(_MEMBER_STOPS)
            else:
                contract.state_variables.append(self.parse_state_variable())
        except ParseError as exc:
            self.depth = depth
            self.error(exc.message, exc.span)
            self._skip(_MEMBER_STOPS)

    def parse_state_variable(self) -> VariableDeclaration:
        start = self.peek().span
        type_name = self.parse_type_name()
        visibility = "default"
        is_constant = False
        while True:
            if self.peek() is not None and self.peek().text in _VISIBILITY:
                visibility = self.advance().text
            elif self.at("constant"):
                is_constant = True
                self.advance()
            else:
                break
        name = self.expect_identifier()
        initializer = None
        if self.at("="):
            self.advance()
            initializer = self.parse_expression()
        end = self.expect(";")
        return VariableDeclaration(name.text, type_name,
                                   join_spans(start, end.span),
                                   initializer=initializer,
                                   visibility=visibility,
                                   is_constant=is_constant)

    def parse_function(self) -> FunctionDefinition:
        start = self.peek().span
        is_constructor = False
        name = ""
        if self.at("constructor"):
            self.advance()
            is_constructor = True
        else:
            self.expect("function")
            if self.at_kind(IDENTIFIER) or (self.peek() is not None
                                            and self.peek().text == "constructor"):
                name = self.advance().text
                if name == "constructor":
                    is_constructor = True
        parameters = self.parse_parameter_list()
        visibility = "default"
        is_payable = False
        mutability = None
        modifiers: list[tuple[str, list[Expression]]] = []
        returns_: list[VariableDeclaration] = []
        while self.peek() is not None and not self.at("{") and not self.at(";"):
            t = self.peek()
            if t.text in _VISIBILITY:
                visibility = self.advance().text
            elif t.text == "payable":
                is_payable = True
                self.advance()
            elif t.text in _MUTABILITY:
                mutability = self.advance().text
            elif t.text == "returns":
                self.advance()
                returns_ = self.parse_parameter_list()
            elif t.kind == IDENTIFIER:
                self.advance()
                args: list[Expression] = []
                if self.at("("):
                    self.advance()
                    args, _ = self._list(self.parse_expression)
                modifiers.append((t.text, args))
            else:
                raise ParseError(f"unexpected {t.text!r} in function header", t.span)
        body = None
        if self.at("{"):
            body = self.parse_block()
        else:
            self.expect(";")
        return FunctionDefinition(name, parameters, returns_, visibility,
                                  is_payable, mutability, modifiers, body,
                                  is_constructor, self._span_from(start))

    def parse_modifier(self) -> ModifierDefinition:
        start = self.expect("modifier").span
        name = self.expect_identifier()
        parameters: list[VariableDeclaration] = []
        if self.at("("):
            parameters = self.parse_parameter_list()
        body = self.parse_block()
        return ModifierDefinition(name.text, parameters, body,
                                  self._span_from(start))

    def parse_event(self) -> EventDefinition:
        start = self.expect("event").span
        name = self.expect_identifier()
        parameters = self.parse_parameter_list()
        anonymous = False
        if self.at("anonymous"):
            anonymous = True
            self.advance()
        end = self.expect(";")
        return EventDefinition(name.text, parameters, anonymous,
                               join_spans(start, end.span))

    def parse_parameter_list(self) -> list[VariableDeclaration]:
        self.expect("(")
        params, _ = self._list(self.parse_parameter)
        return params

    def parse_parameter(self) -> VariableDeclaration:
        start = self.peek().span if self.peek() else self._eof_span
        type_name = self.parse_type_name()
        location = "unspecified"
        is_indexed = False
        while True:
            t = self.peek()
            if t is not None and t.text in ("memory", "storage", "calldata"):
                location = self.advance().text
            elif t is not None and t.text == "indexed":
                is_indexed = True
                self.advance()
            else:
                break
        name = ""
        if self.at_kind(IDENTIFIER):
            name = self.advance().text
        return VariableDeclaration(name, type_name, self._span_from(start),
                                   data_location=location, is_indexed=is_indexed)

    # -- types --------------------------------------------------------------

    def parse_type_name(self) -> TypeName:
        t = self.peek()
        if t is None:
            raise ParseError("expected a type", self._eof_span)
        depth = self.depth + 1
        if depth > MAX_NESTING:
            self._too_deep()
        self.depth = depth
        if t.text == "mapping":
            start = self.advance().span
            self.expect("(")
            key = self.parse_type_name()
            self.expect("=>")
            value = self.parse_type_name()
            end = self.expect(")")
            base = TypeName("mapping", join_spans(start, end.span),
                            key_type=key, value_type=value)
        elif t.text == "var":
            self.advance()
            base = TypeName("var", t.span)
        elif is_elementary_type_name(t.text):
            self.advance()
            base = TypeName("elementary", t.span, name=t.text)
        elif t.kind == IDENTIFIER:
            self.advance()
            base = TypeName("user", t.span, name=t.text)
        else:
            raise ParseError(f"expected a type, found {t.text!r}", t.span)
        while self.at("["):
            self.advance()
            length = None
            if not self.at("]"):
                length = self.parse_expression()
            end = self.expect("]")
            base = TypeName("array", join_spans(base.span, end.span),
                            element=base, length=length)
        self.depth = depth - 1
        return base

    # -- statements ----------------------------------------------------------

    def parse_block(self) -> Block:
        start = self.expect("{").span
        statements: list[Statement] = []
        depth = self.depth
        tokens = self.tokens
        while self.pos < self.n and tokens[self.pos].text != "}":
            try:
                statements.append(self.parse_statement())
            except ParseError as exc:
                self.depth = depth
                self.error(exc.message, exc.span)
                self._skip()
        end = self.expect("}")
        return Block(statements, join_spans(start, end.span))

    def parse_statement(self) -> Statement:
        i = self.pos
        if i >= self.n:
            raise ParseError("unexpected end of input", self._eof_span)
        t = self.tokens[i]
        text = t.text
        if text in _COMPOUND_STATEMENTS:
            depth = self.depth + 1
            if depth > MAX_NESTING:
                self._too_deep()
            self.depth = depth
            if text == "{":
                statement = self.parse_block()
            elif text == "if":
                statement = self.parse_if()
            elif text == "for":
                statement = self.parse_for()
            else:
                statement = self.parse_while()
            self.depth = depth - 1
            return statement
        if text == "return":
            start = self.advance().span
            value = None
            if not self.at(";"):
                value = self.parse_expression()
            end = self.expect(";")
            return ReturnStatement(value, join_spans(start, end.span))
        if text == "emit":
            start = self.advance().span
            call = self.parse_expression()
            end = self.expect(";")
            if not isinstance(call, CallExpression):
                raise ParseError("emit expects an event call", start)
            return EmitStatement(call, join_spans(start, end.span))
        if text == "throw":
            start = self.advance().span
            end = self.expect(";")
            return ThrowStatement(join_spans(start, end.span))
        if text == "break":
            start = self.advance().span
            end = self.expect(";")
            return BreakStatement(join_spans(start, end.span))
        if text == "continue":
            start = self.advance().span
            end = self.expect(";")
            return ContinueStatement(join_spans(start, end.span))
        if text == "_" and self.at(";", 1):
            start = self.advance().span
            end = self.expect(";")
            return PlaceholderStatement(join_spans(start, end.span))
        if self._looks_like_declaration():
            return self.parse_declaration_statement()
        start = t.span
        expr = self.parse_expression()
        end = self.expect(";")
        return ExpressionStatement(expr, join_spans(start, end.span))

    def _looks_like_declaration(self) -> bool:
        t = self.peek()
        if t is None:
            return False
        if t.text in ("var", "mapping"):
            return True
        if t.kind == KEYWORD and is_elementary_type_name(t.text):
            return True
        if t.kind != IDENTIFIER:
            return False
        # `Foo bar ...` or `Foo[...] bar ...` declares a user-typed local.
        nxt = self.peek(1)
        if nxt is not None and nxt.kind == IDENTIFIER:
            return True
        if nxt is not None and nxt.text == "[":
            i = self.pos + 2
            depth = 1
            while i < len(self.tokens) and depth:
                if self.tokens[i].text == "[":
                    depth += 1
                elif self.tokens[i].text == "]":
                    depth -= 1
                i += 1
            return i < len(self.tokens) and self.tokens[i].kind == IDENTIFIER
        return False

    def parse_declaration_statement(self) -> VariableDeclarationStatement:
        decl = self.parse_local_declaration()
        end = self.expect(";")
        span = join_spans(decl.span, end.span)
        return VariableDeclarationStatement(decl, span)

    def parse_local_declaration(self) -> VariableDeclaration:
        start = self.peek().span
        type_name = self.parse_type_name()
        location = "unspecified"
        if self.peek() is not None and self.peek().text in ("memory", "storage", "calldata"):
            location = self.advance().text
        name = self.expect_identifier()
        initializer = None
        if self.at("="):
            self.advance()
            initializer = self.parse_expression()
        return VariableDeclaration(name.text, type_name, self._span_from(start),
                                   data_location=location,
                                   initializer=initializer)

    def parse_if(self) -> IfStatement:
        start = self.expect("if").span
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
        start = self.expect("for").span
        self.expect("(")
        init: Statement | None = None
        if not self.at(";"):
            if self._looks_like_declaration():
                decl = self.parse_local_declaration()
                init = VariableDeclarationStatement(decl, decl.span)
            else:
                expr = self.parse_expression()
                init = ExpressionStatement(expr, expr.span)
        self.expect(";")
        condition = None
        if not self.at(";"):
            condition = self.parse_expression()
        self.expect(";")
        post = None
        if not self.at(")"):
            post = self.parse_expression()
        self.expect(")")
        body = self.parse_statement()
        return ForStatement(init, condition, post, body, self._span_from(start))

    def parse_while(self) -> WhileStatement:
        start = self.expect("while").span
        self.expect("(")
        condition = self.parse_expression()
        self.expect(")")
        body = self.parse_statement()
        return WhileStatement(condition, body, self._span_from(start))

    # -- expressions ----------------------------------------------------------

    def parse_expression(self) -> Expression:
        """An assignment (right-associative), a conditional or a binary
        expression."""
        depth = self.depth + 1
        if depth > MAX_NESTING:
            self._too_deep()
        self.depth = depth
        expr = self.parse_binary(0)
        i = self.pos
        if i < self.n:
            text = self.tokens[i].text
            if text == "?":
                self.pos = i + 1
                true_expr = self.parse_expression()
                self.expect(":")
                # the false branch takes any assignment that follows
                false_expr = self.parse_expression()
                expr = Conditional(expr, true_expr, false_expr,
                                   join_spans(expr.span, false_expr.span))
            elif text in _ASSIGN_OPS:
                self.pos = i + 1
                value = self.parse_expression()
                expr = Assignment(text, expr, value,
                                  join_spans(expr.span, value.span))
        self.depth = depth - 1
        return expr

    def parse_binary(self, min_prec: int) -> Expression:
        left = self.parse_unary()
        tokens = self.tokens
        while True:
            i = self.pos
            if i >= self.n:
                return left
            t = tokens[i]
            op = _BINARY_OPS.get(t.text)
            if op is None or op[0] < min_prec:
                return left
            self.pos = i + 1
            prec, right_assoc = op
            if right_assoc:  # `a ** b ** c` nests to the right
                depth = self.depth + 1
                if depth > MAX_NESTING:
                    self._too_deep()
                self.depth = depth
                right = self.parse_binary(prec)
                self.depth = depth - 1
            else:
                right = self.parse_binary(prec + 1)
            left = BinaryOperation(t.text, left, right,
                                   join_spans(left.span, right.span))

    def parse_unary(self) -> Expression:
        i = self.pos
        if i < self.n and self.tokens[i].text in _UNARY_PREFIX:
            t = self.tokens[i]
            self.pos = i + 1
            depth = self.depth + 1
            if depth > MAX_NESTING:
                self._too_deep()
            self.depth = depth
            operand = self.parse_unary()
            self.depth = depth - 1
            return UnaryOperation(t.text, operand, True,
                                  join_spans(t.span, operand.span))
        return self.parse_postfix()

    def parse_postfix(self) -> Expression:
        expr = self.parse_primary()
        tokens = self.tokens
        outer = depth = self.depth
        while True:
            i = self.pos
            if i >= self.n or tokens[i].text not in _POSTFIX_OPS:
                self.depth = outer
                return expr
            # each operator nests the expression so far one level deeper
            depth += 1
            if depth > MAX_NESTING:
                self._too_deep()
            self.depth = depth
            t = tokens[i]
            text = t.text
            self.pos = i + 1
            if text == ".":
                member = self.advance()
                if member.kind not in (IDENTIFIER, KEYWORD, NUMBER):
                    raise ParseError(f"expected member name, found {member.text!r}",
                                     member.span)
                expr = MemberAccess(expr, member.text,
                                    join_spans(expr.span, member.span))
            elif text == "(":
                args, end = self._list(self.parse_expression)
                expr = CallExpression(expr, args, join_spans(expr.span, end.span))
            elif text == "[":
                index = None
                if not self.at("]"):
                    index = self.parse_expression()
                end = self.expect("]")
                expr = IndexAccess(expr, index, join_spans(expr.span, end.span))
            else:  # ++ or --
                expr = UnaryOperation(text, expr, False,
                                      join_spans(expr.span, t.span))

    def parse_primary(self) -> Expression:
        i = self.pos
        if i >= self.n:
            raise ParseError("unexpected end of input", self._eof_span)
        t = self.tokens[i]
        kind = t.kind
        # the cases are disjoint: type names and true/false are keywords
        if kind == IDENTIFIER:
            self.pos = i + 1
            return Identifier(t.text, t.span)
        if kind == NUMBER:
            self.pos = i + 1
            nxt = self.peek()
            if nxt is not None and nxt.text in ETHER_UNITS:
                self.pos += 1
                return NumberLiteral(t.text, nxt.text, join_spans(t.span, nxt.span))
            return NumberLiteral(t.text, None, t.span)
        if kind == HEX:
            self.pos = i + 1
            return HexLiteral(t.text, t.span)
        if kind == STRING:
            self.pos = i + 1
            return StringLiteral(t.text, t.span)
        text = t.text
        if text == "true" or text == "false":
            self.pos = i + 1
            return BoolLiteral(text == "true", t.span)
        if is_elementary_type_name(text):
            self.pos = i + 1
            return ElementaryTypeExpression(
                TypeName("elementary", t.span, name=text), t.span)
        if text == "(":
            self.pos = i + 1
            components, end = self._list(self.parse_expression)
            return TupleExpression(components, join_spans(t.span, end.span))
        raise ParseError(f"unexpected {text!r} in expression", t.span)


def _classify_pragma(name: str, parts: list[Token]) -> str:
    if name != "solidity":
        return "other"
    if len(parts) == 1 and parts[0].kind == NUMBER:
        return "exact"
    if parts and parts[0].text == "^":
        return "caret"
    if any(p.text in ("<", ">", "<=", ">=", "~") for p in parts):
        return "range"
    return "other"
