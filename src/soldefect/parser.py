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
keeps its complete members. An error that several levels of recovery see
in turn, such as the end of a file cut inside nested blocks, is reported
once. Unsupported constructs (import, struct/enum, using) are skipped by
the same rule with a "partial analysis" warning instead of failing the file.

The token list ends with an end token whose text, "end of input", is what
an error at the end of the file names ("expected ';', found 'end of
input'"). Nothing consumes it or looks past it, so no lookahead
bounds-checks. Only the loops that must stop at the end (the skip, and the
unit, contract, block, function-header and pragma loops) test for it,
besides the three errors worded "unexpected end of input" or "expected a
type" there.

One nesting rule bounds the parser's recursion: a type name, a compound
statement, an expression, a `**` or prefix operand and each postfix
operator enter a level (`_Parser._enter`), and a level past MAX_NESTING is a
syntax error.
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
        self.tokens.append(Token(_END, "end of input", self.tokens[-1].span
                                 if self.tokens else Span(file_id, 1, 1, 0, 0)))
        self.pos = 0
        self.depth = 0
        self.diagnostics: list[Diagnostic] = []

    # -- token plumbing ----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[self.pos + offset]

    def at(self, text: str, offset: int = 0) -> bool:
        return self.tokens[self.pos + offset].text == text

    def at_kind(self, kind: str) -> bool:
        return self.tokens[self.pos].kind == kind

    def advance(self) -> Token:
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, text: str) -> Token:
        t = self.tokens[self.pos]
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.span)
        self.pos += 1
        return t

    def expect_identifier(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != IDENTIFIER:
            raise ParseError(f"expected identifier, found {t.text!r}", t.span)
        self.pos += 1
        return t

    def error(self, message: str, span: Span) -> None:
        """Record an error, unless it repeats the one just recorded: an
        error raised through several recovery points is reported once."""
        diagnostic = Diagnostic("error", message, span)
        if not self.diagnostics or self.diagnostics[-1] != diagnostic:
            self.diagnostics.append(diagnostic)

    def warn(self, message: str, span: Span) -> None:
        self.diagnostics.append(Diagnostic("warning", message, span))

    def _enter(self) -> None:
        """Enter one nesting level; leave it with ``self.depth -= 1``.

        A level past MAX_NESTING raises. A ParseError skips the leaving:
        each recovery point restores the depth it started at.
        """
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels",
                             self.tokens[self.pos].span)

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
        from_brace = tokens[i].text == "{"
        depth = 0
        while tokens[i].kind != _END:
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
        start = self.peek().span
        pragmas: list[PragmaDirective] = []
        contracts: list[ContractDefinition] = []
        while not self.at_kind(_END):
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
        while (not self.at(";") and not self.at_kind(_END)
               and self.peek().text not in _TOP_LEVEL_STOPS):
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
        while not self.at("}") and not self.at_kind(_END):
            self.parse_contract_member(contract)
        if self.at_kind(_END):  # keep the members of a file cut short
            self.error("expected '}', found 'end of input'", self.peek().span)
        else:
            self.pos += 1
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
                decl = self.parse_variable(_STATE_WORDS)
                decl.span = join_spans(decl.span, self.expect(";").span)
                contract.state_variables.append(decl)
        except ParseError as exc:
            self.depth = depth
            self.error(exc.message, exc.span)
            self._skip(_MEMBER_STOPS)

    def parse_function(self) -> FunctionDefinition:
        start = self.peek().span
        is_constructor = False
        name = ""
        if self.at("constructor"):
            self.advance()
            is_constructor = True
        else:
            self.expect("function")
            if self.at_kind(IDENTIFIER) or self.at("constructor"):
                name = self.advance().text
                if name == "constructor":
                    is_constructor = True
        parameters = self.parse_parameter_list()
        visibility = "default"
        is_payable = False
        mutability = None
        modifiers: list[tuple[str, list[Expression]]] = []
        returns_: list[VariableDeclaration] = []
        while not self.at("{") and not self.at(";") and not self.at_kind(_END):
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
        params, _ = self._list(lambda: self.parse_variable(_PARAMETER_WORDS))
        return params

    def parse_variable(self, words: frozenset[str]) -> VariableDeclaration:
        """A state variable, parameter or local, up to its `;` or `,`: the
        type, any of ``words`` (the modifiers the context allows), the name,
        and an initializer. A parameter's name is optional and it has no
        initializer."""
        start = self.peek().span
        decl = VariableDeclaration("", self.parse_type_name(), start)
        while self.peek().text in words:
            word = self.advance().text
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
                decl.name = self.advance().text
        else:
            decl.name = self.expect_identifier().text
            if self.at("="):
                self.advance()
                decl.initializer = self.parse_expression()
        decl.span = self._span_from(start)
        return decl

    # -- types --------------------------------------------------------------

    def parse_type_name(self) -> TypeName:
        t = self.peek()
        self._enter()
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
        elif t.kind == _END:
            raise ParseError("expected a type", t.span)
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
        self.depth -= 1
        return base

    # -- statements ----------------------------------------------------------

    def parse_block(self) -> Block:
        start = self.expect("{").span
        statements: list[Statement] = []
        depth = self.depth
        while not self.at("}") and not self.at_kind(_END):
            try:
                statements.append(self.parse_statement())
            except ParseError as exc:
                self.depth = depth
                self.error(exc.message, exc.span)
                self._skip()
        end = self.expect("}")
        return Block(statements, join_spans(start, end.span))

    def parse_statement(self) -> Statement:
        t = self.peek()
        text = t.text
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
        if text in _WORD_STATEMENTS and (text != "_" or self.at(";", 1)):
            self.advance()
            end = self.expect(";")
            return _WORD_STATEMENTS[text](join_spans(t.span, end.span))
        if self._looks_like_declaration():
            decl = self.parse_variable(_LOCAL_WORDS)
            end = self.expect(";")
            return VariableDeclarationStatement(decl, join_spans(decl.span, end.span))
        start = t.span
        expr = self.parse_expression()
        end = self.expect(";")
        return ExpressionStatement(expr, join_spans(start, end.span))

    def _looks_like_declaration(self) -> bool:
        t = self.peek()
        if t.text in ("var", "mapping"):
            return True
        if t.kind == KEYWORD and is_elementary_type_name(t.text):
            return True
        if t.kind != IDENTIFIER:
            return False
        # `Foo bar ...` or `Foo[...] bar ...` declares a user-typed local.
        nxt = self.peek(1)
        if nxt.kind == IDENTIFIER:
            return True
        if nxt.text == "[":
            tokens = self.tokens
            i = self.pos + 2
            depth = 1
            while depth and tokens[i].kind != _END:
                if tokens[i].text == "[":
                    depth += 1
                elif tokens[i].text == "]":
                    depth -= 1
                i += 1
            return tokens[i].kind == IDENTIFIER
        return False

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
                decl = self.parse_variable(_LOCAL_WORDS)
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
        self._enter()
        expr = self.parse_binary(0)
        text = self.peek().text
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
            expr = Assignment(text, expr, value,
                              join_spans(expr.span, value.span))
        self.depth -= 1
        return expr

    def parse_binary(self, min_prec: int) -> Expression:
        left = self.parse_unary()
        tokens = self.tokens
        while True:
            t = tokens[self.pos]
            op = _BINARY_OPS.get(t.text)
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
            left = BinaryOperation(t.text, left, right,
                                   join_spans(left.span, right.span))

    def parse_unary(self) -> Expression:
        t = self.peek()
        if t.text in _UNARY_PREFIX:
            self.pos += 1
            self._enter()
            operand = self.parse_unary()
            self.depth -= 1
            return UnaryOperation(t.text, operand, True,
                                  join_spans(t.span, operand.span))
        return self.parse_postfix()

    def parse_postfix(self) -> Expression:
        expr = self.parse_primary()
        tokens = self.tokens
        outer = self.depth
        while True:
            t = tokens[self.pos]
            text = t.text
            if text not in _POSTFIX_OPS:
                self.depth = outer
                return expr
            # each operator nests the expression so far one level deeper
            self._enter()
            self.pos += 1
            if text == ".":
                member = tokens[self.pos]
                if member.kind == _END:
                    raise ParseError("unexpected end of input", member.span)
                self.pos += 1
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
        t = self.tokens[i]
        kind = t.kind
        # the cases are disjoint: type names and true/false are keywords
        if kind == IDENTIFIER:
            self.pos = i + 1
            return Identifier(t.text, t.span)
        if kind == NUMBER:
            self.pos = i + 1
            nxt = self.peek()
            if nxt.text in ETHER_UNITS:
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
        if kind == _END:
            raise ParseError("unexpected end of input", t.span)
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
