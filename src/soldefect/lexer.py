"""Tokenizer for the supported Solidity subset.

Lossless: comments are emitted as ordinary tokens and every token carries
an exact source span, so the input can be reconstructed byte-for-byte from
the token stream plus the whitespace gaps between spans.
"""

from __future__ import annotations

import re

from .spans import Span, new_span

# Token kinds
IDENTIFIER = "identifier"
KEYWORD = "keyword"
NUMBER = "number-literal"
HEX = "hex-literal"
STRING = "string-literal"
PUNCT = "punctuation"
OP = "operator"
COMMENT = "comment"

KEYWORDS = frozenset({
    "pragma", "contract", "interface", "library", "is",
    "function", "modifier", "event", "returns", "return",
    "if", "else", "for", "while", "do", "break", "continue", "throw", "emit",
    "var", "new", "delete", "struct", "enum", "using",
    "public", "private", "internal", "external", "payable",
    "constant", "pure", "view", "anonymous", "indexed",
    "memory", "storage", "calldata", "mapping",
    "true", "false",
    "wei", "szabo", "finney", "ether",
    "seconds", "minutes", "hours", "days", "weeks", "years",
    "address", "bool", "string", "bytes", "byte", "uint", "int",
})

_SIZED_TYPES = frozenset(
    [f"{sign}int{bits}" for sign in ("u", "") for bits in range(8, 257, 8)]
    + [f"bytes{size}" for size in range(1, 33)])

# Type names that may start a declaration or a cast; all are keywords.
_ELEMENTARY = _SIZED_TYPES | {"address", "bool", "string", "bytes", "byte",
                              "uint", "int"}

_KEYWORD_TEXTS = KEYWORDS | _SIZED_TYPES

ETHER_UNITS = {
    "wei": 1,
    "szabo": 10 ** 12,
    "finney": 10 ** 15,
    "ether": 10 ** 18,
    "seconds": 1,
    "minutes": 60,
    "hours": 3600,
    "days": 86400,
    "weeks": 604800,
    "years": 31536000,
}

# One compiled pass over the file. The groups are tried in order, so a
# comment wins over the `/` operator and a hex literal over the number 0.
# A token's kind is its group's index in _KINDS (whitespace has none).
_TOKEN_RE = re.compile(
    r"""
    ([ \t\r\n]+)
  | ([A-Za-z_$][A-Za-z0-9_$]*)
  | ([(){}\[\];,])
  | (//[^\n]*|/\*(?:[^*]|\*(?!/))*\*/)
  | (\*\*|<<=?|>>=?|<=|>=|==|!=|&&|\|\||\+\+|--|\+=|-=|\*=|/=|%=|\|=|&=|\^=|=>|[-+*/%=<>!&|^~?:.])
  | (0[xX][0-9a-fA-F]+)
  | ([0-9]+(?:\.[0-9]+)*)
  | ("(?:[^"\\\n]|\\.)*"|'(?:[^'\\\n]|\\.)*')
    """,
    re.VERBOSE,
)
_WS, _IDENTIFIER, _COMMENT, _OP = 1, 2, 4, 5
_KINDS = (None, None, IDENTIFIER, PUNCT, COMMENT, OP, HEX, NUMBER, STRING)


class LexerError(Exception):
    def __init__(self, message: str, span: Span):
        super().__init__(f"{span}: {message}")
        self.span = span


class Token:
    __slots__ = ("kind", "text", "span")

    def __init__(self, kind: str, text: str, span: Span):
        self.kind = kind
        self.text = text
        self.span = span

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r})"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Token) and self.kind == other.kind
                and self.text == other.text and self.span == other.span)


def is_elementary_type_name(text: str) -> bool:
    return text in _ELEMENTARY


def tokenize(source_text: str, file_id: str) -> list[Token]:
    """Lex ``source_text`` into a lossless token stream (comments included).

    Raises LexerError on unterminated strings/comments or bytes outside the
    grammar; the caller is expected to keep going with its other inputs.
    """
    tokens: list[Token] = []
    append = tokens.append
    keyword_texts = _KEYWORD_TEXTS
    kinds = _KINDS
    pos = 0
    line = 1
    line_start = 0
    for m in _TOKEN_RE.finditer(source_text):
        start, end = m.span()
        if start != pos:
            _fail(source_text, file_id, pos, line, line_start)
        pos = end
        group = m.lastindex
        if group == _WS:
            nl = source_text.count("\n", start, end)
            if nl:
                line += nl
                line_start = source_text.rindex("\n", start, end) + 1
            continue
        text = m.group()
        if group == _IDENTIFIER:
            kind = KEYWORD if text in keyword_texts else IDENTIFIER
        else:
            kind = kinds[group]
        column = start - line_start + 1
        append(Token(kind, text,
                     new_span(Span, (file_id, line, column, start, end - start))))
        if group == _COMMENT:
            nl = text.count("\n")
            if nl:
                line += nl
                line_start = start + text.rindex("\n") + 1
        elif group == _OP and text == "/" and source_text.startswith("/*", start):
            # the comment alternative only matches terminated comments
            raise LexerError("unterminated comment",
                             Span(file_id, line, column, start, 2))
    if pos != len(source_text):
        _fail(source_text, file_id, pos, line, line_start)
    return tokens


def _fail(source_text: str, file_id: str, pos: int, line: int,
          line_start: int) -> None:
    """Raise the LexerError for the unlexable input at ``pos``. A `/` always
    lexes (as the operator at worst), so only a quote opens an unterminated
    token here."""
    span = Span(file_id, line, pos - line_start + 1, pos, 1)
    ch = source_text[pos]
    if ch in "\"'":
        raise LexerError("unterminated string", span)
    raise LexerError(f"unexpected character {ch!r}", span)
