"""Tokenizer for the supported Solidity subset.

Lossless: comments are emitted as ordinary tokens and every token is a
``(kind, text, offset, length)`` tuple, so the input can be reconstructed
from the tokens plus the whitespace gaps between them. No lines are counted:
the token list carries the file's line starts (``spans.line_starts``).
"""

from __future__ import annotations

import re

from .spans import Span, line_starts, position

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

# One compiled pass over the file. Each match is the whitespace before a
# token and the token. The groups are tried in order, so a comment wins over
# the `/` operator and a hex literal over the number 0. The next group takes
# any one character the others do not, which is an error; the last takes the
# end of the input, so trailing whitespace is one match, not a rescan from
# each of its positions. A token's kind is its group's index in _KINDS.
_TOKEN_RE = re.compile(
    r"""
    [ \t\r\n]*(?:
    ([A-Za-z_$][A-Za-z0-9_$]*)
  | ([(){}\[\];,])
  | (//[^\n]*|/\*(?:[^*]|\*(?!/))*\*/)
  | (\*\*|<<=?|>>=?|<=|>=|==|!=|&&|\|\||\+\+|--|\+=|-=|\*=|/=|%=|\|=|&=|\^=|=>|[-+*/%=<>!&|^~?:.])
  | (0[xX][0-9a-fA-F]+)
  | ([0-9]+(?:\.[0-9]+)*(?:[eE]-?[0-9]+)?)
  | ("(?:[^"\\\n]|\\.)*"|'(?:[^'\\\n]|\\.)*')
  | ([^ \t\r\n])
  | (\Z))
    """,
    re.VERBOSE,
)
_IDENTIFIER, _OP, _OTHER, _END = 1, 4, 8, 9
_KINDS = (None, None, PUNCT, COMMENT, OP, HEX, NUMBER, STRING)


class LexerError(Exception):
    """Input the lexer cannot take, at ``span`` in ``source_text``."""

    def __init__(self, message: str, span: Span, source_text: str):
        self.line, self.column = position(line_starts(source_text), span.offset)
        super().__init__(f"{span.file_id}:{self.line}:{self.column}: {message}")
        self.span = span


# A token: (kind, text, offset, length), in `str` indices.
Token = tuple[str, str, int, int]


class Tokens(list):
    """One file's tokens, and its ``spans.line_starts`` as ``line_starts``."""

    __slots__ = ("line_starts",)


def is_elementary_type_name(text: str) -> bool:
    return text in _ELEMENTARY


def tokenize(source_text: str, file_id: str) -> Tokens:
    """Lex ``source_text`` into a lossless token stream (comments included).

    Raises LexerError on unterminated strings/comments or characters outside
    the grammar; the caller is expected to keep going with its other inputs.
    """
    tokens = Tokens()
    append = tokens.append
    keyword_texts = _KEYWORD_TEXTS
    kinds = _KINDS
    for m in _TOKEN_RE.finditer(source_text):
        group = m.lastindex
        start, end = m.span(group)
        text = m.group(group)
        if group == _IDENTIFIER:
            append((KEYWORD if text in keyword_texts else IDENTIFIER,
                    text, start, end - start))
        elif group == _END:
            break
        elif group == _OTHER:
            # a `/` always lexes, so only a quote opens an unterminated token
            raise LexerError("unterminated string" if text in "\"'"
                             else f"unexpected character {text!r}",
                             Span(file_id, start, 1), source_text)
        else:
            if group == _OP and text == "/" and source_text.startswith("/*", start):
                # the comment alternative only matches terminated comments
                raise LexerError("unterminated comment", Span(file_id, start, 2),
                                 source_text)
            append((kinds[group], text, start, end - start))
    tokens.line_starts = line_starts(source_text)
    return tokens
