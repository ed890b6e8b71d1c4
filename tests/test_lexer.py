from __future__ import annotations

import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from soldefect.lexer import (_ELEMENTARY, COMMENT, HEX, IDENTIFIER, KEYWORD,
                             NUMBER, OP, PUNCT, LexerError,
                             is_elementary_type_name, tokenize)
from soldefect.spans import Span, position

from conftest import read_listing


def test_pragma_line_tokens():
    # hand-tokenized per the grammar: keyword, identifier, operator,
    # one multi-dot number, punctuation
    tokens = tokenize("pragma solidity ^0.4.25;", "t.sol")
    assert [t[:2] for t in tokens] == [
        (KEYWORD, "pragma"),
        (IDENTIFIER, "solidity"),
        (OP, "^"),
        (NUMBER, "0.4.25"),
        (PUNCT, ";"),
    ]


def test_empty_input():
    assert tokenize("", "t.sol") == []


def test_single_comment_token():
    tokens = tokenize("/*Hard Code Address*/", "t.sol")
    assert tokens == [(COMMENT, "/*Hard Code Address*/", 0, 21)]


def test_line_comment_and_spans():
    tokens = tokenize("x = 1; // note\ny", "t.sol")
    assert [t[1] for t in tokens] == ["x", "=", "1", ";", "// note", "y"]
    y = tokens[-1]
    assert position(tokens.line_starts, y[2]) == (2, 1)
    # a comment that ends the file keeps its trailing spaces
    assert tokenize("x // end   ", "t.sol")[-1] == (COMMENT, "// end   ", 2, 9)


def test_scientific_notation_is_one_number():
    tokens = tokenize("1e18 2.5e1 2e-10 1E3 1ether 2e", "t.sol")
    assert [t[:2] for t in tokens] == [
        (NUMBER, "1e18"), (NUMBER, "2.5e1"), (NUMBER, "2e-10"), (NUMBER, "1E3"),
        (NUMBER, "1"), (KEYWORD, "ether"), (NUMBER, "2"), (IDENTIFIER, "e")]


@pytest.mark.parametrize("tail", ["\n", " ", "\r\n", "\t "])
def test_trailing_whitespace_lexes_in_linear_time(tail):
    # the whitespace after the last token must be taken in one match: a
    # rescan from each of its positions is quadratic in its length
    start = time.perf_counter()
    tokens = tokenize("contract C { } // end  \n" + tail * 20_000, "t.sol")
    blank = tokenize(tail * 20_000, "t.sol")
    assert time.perf_counter() - start < 1.0
    assert tokens[-1] == (COMMENT, "// end  ", 15, 8)
    assert blank == []


def test_hex_and_address_literals():
    tokens = tokenize("0xdead 0x05f400000000000000000000aaaaaaaaaaaaad27", "t")
    assert [t[0] for t in tokens] == [HEX, HEX]


def test_sized_types_are_keywords():
    kinds = {text: kind for kind, text, _, _ in tokenize("uint8 uint256 bytes32 myvar", "t")}
    assert kinds["uint8"] == KEYWORD
    assert kinds["uint256"] == KEYWORD
    assert kinds["bytes32"] == KEYWORD
    assert kinds["myvar"] == IDENTIFIER


def _reconstruct(text: str) -> str:
    tokens = tokenize(text, "t.sol")
    out = []
    pos = 0
    for _, token_text, offset, length in tokens:
        out.append(text[pos:offset])  # whitespace gap
        out.append(token_text)
        assert text[offset:offset + length] == token_text
        pos = offset + length
    out.append(text[pos:])
    return "".join(out)


@pytest.mark.parametrize("name", ["listing1.sol", "listing2.sol",
                                  "listing3.sol", "listing4.sol"])
def test_lossless_round_trip_on_listings(name):
    text = read_listing(name)
    assert _reconstruct(text) == text


_FRAGMENTS = st.sampled_from([
    "contract", "x", "_y", "uint256", "0x0A", "42", "0.1", "ether",
    '"s"', "/*c*/", "//c\n", "==", "=>", "++", "(", ")", "{", "}", ";",
    " ", "\n", "\t",
])


@given(st.lists(_FRAGMENTS, max_size=40))
def test_lossless_round_trip_random(parts):
    text = " ".join(parts)
    assert _reconstruct(text) == text


def test_unterminated_string_errors_with_span():
    with pytest.raises(LexerError) as err:
        tokenize('x = "abc', "t.sol")
    assert err.value.line == 1
    assert "unterminated string" in str(err.value)


def test_unterminated_comment_errors():
    with pytest.raises(LexerError) as err:
        tokenize("/* never closed", "t.sol")
    assert "unterminated comment" in str(err.value)


def test_unexpected_character_errors():
    with pytest.raises(LexerError):
        tokenize("uint π;", "t.sol")


# -- the token stream, pinned without a reference lexer ----------------------

_LISTINGS = [read_listing(f"listing{i}.sol") for i in range(1, 5)]

_SOURCE_CHARS = st.sampled_from(list(
    "abcxyzAZ_$0123456789 \t\r\n\n(){}[];,.=+-*/%<>!&|^~?:'\"\\#π"))


@st.composite
def _mutated_listing(draw):
    text = draw(st.sampled_from(_LISTINGS))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 20))
        insert = draw(st.text(_SOURCE_CHARS, max_size=6))
        text = text[:at] + insert + text[at + cut:]
    return text


@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(st.text(_SOURCE_CHARS, max_size=80), _mutated_listing()))
def test_tokens_rebuild_the_input_at_their_positions(text):
    try:
        tokens = tokenize(text, "t.sol")
    except LexerError:
        return
    pos = 0
    rebuilt = []
    for _, token_text, offset, length in tokens:
        gap = text[pos:offset]
        assert gap.strip(" \t\r\n") == ""
        rebuilt += [gap, token_text]
        assert length == len(token_text)
        before = text[:offset]
        assert position(tokens.line_starts, offset) == (
            before.count("\n") + 1, len(before) - (before.rfind("\n") + 1) + 1)
        pos = offset + length
    assert text[pos:].strip(" \t\r\n") == ""
    assert "".join(rebuilt) + text[pos:] == text


@pytest.mark.parametrize("text, message, span", [
    ('x = "abc', "unterminated string", (1, 5, 4, 1)),
    ("a;\n  b = 'x\n", "unterminated string", (2, 7, 9, 1)),
    ('f("ok", "no', "unterminated string", (1, 9, 8, 1)),
    ("/* never closed", "unterminated comment", (1, 1, 0, 2)),
    ("x\n /* a\n b", "unterminated comment", (2, 2, 3, 2)),
    ("y /*", "unterminated comment", (1, 3, 2, 2)),
    ("uint π;", "unexpected character 'π'", (1, 6, 5, 1)),
    ("a\n\tb # c", "unexpected character '#'", (2, 4, 5, 1)),
])
def test_lexer_error_message_and_span(text, message, span):
    with pytest.raises(LexerError) as err:
        tokenize(text, "t.sol")
    line, column, offset, length = span
    assert err.value.span == Span("t.sol", offset, length)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == f"t.sol:{line}:{column}: {message}"


def test_elementary_type_names():
    sized = ([f"uint{n}" for n in range(8, 257, 8)]
             + [f"int{n}" for n in range(8, 257, 8)]
             + [f"bytes{n}" for n in range(1, 33)])
    assert set(sized) <= _ELEMENTARY
    assert len(_ELEMENTARY) == len(sized) + 7
    for name in ("address", "bool", "string", "bytes", "byte", "uint", "int"):
        assert name in _ELEMENTARY
    for name in ("uint7", "uint264", "uint08", "int0", "bytes0", "bytes33",
                 "bytes01", "Uint8", "uint8 "):
        assert name not in _ELEMENTARY
        assert not is_elementary_type_name(name)
    kinds = {text: kind for kind, text, _, _ in tokenize("uint7 uint264 bytes33 int16", "t")}
    assert kinds == {"uint7": IDENTIFIER, "uint264": IDENTIFIER,
                     "bytes33": IDENTIFIER, "int16": KEYWORD}
