from __future__ import annotations

import pickle

import pytest

from soldefect.spans import Span, join_spans


def test_span_is_immutable():
    span = Span("a.sol", 3, 5, 40, 7)
    with pytest.raises(AttributeError):
        span.line = 4
    assert span == Span("a.sol", 3, 5, 40, 7)


def test_equal_spans_hash_equal():
    assert hash(Span("a.sol", 1, 2, 3, 4)) == hash(Span("a.sol", 1, 2, 3, 4))
    assert len({Span("a.sol", 1, 2, 3, 4), Span("a.sol", 1, 2, 3, 4),
                Span("b.sol", 1, 2, 3, 4)}) == 2


def test_span_pickles():
    span = Span("a.sol", 3, 5, 40, 7)
    copy = pickle.loads(pickle.dumps(span))
    assert copy == span
    assert type(copy) is Span


def test_span_text_forms():
    span = Span("a.sol", 3, 5, 40, 7)
    assert str(span) == "a.sol:3:5"
    assert repr(span) == "Span(file_id='a.sol', line=3, column=5, offset=40, length=7)"


def test_end_offset_contains_and_join():
    outer = Span("a.sol", 1, 1, 10, 20)
    inner = Span("a.sol", 1, 5, 14, 3)
    assert outer.end_offset() == 30
    assert outer.contains(inner) and not inner.contains(outer)
    assert not outer.contains(Span("b.sol", 1, 5, 14, 3))
    joined = join_spans(inner, Span("a.sol", 2, 1, 40, 2))
    assert joined == Span("a.sol", 1, 5, 14, 28)
    assert type(joined) is Span
