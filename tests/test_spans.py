from __future__ import annotations

import pickle

import pytest

from soldefect.analyzer import source_facts
from soldefect.config import DetectorConfig
from soldefect.detectors import AnalysisContext, run_detectors
from soldefect.detectors.base import _SOURCE_DETECTORS
from soldefect.lexer import tokenize
from soldefect.nodes import (Assignment, Block, ContractDefinition,
                             ExpressionStatement, FunctionDefinition,
                             Identifier, NumberLiteral, PragmaDirective,
                             SourceUnit, TypeName, VariableDeclaration)
from soldefect.parser import parse
from soldefect.spans import Diagnostic, Span, join_spans, position

from conftest import LISTINGS, parse_source, read_listing, span_contains
from synth import generate_contract_file


def test_span_is_immutable():
    span = Span("a.sol", 40, 7)
    with pytest.raises(AttributeError):
        span.offset = 4
    assert span == Span("a.sol", 40, 7)


def test_equal_spans_hash_equal():
    assert hash(Span("a.sol", 3, 4)) == hash(Span("a.sol", 3, 4))
    assert len({Span("a.sol", 3, 4), Span("a.sol", 3, 4),
                Span("b.sol", 3, 4)}) == 2


def test_span_pickles():
    span = Span("a.sol", 40, 7)
    copy = pickle.loads(pickle.dumps(span))
    assert copy == span
    assert type(copy) is Span


def test_span_text_forms():
    span = Span("a.sol", 40, 7)
    # line 3 starts at offset 36, so offset 40 is its fifth column
    diagnostic = Diagnostic("error", "boom", span, *position([0, 10, 36], 40))
    assert str(diagnostic) == "a.sol:3:5: error: boom"
    assert repr(span) == "Span(file_id='a.sol', offset=40, length=7)"


def test_end_offset_contains_and_join():
    outer = Span("a.sol", 10, 20)
    inner = Span("a.sol", 14, 3)
    assert outer.offset + outer.length == 30
    assert span_contains(outer, inner) and not span_contains(inner, outer)
    assert not span_contains(outer, Span("b.sol", 14, 3))
    joined = join_spans(inner, Span("a.sol", 40, 2))
    assert joined == Span("a.sol", 14, 28)
    assert type(joined) is Span


# -- positions against newline counting --------------------------------------

_EDGE_TEXTS = {
    "crlf": "pragma solidity ^0.4.24;\r\ncontract C {\r\n    uint x;\r\n"
            "    function f() public { msg.sender.send(1); x = 1; }\r\n}\r\n",
    "lone-cr": "contract C {\r    function f() public { msg.sender.send(1); }\r}\n",
    "tabs": "contract C {\n\tfunction f() public {\n\t\tmsg.sender.send(1);\n\t}\n}\n",
    "block-comment": "/* a\n   multi-line\n   comment */ contract C {\n /* x\n */"
                     " function f() public { if (tx.origin == 0) { throw; } }\n}\n",
    "line-comment": "// one\ncontract C { // two\n  function f() public {"
                    " // three\n    msg.sender.send(1); }\n}\n",
    "non-ascii": "// héllo wörld π\ncontract C { string s = \"ünïcode π\"; /* ß */\n"
                 "  function f() public { msg.sender.send(1); } }\n",
    "no-trailing-newline": "contract C {\n  function f() public { msg.sender.send(1); }\n}",
    "cut-short": "contract C {\n  function f() public {\n    msg.sender.send(1);\n",
    "empty": "",
    "comment-only": "/* nothing\n   here */\n",
}


def _counted(text: str, offset: int) -> tuple[int, int]:
    """Line and column of ``offset`` by counting newlines in ``text``."""
    return (text.count("\n", 0, offset) + 1,
            offset - (text.rfind("\n", 0, offset) + 1) + 1)


def _position_inputs():
    inputs = [(name, read_listing(name)) for name in LISTINGS]
    inputs += [(f"synth{seed}", generate_contract_file(seed)) for seed in (1, 2)]
    return inputs + sorted(_EDGE_TEXTS.items())


@pytest.mark.parametrize("name, text", _position_inputs(),
                         ids=[name for name, _ in _position_inputs()])
def test_positions_match_newline_counting(name, text):
    tokens = tokenize(text, "t.sol")
    for _, _, offset, _ in tokens:
        assert position(tokens.line_starts, offset) == _counted(text, offset)
    parsed = parse(tokens, "t.sol")
    facts = source_facts(parsed, "t.sol")
    assert position(parsed.unit.line_starts, parsed.unit.span.offset) == \
        _counted(text, parsed.unit.span.offset)
    for d in facts.diagnostics:
        assert (d.line, d.column) == _counted(text, d.span.offset), str(d)
    ctx = AnalysisContext(source=facts, config=DetectorConfig())
    expected = {(detector_id, message) + _counted(text, span.offset)
                for detector_id, detector in _SOURCE_DETECTORS.items()
                for span, message in detector(ctx)}
    found = {(f.detector, f.message, f.line, f.column) for f in run_detectors(ctx)}
    assert found <= expected
    # one finding per detector and line is kept, so every counted line shows
    assert {(d, line) for d, _, line, _ in found} == \
        {(d, line) for d, _, line, _ in expected}
    # listing4.sol is the defect-free listing; a file of no tokens lacks a
    # version pragma, found at the end token's fallback span
    assert bool(found) == (name != "listing4.sol")


# -- nodes as records ---------------------------------------------------------

SMALL_SOURCE = "pragma solidity ^0.4.24; contract C { uint x; function f() { x = 1; } }"

# repr(small_tree()), as the dataclass nodes wrote it: the tree snapshot
# hashes this form, which leaves out SourceUnit.line_starts
SMALL_TREE_REPR = (
    "SourceUnit(pragmas=[PragmaDirective(name='solidity', constraint_kind='caret', "
    "version_text='^0.4.24', span=Span(file_id='t.sol', offset=0, length=24))], "
    "contracts=[ContractDefinition(name='C', kind='contract', bases=[], "
    "state_variables=[VariableDeclaration(name='x', type_name=TypeName("
    "kind='elementary', span=Span(file_id='t.sol', offset=38, length=4), "
    "name='uint', element=None, length=None, key_type=None, value_type=None), "
    "span=Span(file_id='t.sol', offset=38, length=7), data_location='unspecified', "
    "initializer=None, visibility='default', is_constant=False, is_indexed=False)], "
    "functions=[FunctionDefinition(name='f', parameters=[], returns_=[], "
    "visibility='default', is_payable=False, mutability=None, modifiers_invoked=[], "
    "body=Block(statements=[ExpressionStatement(expression=Assignment(operator='=', "
    "target=Identifier(name='x', span=Span(file_id='t.sol', offset=61, length=1)), "
    "value=NumberLiteral(text='1', unit=None, span=Span(file_id='t.sol', offset=65, "
    "length=1)), span=Span(file_id='t.sol', offset=61, length=5)), "
    "span=Span(file_id='t.sol', offset=61, length=6))], span=Span(file_id='t.sol', "
    "offset=59, length=10)), is_constructor=False, span=Span(file_id='t.sol', "
    "offset=46, length=23))], modifiers=[], events=[], span=Span(file_id='t.sol', "
    "offset=25, length=46))], span=Span(file_id='t.sol', offset=0, length=71))")


def small_tree() -> SourceUnit:
    """The tree of SMALL_SOURCE, built by hand."""
    def at(offset, length):
        return Span("t.sol", offset, length)
    uint = TypeName("elementary", at(38, 4), "uint")
    x = VariableDeclaration("x", uint, at(38, 7))
    assign = Assignment("=", Identifier("x", at(61, 1)),
                        NumberLiteral("1", None, at(65, 1)), at(61, 5))
    body = Block([ExpressionStatement(assign, at(61, 6))], at(59, 10))
    f = FunctionDefinition("f", [], [], "default", False, None, [], body,
                           False, at(46, 23))
    contract = ContractDefinition("C", "contract", [], [x], [f], [], [], at(25, 46))
    pragma = PragmaDirective("solidity", "caret", "^0.4.24", at(0, 24))
    return SourceUnit([pragma], [contract], at(0, 71), [0])


def test_node_repr_keeps_the_dataclass_form():
    assert repr(small_tree()) == SMALL_TREE_REPR
    assert small_tree() == parse_source(SMALL_SOURCE, "t.sol").unit


def test_nodes_compare_by_fields_and_are_unhashable():
    text = read_listing("listing1.sol")
    first = parse_source(text, "t.sol").unit
    assert first == parse_source(text, "t.sol").unit
    assert first != parse_source(text, "u.sol").unit  # every span differs
    other = small_tree()
    other.line_starts = [0, 30]
    assert other == small_tree()  # line starts are not compared
    assert other != first.contracts[0]  # nodes of two classes
    with pytest.raises(TypeError):
        hash(first.contracts[0])
