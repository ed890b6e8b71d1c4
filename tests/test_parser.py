from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from soldefect.lexer import ETHER_UNITS
from soldefect.nodes import (CallExpression, ForStatement, HexLiteral,
                             NumberLiteral, children, walk)

from conftest import (MUTATIONS, detectors_fired, has_errors, mutate,
                      parse_source, read_listing, seeded_mutants, span_contains)


def parse_ok(text: str):
    result = parse_source(text, "t.sol")
    assert not has_errors(result), [str(d) for d in result.diagnostics]
    return result.unit


def test_listing1_structure():
    unit = parse_ok(read_listing("listing1.sol"))
    assert len(unit.contracts) == 1
    gamble = unit.contracts[0]
    assert gamble.name == "Gamble"
    names = [f.name for f in gamble.functions]
    assert names == ["constructor", "", "ReceiveEth", "getWinner",
                     "giveBonus", "suicide", "withDraw"]
    assert [m.name for m in gamble.modifiers] == ["onlyOwner"]
    # constructor spelled `function constructor()` is recognized as one
    assert gamble.functions[0].is_constructor
    # the unnamed function is the fallback with no parameters
    fallback = gamble.functions[1]
    assert fallback.is_fallback and fallback.parameters == []
    assert fallback.is_payable


def test_minimal_contract():
    unit = parse_ok("contract A{}")
    assert len(unit.contracts) == 1
    a = unit.contracts[0]
    assert (a.name, a.functions, a.state_variables, a.modifiers, a.events) == \
        ("A", [], [], [], [])


def test_listing2_structure():
    unit = parse_ok(read_listing("listing2.sol"))
    assert [c.name for c in unit.contracts] == ["Victim", "Attacker"]
    victim = unit.contracts[0]
    assert victim.state_variables[0].type_name.kind == "mapping"
    assert victim.state_variables[0].name == "userBalannce"
    assert [f.name for f in victim.functions] == ["withDraw"]


def test_pragma_classification():
    assert parse_ok("pragma solidity ^0.4.25;").pragmas[0].constraint_kind == "caret"
    assert parse_ok("pragma solidity 0.4.25;").pragmas[0].constraint_kind == "exact"
    assert parse_ok("pragma solidity >=0.4.0 <0.6.0;").pragmas[0].constraint_kind == "range"
    assert parse_ok("pragma experimental ABIEncoderV2;").pragmas[0].constraint_kind == "other"


def test_function_header_forms():
    unit = parse_ok("""
contract C {
    function f(uint a) public payable returns (bool) { return true; }
    function g() internal constant onlyOwner {  }
    constructor() public {}
    modifier onlyOwner { _; }
    event E(address indexed who, uint256 amount);
    event Quiet(uint256 amount) anonymous;
}
""")
    c = unit.contracts[0]
    f, g, ctor = c.functions
    assert f.visibility == "public" and f.is_payable and len(f.returns_) == 1
    assert g.mutability == "constant"
    assert g.modifiers_invoked == [("onlyOwner", [])]
    assert ctor.is_constructor
    assert c.events[0].parameters[0].is_indexed
    assert [e.anonymous for e in c.events] == [False, True]


def test_canonical_type_names():
    c = parse_ok("""contract C {
    int a; mapping(address => uint) m; byte[2] b;
    function f() { var v = 1; }
}""").contracts[0]
    assert [v.type_name.canonical() for v in c.state_variables] == \
        ["int256", "mapping(address=>uint256)", "bytes1[2]"]
    local = c.functions[0].body.statements[0].declaration
    assert local.type_name.canonical() == "var"


def test_expression_shapes():
    unit = parse_ok("""
contract C {
    address owner;
    function f(uint amount) {
        owner.call.value(amount)();
        uint x = uint(block.blockhash(block.number));
        bool ok = x > 1 && msg.value != 1 ether;
        owner = 0x05f400000000000000000000aaaaaaaaaaaaad27;
    }
}
""")
    body = unit.contracts[0].functions[0].body
    call = body.statements[0].expression
    assert isinstance(call, CallExpression)
    assert isinstance(call.callee, CallExpression)  # .call.value(amount) then ()
    literal = body.statements[3].expression.value
    assert isinstance(literal, HexLiteral) and literal.is_address


def test_number_literal_values():
    unit = parse_ok("""
contract C { function f() { uint a = 8 ether; uint b = 0.1 ether; uint c = 10; } }
""")
    stmts = unit.contracts[0].functions[0].body.statements
    values = [s.declaration.initializer.value for s in stmts]
    assert values == [8 * 10 ** 18, 10 ** 17, 10]


def test_scientific_notation_literals():
    result = parse_source("""contract C {
    uint constant X = 1e18;
    function f() { uint y = 2.5e1; uint z = 2e-10; y = 1E3 wei; }
}
""", "sci.sol")
    assert [str(d) for d in result.diagnostics] == []
    values = [(n.text, n.value) for n in walk(result.unit)
              if isinstance(n, NumberLiteral)]
    # 2e-10 is not an integer
    assert values == [("1e18", 10 ** 18), ("2.5e1", 25), ("2e-10", None),
                      ("1E3", 1000)]
    # past an exponent of 4096 no value is built
    span = result.unit.span
    assert NumberLiteral("1e4096", None, span).value == 10 ** 4096
    assert NumberLiteral("1e4097", None, span).value is None
    assert NumberLiteral("1e-4097", None, span).value is None
    assert NumberLiteral("1e" + "9" * 5000, None, span).value is None


def _fraction_value(text: str, unit: str | None) -> int | None:
    """NumberLiteral.value as computed through Fraction for every spelling."""
    _, _, exponent = text.lower().partition("e")
    try:
        if exponent and abs(int(exponent)) > 4096:
            return None
        magnitude = Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None
    if unit:
        magnitude *= ETHER_UNITS[unit]
    return int(magnitude) if magnitude.denominator == 1 else None


# ASCII digits, and two that str.isdigit() also accepts
_DIGITS = st.text("0123456789\u0663\u00b2", min_size=1, max_size=12)
# digit runs around Python's 4,300-digit limit on int(str), with and
# without leading zeros
_LONG = st.builds(lambda lead, body, n: lead + body * n,
                  st.sampled_from(["", "0", "000"]),
                  st.sampled_from(["1", "9", "07"]), st.integers(2140, 4310))
_EXPONENT = st.builds(lambda e, sign, d: e + sign + d, st.sampled_from("eE"),
                      st.sampled_from(["", "-"]),
                      st.text("0123456789", min_size=1, max_size=4))
# what the lexer reads as a number: digits, ".digits" parts, an exponent
_SPELLING = st.one_of(
    _DIGITS, _LONG,
    st.builds(lambda whole, parts, exp: whole + "".join("." + p for p in parts)
              + exp, _DIGITS, st.lists(_DIGITS, max_size=2),
              st.one_of(st.just(""), _EXPONENT)))


@settings(max_examples=300, deadline=None)
@given(_SPELLING, st.one_of(st.none(), st.sampled_from(sorted(ETHER_UNITS))))
def test_number_literal_value_matches_fractions(text, unit):
    literal = NumberLiteral(text, unit, parse_ok("contract C {}").span)
    assert literal.value == _fraction_value(text, unit)


def test_var_for_loop():
    text = "contract C { function f() { for(var i = 0; i < 10; i++){} } }"
    loop = parse_ok(text).contracts[0].functions[0].body.statements[0]
    assert isinstance(loop, ForStatement)
    assert loop.init.declaration.type_name.kind == "var"
    # a for-init statement's span ends before its `;`
    span = loop.init.span
    assert text[span.offset:span.offset + span.length] == "var i = 0"


def test_span_containment():
    text = read_listing("listing1.sol")
    unit = parse_ok(text)
    for node in walk(unit):
        parent_span = getattr(node, "span", None)
        if parent_span is None:
            continue
        for child in children(node):
            child_span = getattr(child, "span", None)
            if child_span is None:
                continue
            assert span_contains(parent_span, child_span), (node, child)


def test_parse_is_deterministic():
    text = read_listing("listing1.sol")
    assert parse_source(text, "a.sol").unit == parse_source(text, "a.sol").unit


def test_statement_recovery_keeps_siblings():
    result = parse_source("""
contract C {
    function broken() { uint x = ; }
    function fine() { uint y = 1; }
}
""", "t.sol")
    assert has_errors(result)
    c = result.unit.contracts[0]
    names = [f.name for f in c.functions]
    assert "fine" in names
    fine = next(f for f in c.functions if f.name == "fine")
    assert len(fine.body.statements) == 1


def test_member_recovery_keeps_siblings():
    result = parse_source("""
contract C {
    function broken( { }
    function fine() {}
}
""", "t.sol")
    assert has_errors(result)
    assert any(f.name == "fine" for f in result.unit.contracts[0].functions)


def test_unsupported_member_warns_not_crashes():
    result = parse_source("""
contract C {
    struct S { uint a; }
    function f() {}
}
""", "t.sol")
    assert not has_errors(result)
    assert any("partial analysis" in d.message for d in result.diagnostics)
    assert [f.name for f in result.unit.contracts[0].functions] == ["f"]


ORIGIN_CHECK = "address owner; function f() { require(tx.origin == owner); }"


@pytest.mark.parametrize("source", [
    f'import "./a.sol";\ncontract C {{ {ORIGIN_CHECK} }}',
    f"contract C {{ using SafeMath for uint; {ORIGIN_CHECK} }}",
], ids=["import", "using-for"])
def test_skipped_directive_warns_once_and_the_rest_is_analyzed(source):
    result = parse_source(source, "t.sol")
    assert not has_errors(result)
    assert [d.severity for d in result.diagnostics
            if "partial analysis" in d.message] == ["warning"]
    assert [f.name for f in result.unit.contracts[0].functions] == ["f"]
    assert "transaction-state-dependency" in detectors_fired(source)


def test_all_listings_parse_without_errors():
    for name in ("listing1.sol", "listing2.sol", "listing3.sol", "listing4.sol"):
        result = parse_source(read_listing(name), name)
        assert not has_errors(result), (name, [str(d) for d in result.diagnostics])


# -- robustness: mutated inputs never escape the diagnostic machinery ----------

from hypothesis import given, settings, strategies as st

from soldefect.analyzer import analyze_input
from soldefect.config import RunConfig
from soldefect.lexer import LexerError

_LISTING1 = read_listing("listing1.sol")


@settings(max_examples=120, deadline=None)
@given(st.integers(0, len(_LISTING1) - 1), st.integers(1, 40),
       st.sampled_from(MUTATIONS))
def test_mutated_listing_never_crashes(start, width, mutation):
    text = mutate(_LISTING1, mutation, start, width)
    try:
        result = parse_source(text, "mutant.sol")
    except LexerError:
        return  # fatal per file, reported by the driver
    assert result.unit is not None


def test_seeded_mutants_cost_few_error_diagnostics():
    # one skip per syntax error: a damaged region is one diagnostic, not
    # one per token (the parser before the single recovery rule averaged
    # 13.5 errors per mutant here, 228 at worst), and an error raised
    # through several levels of recovery is reported once
    counts = []
    for name, mutation, text in seeded_mutants():
        try:
            result = parse_source(text, "mutant.sol")
        except LexerError:
            continue
        diagnostics = result.diagnostics
        assert all(a != b for a, b in zip(diagnostics, diagnostics[1:])), \
            (name, mutation, text)
        errors = sum(d.severity == "error" for d in diagnostics)
        assert errors <= 10, (name, mutation, text)
        counts.append(errors)
    assert len(counts) >= 1000
    assert sum(counts) / len(counts) <= 2.0


@pytest.mark.parametrize("text", [
    "contract C { function f() { if (x) { while (y) { y = 1;",
    "contract C { function f() { " + "{" * 120 + "y = 1;",
], ids=["four levels", "120 blocks"])
def test_file_cut_inside_nested_blocks_is_one_error(text):
    result = parse_source(text, "t.sol")
    assert [(d.severity, d.message) for d in result.diagnostics] == \
        [("error", "expected '}', found 'end of input'")]
    assert result.unit.contracts[0].name == "C"



def test_nameless_local_is_one_error_and_no_statement():
    # so every local declaration the detectors see has a name
    result = parse_source("contract C { function f() { uint; } }", "t.sol")
    assert [(d.severity, d.message) for d in result.diagnostics] == \
        [("error", "expected identifier, found ';'")]
    assert result.unit.contracts[0].functions[0].body.statements == []


@pytest.mark.parametrize("loop,message", [
    ("for (uint; ;) { y = 1; }", "expected identifier, found ';'"),
    ("for (uint; i < 2; i++) { y = 1; }", "expected identifier, found ';'"),
    ("for (x = ; ;) { y = 1; }", "unexpected ';' in expression"),
    ("for (uint) { y = 1; }", "expected identifier, found ')'"),
    ("for (uint) y = 1;", "expected identifier, found ')'"),
])
def test_a_for_init_error_is_one_error(loop, message):
    # the init statement recovers as a statement does: one error, then the
    # header goes on after the init's `;`; a header without one is skipped
    # with the loop
    result = parse_source("contract C { function f() { " + loop + " } }",
                          "t.sol")
    assert [(d.severity, d.message) for d in result.diagnostics] == \
        [("error", message)]
    body = result.unit.contracts[0].functions[0].body.statements
    if "uint)" in loop:
        assert body == []
    else:
        [kept] = body
        assert kept.init is None and len(kept.body.statements) == 1


@pytest.mark.parametrize("source,message", [
    ("contract C { function f(", "expected a type"),
    ("contract C { event E(); function f() { emit E; } }",
     "emit expects an event call"),
], ids=["type at the end", "emit of a non-call"])
def test_one_error_names_the_construct(source, message):
    result = parse_source(source, "t.sol")
    assert [(d.severity, d.message) for d in result.diagnostics][0] == \
        ("error", message)

@pytest.mark.parametrize("line", range(1, 9))
def test_stray_brace_in_victim_keeps_attacker(line):
    # listing2's Victim spans lines 2-8; the `}` closes it early
    lines = read_listing("listing2.sol").splitlines(True)
    result = parse_source("".join(lines[:line] + ["}\n"] + lines[line:]), "t.sol")
    errors = [d for d in result.diagnostics if d.severity == "error"]
    assert 1 <= len(errors) <= 3, [str(d) for d in errors]
    attacker = result.unit.contracts[-1]
    assert attacker.name == "Attacker"
    assert [f.name for f in attacker.functions] == ["", "reentrancy", "sweep"]


def test_contract_cut_before_its_closing_brace_keeps_its_members():
    text = read_listing("listing1.sol")
    cut = text[:text.rindex("}")]
    result = parse_source(cut, "t.sol")
    assert [(d.severity, d.message) for d in result.diagnostics] == \
        [("error", "expected '}', found 'end of input'")]
    config = RunConfig()
    assert analyze_input(cut.encode(), "l.sol", config).findings == \
        analyze_input(text.encode(), "l.sol", config).findings


def test_function_cut_inside_its_body_keeps_its_statements():
    # the file ends inside withDraw: the function and its complete statement
    # are kept, so the cut file has the full file's findings plus one error
    text = read_listing("listing1.sol")
    end = "receiver.call.value(amount);"
    cut = text[:text.index(end) + len(end)]
    result = parse_source(cut, "t.sol")
    assert [(d.severity, d.message) for d in result.diagnostics] == \
        [("error", "expected '}', found 'end of input'")]
    withdraw = result.unit.contracts[-1].functions[-1]
    assert withdraw.name == "withDraw" and len(withdraw.body.statements) == 2
    config = RunConfig()
    findings = analyze_input(cut.encode(), "l.sol", config).findings
    assert len(findings) == 13
    assert findings == analyze_input(text.encode(), "l.sol", config).findings


# -- bounded nesting ---------------------------------------------------------

from soldefect.parser import MAX_NESTING

# Each shape nests n levels deep; the statement ones go in g()'s body.
# A nested call or index takes two levels: its argument is an expression,
# and the call or index extends a postfix chain.
_NESTED_SHAPES = {
    "parens": lambda n: "x = " + "(" * n + "1" + ")" * n + ";",
    "not": lambda n: "b = " + "!" * n + "b;",
    "power": lambda n: "x = " + "x ** " * n + "x;",
    "assign": lambda n: "x = " * n + "1;",
    "conditional": lambda n: "x = " + "b ? 1 : " * n + "2;",
    "blocks": lambda n: "{" * n + "x = 1;" + "}" * n,
    "ifs": lambda n: "if (b) " * n + "x = 1;",
    "calls": lambda n: "x = " + "f(" * (n // 2) + "1" + ")" * (n // 2) + ";",
    "index": lambda n: "x = " + "xs[" * (n // 2) + "0" + "]" * (n // 2) + ";",
    "mapping": lambda n: "mapping(uint => " * n + "uint" + ")" * n + " m;",
    "member chain": lambda n: "x = xs" + ".length" * n + ";",
    "call chain": lambda n: "f" + "()" * n + ";",
    "index chain": lambda n: "xs" + "[0]" * n + " = 1;",
}


def _nested_contract(shape: str, n: int) -> str:
    text = _NESTED_SHAPES[shape](n)
    state, body = (text, "x = 0;") if shape == "mapping" else ("", text)
    return ("contract Deep {\n    uint x;\n    bool b;\n    uint[] xs;\n"
            f"    {state}\n"
            "    function f(uint v) returns (uint) { return v; }\n"
            f"    function g() {{\n        {body}\n    }}\n"
            "    function after() { x = 2; }\n}\n")


@pytest.mark.parametrize("shape", sorted(_NESTED_SHAPES))
def test_nesting_past_the_limit_is_a_recovered_parse_error(shape):
    text = _nested_contract(shape, 2000)  # 1000 nested calls or indexes
    result = parse_source(text, "t.sol")
    errors = [d for d in result.diagnostics if d.severity == "error"]
    assert [d.message for d in errors] == [f"nesting deeper than {MAX_NESTING} levels"]
    assert errors[0].line == (5 if shape == "mapping" else 8)
    contract = result.unit.contracts[0]
    assert [fn.name for fn in contract.functions] == ["f", "g", "after"]
    outcome = analyze_input(text.encode(), "t.sol", RunConfig())
    assert outcome.error is None
    assert [str(d) for d in outcome.diagnostics if d.severity == "error"] == \
        [str(errors[0])]


@pytest.mark.parametrize("shape", sorted(_NESTED_SHAPES))
def test_nesting_up_to_the_limit_parses_and_analyzes(shape):
    # `x = e` takes two levels before e's own nesting starts
    text = _nested_contract(shape, MAX_NESTING - 2)
    result = parse_source(text, "t.sol")
    assert not result.diagnostics, [str(d) for d in result.diagnostics]
    outcome = analyze_input(text.encode(), "t.sol", RunConfig())
    assert outcome.error is None
    assert not [d for d in outcome.diagnostics if d.severity == "error"]


def test_nesting_depth_is_restored_after_an_error():
    # a too-deep statement must not count against the statements after it
    deep = "x = " + "(" * 1000 + "1" + ")" * 1000 + ";"
    ok = "x = " + "(" * (MAX_NESTING - 2) + "1" + ")" * (MAX_NESTING - 2) + ";"
    text = ("contract C {\n    uint x;\n    function g() {\n"
            f"        {deep}\n        {ok}\n        {deep}\n        {ok}\n"
            "    }\n}\n")
    result = parse_source(text, "t.sol")
    assert [d.line for d in result.diagnostics] == [4, 6]
    assert len(result.unit.contracts[0].functions[0].body.statements) == 2
