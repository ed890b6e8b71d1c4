from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from soldefect.analyzer import source_facts
from soldefect.semantic import (build_call_graph, compute_def_use,
                                flatten_contract, infer_var_type)

from conftest import LISTINGS, has_errors, parse_source, read_listing
from synth import generate_contract_file, payable_chain


def _contract(text: str, index: int = 0):
    result = parse_source(text, "t.sol")
    assert not has_errors(result), [str(d) for d in result.diagnostics]
    return result.unit, result.unit.contracts[index]


def _initializer(expr_text: str):
    unit, c = _contract(f"contract C {{ function f() {{ var v = {expr_text}; }} }}")
    return c.functions[0].body.statements[0].declaration.initializer


# -- var inference -----------------------------------------------------------


@pytest.mark.parametrize("literal,expected", [
    ("0", "uint8"),
    ("255", "uint8"),
    ("256", "uint16"),
    ("65535", "uint16"),
    ("65536", "uint24"),
    ("true", "bool"),
    ("-1", "int8"),
    ("-129", "int16"),
])
def test_infer_literals(literal, expected):
    inferred = infer_var_type(_initializer(literal))
    assert inferred.canonical() == expected


def test_infer_without_initializer_is_unknown():
    assert infer_var_type(None) is None


def _oracle_uint_width(value: int) -> int:
    # arbitrary-precision oracle: smallest multiple of 8 bits that holds value
    bits = 8
    while value >= (1 << bits):
        bits += 8
    return bits


@given(st.integers(min_value=1, max_value=30))
def test_uint_width_property(step):
    # literal in [2^N, 2^(N+8)-1] infers exactly uint(N+8) for N in 8..248
    n = 8 * step
    if n > 248:
        n = 248
    for value in (1 << n, (1 << (n + 8)) - 1, (1 << n) + 12345 % (1 << n)):
        inferred = infer_var_type(_initializer(str(value)))
        assert inferred.canonical() == f"uint{_oracle_uint_width(value)}"
        assert _oracle_uint_width(value) == n + 8


def test_infer_address_literal():
    t = infer_var_type(_initializer("0x05f400000000000000000000aaaaaaaaaaaaad27"))
    assert t.canonical() == "address"


TYPED_CONTRACT = ("contract C {{ uint16 a; bool flag; address owner; "
                  "uint32[] xs; mapping(address => uint64) m; "
                  "function f() {{ var v = {}; }} }}")


@pytest.mark.parametrize("expr,expected", [
    ('"abc"', "string"),
    ("0x1234", "uint16"),  # a hex literal too short to be an address
    ("!flag", "bool"),
    ("-a", "uint16"),
    ("(a)", "uint16"),
    ("nobody", None),
    ("xs.length", "uint256"),
    ("msg.value", "uint256"),
    ("msg.sender", "address"),
    ("owner.balance", "uint256"),
    ("owner.code", None),
    ("xs[0]", "uint32"),
    ("m[owner]", "uint64"),
    ("a[0]", None),
    ("uint16(x)", "uint16"),
    ("g(x)", None),
    ("a < 3", "bool"),
    ("a + xs[0]", "uint32"),  # the wider operand
    ("nobody + 1", "uint8"),  # an unknown operand gives way
    ("flag ? a : 3", "uint16"),
])
def test_infer_by_expression_kind(expr, expected):
    unit, c = _contract(TYPED_CONTRACT.format(expr))
    declared = {var.name: var.type_name for var in c.state_variables}
    initializer = c.functions[0].body.statements[0].declaration.initializer
    inferred = infer_var_type(initializer, declared.get)
    assert (inferred and inferred.canonical()) == expected


# -- call graph ---------------------------------------------------------------


def test_listing1_call_graph():
    unit, gamble = _contract(read_listing("listing1.sol"))
    table = flatten_contract(unit, gamble, [])
    callees = build_call_graph(table)
    # the fallback calls ReceiveEth, which calls getWinner
    assert {"ReceiveEth", "getWinner"} <= callees
    # suicide and withDraw invoke the modifier
    assert "onlyOwner" in callees


def test_empty_call_graph():
    unit, c = _contract("contract C { function f() { uint x = 1; } }")
    assert build_call_graph(flatten_contract(unit, c, [])) == set()


def test_unresolved_calls_make_no_edges():
    # a name the table does not declare is still collected: D15 only asks
    # about the contract's own functions, whose names are always declared
    unit, c = _contract("contract C { function f() { mystery(); } }")
    assert build_call_graph(flatten_contract(unit, c, [])) == {"mystery"}


# -- def-use ------------------------------------------------------------------


def _defuse(text: str, fn_name: str):
    unit, c = _contract(text)
    fn = next(f for f in c.functions if f.name == fn_name)
    return compute_def_use(fn)


def _var(facts, name: str):
    """The one declaration of `name` in a function's def-use facts."""
    [var] = [v for v in facts if v.declaration.name == name]
    return var


def _live(facts) -> set[str]:
    """The live declarations, each as "param NAME" or "local NAME"."""
    return {("param " if v.is_parameter else "local ") + v.declaration.name
            for v in facts if v.live}


def test_listing3_change_variable():
    facts = _defuse(read_listing("listing3.sol"), "changeVariable")
    assert _var(facts, "newValue").live is False
    assert _var(facts, "value1").live is False  # read only into newValue
    assert _var(facts, "value2").live is True   # reaches a state write


def test_unread_parameter_is_dead():
    facts = _defuse("contract C { function f(uint a) { return; } }", "f")
    assert _var(facts, "a").live is False


def test_chain_to_state_write_is_live():
    facts = _defuse("""
contract C {
    uint state;
    function f() {
        uint x = 1;
        uint y = x;
        state = y;
    }
}
""", "f")
    assert _var(facts, "x").live is True
    assert _var(facts, "y").live is True


def test_dead_chain_two_findings():
    facts = _defuse("""
contract C {
    function f() {
        uint x = 1;
        uint y = x;
    }
}
""", "f")
    assert _var(facts, "x").live is False
    assert _var(facts, "y").live is False


def test_call_argument_is_live():
    facts = _defuse(
        "contract C { function f(address a) { selfdestruct(a); } }", "f")
    assert _var(facts, "a").live is True


def test_named_returns_are_exempt():
    facts = _defuse(
        "contract C { function f() returns (bool ok) { ok = true; } }", "f")
    assert facts == []


def test_liveness_is_monotone_under_added_reads():
    # adding a consuming read can only turn dead into live
    base = "contract C {{ uint s; function f(uint a) {{ uint m = a; {extra} }} }}"
    without = _defuse(base.format(extra=""), "f")
    with_read = _defuse(base.format(extra="s = m;"), "f")
    assert len(without) == len(with_read)
    for before, after in zip(without, with_read):
        if before.live:
            assert after.live


LIVENESS_CONTRACT = "contract C {{ uint s; uint[] xs; event E(uint v); {} }}"


@pytest.mark.parametrize("function,live", [
    # a store through a local array reads its index and value; the array
    # itself is only written
    ("function f(uint i, uint v) { uint[] memory a = new uint[](3); "
     "a[i] = v; }", {"param i", "param v"}),
    ("function f(uint i) { i++; }", set()),
    ("function f(uint x) { emit E(x); }", {"param x"}),
    ("function f(uint n, uint k) { for (uint j = 0; j < n; j += k) { } }",
     {"local j", "param n", "param k"}),
    ("function f(uint n, uint k) { for (uint j = 0; j < 10; j++) { } }",
     {"local j"}),
    ("function f(uint i) { delete xs[i]; }", {"param i"}),
    # deleting a local writes it; nothing reads y, so x flows nowhere live
    ("function f(uint x) { uint y = x; delete y; }", set()),
    ("function f(uint x, uint y) { s = x; uint z = y; }", {"param x"}),
    ("function f(uint x) { s += x; }", {"param x"}),
    # a local hides the parameter it shadows from its declaration on; each
    # declaration keeps its own facts
    ("function f(uint x) { uint x = 1; s = x; }", {"local x"}),
    ("function f(uint x) { s = x; uint x = 1; }", {"param x"}),
    # liveness runs back along a copy chain, whatever order its links are in
    ("function f(uint x) { uint a = x; uint b = a; uint c = b; s = c; }",
     {"param x", "local a", "local b", "local c"}),
    ("function f(uint x) { uint a; uint b; s = a; a = b; b = x; }",
     {"param x", "local a", "local b"}),
    # a cycle of copies that nothing else reads stays dead
    ("function f(uint x) { uint a = x; uint b = a; a = b; }", set()),
    # a for loop's init declares its counter ahead of the body's reads
    ("function f(uint i) { for (uint i = 0; i < 3; i++) { s += i; } }",
     {"local i"}),
], ids=["index-store", "increment", "emit", "for-post-and-condition",
        "for-counter", "delete-element", "delete-local", "state-assignment",
        "compound-state-assignment", "shadow-read-after", "shadow-read-before",
        "copy-chain", "copy-chain-backward", "copy-cycle",
        "for-init-shadows-param"])
def test_liveness_by_statement_kind(function, live):
    facts = _defuse(LIVENESS_CONTRACT.format(function), "f")
    assert _live(facts) == live


# -- inheritance flattening ---------------------------------------------------


def test_flatten_inherits_members():
    unit, derived = _contract("""
contract Base {
    uint x;
    function f(uint a) {}
    function f(address a) {}
    function shared() { }
}
contract Derived is Base {
    function shared() { uint y = 1; }
    function f(uint a) { uint z = a; }
    function f(bool b) {}
}
""", index=1)
    table = flatten_contract(unit, derived, [])
    assert "x" in table.state_variables
    # one entry per signature, in merge order: an override moves to the end
    assert list(table.functions) == ["f(address)", "shared()", "f(uint256)",
                                     "f(bool)"]
    # the derived overrides win
    for signature in ("shared()", "f(uint256)"):
        assert table.functions[signature] in derived.functions
    assert table.functions["f(address)"] not in derived.functions


def test_diamond_inheritance_warns():
    diags = []
    unit, d = _contract("""
contract A { }
contract B is A { }
contract C is A { }
contract D is B, C { }
""", index=3)
    flatten_contract(unit, d, diags)
    assert any("more than once" in item.message for item in diags)


def test_merge_order_and_repeated_bases():
    # bases are taken depth-first in declared order, each contract merged
    # after its own bases; a base met again is merged once and named in a
    # warning each time it is met
    diags = []
    unit, e = _contract("""
contract A { function a() {} }
contract B is A { function b() {} }
contract C is A { function c() {} }
contract D is B, C { function d() {} }
contract E is C, D, A { function e() {} }
""", index=4)
    table = flatten_contract(unit, e, diags)
    assert list(table.functions) == ["a()", "c()", "b()", "d()", "e()"]
    assert [item.message.split()[3] for item in diags] == ["A", "C", "A"]


def test_flatten_a_deep_inheritance_chain():
    # the merge takes its bases from a stack, so the chain's depth is not
    # bounded by the interpreter's recursion limit
    depth = 1500
    text = "contract C0 { uint v0; }\n" + "".join(
        f"contract C{i} is C{i - 1} {{ uint v{i}; }}\n"
        for i in range(1, depth))
    unit, last = _contract(text, index=depth - 1)
    diags = []
    table = flatten_contract(unit, last, diags)
    assert list(table.state_variables) == [f"v{i}" for i in range(depth)]
    assert diags == []


# -- the bare and the indexed forms -------------------------------------------


def test_the_file_index_and_a_function_alone_give_the_same_facts():
    # the analyzer passes the file's one node index, a caller without one
    # indexes each function alone: both must build the same facts
    sources = {name: read_listing(name) for name in LISTINGS}
    sources.update((f"synth_{i:02d}.sol", generate_contract_file(70_000 + i))
                   for i in range(60))
    sources["chain.sol"] = payable_chain(50)
    functions = 0
    for name, text in sources.items():
        facts = source_facts(parse_source(text, name), name)
        for cf in facts.contracts:
            assert build_call_graph(cf.table) \
                == build_call_graph(cf.table, facts.tree)
            for fn in cf.contract.functions:
                assert compute_def_use(fn) == compute_def_use(fn, facts.tree)
                functions += 1
    assert functions > 800
