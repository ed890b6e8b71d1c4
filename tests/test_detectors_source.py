"""Trigger and no-trigger cases for each of the 20 source-mode detectors."""

from __future__ import annotations

import pytest

import soldefect.detectors.base as base
import soldefect.detectors.index as index
import soldefect.nodes as nodes
import soldefect.semantic as semantic
from soldefect.analyzer import analyze_input, source_facts
from soldefect.config import DetectorConfig, RunConfig
from soldefect.detectors import AnalysisContext, ContractFacts, run_detectors
from soldefect.detectors.common import external_call
from soldefect.nodes import NodeIndex

from conftest import (clean_outcome, detectors_fired, findings_for, hits,
                      parse_source, read_listing)


def listing_facts(name: str):
    return source_facts(parse_source(read_listing(name), name), name)


def config_with(**kwargs) -> RunConfig:
    config = RunConfig()
    for key, value in kwargs.items():
        setattr(config.detectors, key, value)
    return config


# -- the call-chain decoder ----------------------------------------------------


@pytest.mark.parametrize("expr,kind,receiver,arguments", [
    ("x.send(v)", "send", "x", ["v"]),
    ("x.transfer(v)", "transfer", "x", ["v"]),
    ("x.call(d)", "call", "x", ["d"]),
    ("x.call.value(v)()", "callvalue", "x", ["v"]),
    ("x.call.value(v)", "callvalue", "x", ["v"]),  # the bare builder
    ("x.call.gas(g).value(v)(d)", "callvalue", "x", ["d", "v", "g"]),
    ("x.call.value(v).gas(g)()", "callvalue", "x", ["g", "v"]),
    ("x.delegatecall.gas(g)(d)", "delegatecall", "x", ["d", "g"]),
    ("x.callcode(d)", "callcode", "x", ["d"]),
    ("x.send.value(v)()", None, "x", ["v"]),
    ("x.foo.value(v)()", None, "x.foo", ["v"]),
    # the receiver walks through calls, the arguments past other members
    ("f(y).call.value(v)()", "callvalue", "f", ["v", "y"]),
    ("a.f(y).g.call.value(v)()", "callvalue", "a.f(y).g", ["v", "y"]),
    ("(x).call.value(v)()", "callvalue", "x", ["v"]),
])
def test_external_call_decodes_the_chain(expr, kind, receiver, arguments):
    text = f"contract C {{ function f() {{ {expr}; }} }}"
    body = parse_source(text, "t.sol").unit.contracts[0].functions[0].body

    def source(node) -> str:
        return text[node.span.offset:node.span.offset + node.span.length]

    got_kind, got_receiver, got_arguments = external_call(
        body.statements[0].expression)
    assert got_kind == kind
    assert source(got_receiver) == receiver
    assert [source(a) for a in got_arguments] == arguments


# -- D01 unchecked external calls ---------------------------------------------


def test_unchecked_send_fires():
    assert ("unchecked-external-calls", 2) in hits("""contract C {
    function f(address a) { a.send(1 ether); }
}""")


def test_checked_send_quiet():
    assert "unchecked-external-calls" not in detectors_fired("""contract C {
    function f(address a) { require(a.send(1 ether)); }
}""")


def test_send_result_in_if_quiet():
    assert "unchecked-external-calls" not in detectors_fired("""contract C {
    function f(address a) { if (a.send(1 ether)) {} }
}""")


def test_bare_call_value_fires():
    assert "unchecked-external-calls" in detectors_fired("""contract C {
    function f(address r, uint amount) { r.call.value(amount); }
}""")


def test_assigned_call_result_quiet():
    assert "unchecked-external-calls" not in detectors_fired("""contract C {
    uint state;
    function f(address a) { bool ok = a.call(); state = ok ? 1 : 2; }
}""")


def test_unchecked_delegatecall_fires():
    assert "unchecked-external-calls" in detectors_fired("""contract C {
    function f(address a) { a.delegatecall(); }
}""")


def test_transfer_not_flagged_as_unchecked():
    assert "unchecked-external-calls" not in detectors_fired("""contract C {
    function f(address a) { a.transfer(1 ether); }
}""")


# -- D02 DoS under external influence ------------------------------------------


def test_transfer_in_unbounded_loop_fires():
    found = hits("""contract C {
    address[] members;
    function f() {
        for (uint i = 0; i < members.length; i++) {
            members[i].transfer(1 ether);
        }
    }
}""")
    assert ("dos-under-external-influence", 5) in found  # the transfer line


def test_constant_bound_loop_quiet():
    assert "dos-under-external-influence" not in detectors_fired("""contract C {
    function f(address x) { for (uint i = 0; i < 5; i++) { x.transfer(1); } }
}""")


def test_loop_bounds_in_one_function():
    # a `constant` state variable with a literal initializer and a negative
    # literal are constant bounds; a loop with no condition has none, and
    # has no bound for a counter to overflow either; nor has a condition
    # that is not a comparison, or not one alone
    found = hits("""contract C {
    uint constant N = 10;
    bool go;
    function f(address a) {
        for (uint i = 0; i < N; i++) { a.transfer(1); }
        for (int j = 10; j > -1; j--) { a.transfer(1); }
        for (;;) { a.transfer(1); }
        while (go) { a.transfer(1); }
        while (go && N > 0) { a.transfer(1); }
    }
}""")
    loops = {"dos-under-external-influence", "nested-call",
             "unmatched-type-assignment"}
    assert {hit for hit in found if hit[0] in loops} == {
        (detector, line) for line in (7, 8, 9)
        for detector in ("dos-under-external-influence", "nested-call")}


def test_boolean_send_with_break_quiet():
    assert "dos-under-external-influence" not in detectors_fired("""contract C {
    address[] members;
    function f() {
        for (uint i = 0; i < members.length; i++) {
            if (members[i].send(1) == false) break;
        }
    }
}""")


def test_require_in_unbounded_loop_fires():
    # and so does a throw
    assert {line for detector, line in hits("""contract C {
    address[] members;
    function f() {
        for (uint i = 0; i < members.length; i++) { require(members[i] != 0); }
        for (uint j = 0; j < members.length; j++) { throw; }
    }
}""") if detector == "dos-under-external-influence"} == {4, 5}


# -- D03 strict balance equality -----------------------------------------------


def test_balance_equality_fires():
    assert ("strict-balance-equality", 2) in hits("""contract C {
    function f() { if (this.balance == 10 ether) { } }
}""")


def test_balance_range_quiet():
    assert "strict-balance-equality" not in detectors_fired("""contract C {
    function f() { if (this.balance >= 10 ether && this.balance < 11 ether) { } }
}""")


def test_address_this_balance_fires():
    assert "strict-balance-equality" in detectors_fired("""contract C {
    function f() { require(address(this).balance == 1 ether); }
}""")


def test_balance_neq_needs_strict_flag():
    source = """contract C {
    function f() { if (this.balance != 0) { } }
}"""
    assert "strict-balance-equality" not in detectors_fired(source)
    assert "strict-balance-equality" in detectors_fired(
        source, config_with(strict_balance_neq=True))


def test_balance_outside_condition_quiet():
    assert "strict-balance-equality" not in detectors_fired("""contract C {
    function f() returns (bool) { return this.balance == 0; }
}""")


# -- D04 unmatched type assignment ----------------------------------------------


def test_var_counter_against_length_fires():
    # a 1,500-term sum is a left spine deeper than the interpreter's stack
    for init in ("0", " + ".join(["x"] * 1500)):
        assert ("unmatched-type-assignment", 5) in hits(f"""contract C {{
    uint8 x;
    address[] members;
    function f() {{
        for (var i = {init}; i < members.length; i++) {{ }}
    }}
}}""")


def test_uint256_counter_quiet():
    assert "unmatched-type-assignment" not in detectors_fired("""contract C {
    address[] members;
    function f() { for (uint256 i = 0; i < members.length; i++) { } }
}""")


def test_small_literal_bound_quiet():
    assert "unmatched-type-assignment" not in detectors_fired("""contract C {
    function f() { for (uint8 i = 0; i < 10; i++) { } }
}""")


def test_unreachable_literal_bound_fires():
    assert "unmatched-type-assignment" in detectors_fired("""contract C {
    function f() { for (uint8 i = 0; i < 300; i++) { } }
}""")


def test_matching_param_bound_quiet():
    assert "unmatched-type-assignment" not in detectors_fired("""contract C {
    function f(uint8 n) { for (uint8 i = 0; i < n; i++) { } }
}""")


_D04 = "unmatched-type-assignment"
_D02 = "dos-under-external-influence"


@pytest.mark.parametrize("loop,detector,fires", [
    # a counter on the right of the comparison
    ("for (uint8 i = 0; 300 > i; i++) { }", _D04, True),
    # an inclusive bound is reached one step earlier
    ("for (uint8 i = 0; i <= 255; i++) { }", _D04, True),
    ("for (uint8 i = 0; i <= 254; i++) { }", _D04, False),
    ("for (uint8 i = 0; 255 >= i; i++) { }", _D04, True),
    # a bound name that is neither state nor parameter counts as 256 bits
    ("for (uint8 i = 0; i < limit; i++) { }", _D04, True),
    # a counter assigned, not declared, has no type to check
    ("for (j = 0; j < 300; j++) { }", _D04, False),
    # nor has a counter of a type that is not an integer
    ("for (Token t = 0; t < 300; t++) { }", _D04, False),
    ("for (bool b = false; b < 300; ) { }", _D04, False),
    ("for (address a = 0; a < 300; a++) { }", _D04, False),
    # a condition that is no comparison, one that does not read the
    # counter, and a fractional bound bound nothing
    ("for (uint8 i = 0; j; i++) { }", _D04, False),
    ("for (uint8 i = 0; j < 300; i++) { }", _D04, False),
    ("for (uint8 i = 0; i < 1.5; i++) { }", _D04, False),
    # a literal bounds a loop only against a plain name that is not state:
    # storage counted down to a literal is no constant bound
    ("while (members.length > 0) { throw; }", _D02, True),
    ("while (j > 0) { throw; }", _D02, True),
    ("for (uint i = 0; i < 10; i++) { throw; }", _D02, False),
    ("for (uint i = 10; i > 0; i--) { throw; }", _D02, False),
], ids=["counter-on-right", "inclusive-bound-reached",
        "inclusive-bound-in-range", "inclusive-counter-on-right",
        "unresolved-bound", "assigned-counter", "user-type-counter",
        "bool-counter", "address-counter", "condition-not-a-comparison",
        "condition-without-the-counter", "fractional-bound",
        "storage-counted-down", "state-counted-down", "counted-up-to-literal",
        "counted-down-to-literal"])
def test_loop_bound_forms(loop, detector, fires):
    source = (f"contract C {{ uint8 j; address[] members; "
              f"function f() {{ {loop} }} }}")
    assert (detector in detectors_fired(source)) is fires


@pytest.mark.parametrize("source,messages", [
    # a local bound of the counter's width
    ("contract C { function f() { uint8 n = 10; "
     "for (uint8 i = 0; i < n; i++) { } } }", []),
    # a `var` counter takes its type from a parameter
    ("contract C { function g(uint8 x) { for (var i = x; i < 1000; i++) {} } }",
     ["loop counter i is uint8 but the loop bound 1000 exceeds its 8-bit range"]),
    # a parameter hides the state variable of its name
    ("contract C { uint n; function f(uint8 n) { "
     "for (uint8 i = 0; i < n; i++) { } } }", []),
    # a name reads its last declaration before the loop, not a later one
    ("contract C { function f() { uint8 n = 10; "
     "for (uint8 i = 0; i < n; i++) { } if (true) { uint n = 300; n; } } }", []),
    ("contract C { function f(uint8 x) { for (var i = x; i < 1000; i++) { } "
     "if (true) { uint x = 1; x; } } }",
     ["loop counter i is uint8 but the loop bound 1000 exceeds its 8-bit range"]),
], ids=["local-bound", "var-counter-from-param", "param-shadows-state",
        "bound-before-a-later-local", "var-counter-before-a-later-local"])
def test_loop_bound_names_resolve_in_the_body_first(source, messages):
    assert [f.message for f in findings_for(source)
            if f.detector == "unmatched-type-assignment"] == messages


# -- D05 transaction state dependency --------------------------------------------


def test_tx_origin_in_require_fires():
    assert ("transaction-state-dependency", 3) in hits("""contract C {
    address owner;
    function f() { require(tx.origin == owner); }
}""")


def test_msg_sender_quiet():
    assert "transaction-state-dependency" not in detectors_fired("""contract C {
    address owner;
    function f() { require(msg.sender == owner); }
}""")


def test_tx_origin_event_argument_default_quiet_strict_fires():
    source = """contract C {
    event Log(address a);
    function f() { Log(tx.origin); }
}"""
    assert "transaction-state-dependency" not in detectors_fired(source)
    assert "transaction-state-dependency" in detectors_fired(
        source, config_with(strict_tx_origin_all_uses=True))


def test_tx_origin_in_modifier_fires():
    assert "transaction-state-dependency" in detectors_fired("""contract C {
    address owner;
    modifier onlyOwner { require(tx.origin == owner); _; }
    function f() onlyOwner { }
}""")


# -- D06 block info dependency ----------------------------------------------------


def test_blockhash_to_index_fires():
    assert ("block-info-dependency", 4) in hits("""contract C {
    address[] participants;
    function f() {
        uint winner = uint(block.blockhash(block.number));
        participants[winner].send(1 ether);
    }
}""")


def test_timestamp_in_condition_fires():
    assert "block-info-dependency" in detectors_fired("""contract C {
    function f() { if (block.timestamp > 100) { } }
}""")


def test_now_in_condition_fires():
    assert "block-info-dependency" in detectors_fired("""contract C {
    function f() { require(now > 100); }
}""")


def test_timestamp_event_argument_quiet():
    assert "block-info-dependency" not in detectors_fired("""contract C {
    event Timestamp(uint t);
    function f() { emit Timestamp(block.timestamp); }
}""")


def test_no_block_reads_quiet():
    assert "block-info-dependency" not in detectors_fired("""contract C {
    function f(uint x) { if (x > 2) { } }
}""")


# -- D07 reentrancy ----------------------------------------------------------------


REENTRANT = """contract Victim {
    mapping(address => uint) balances;
    function withdraw() {
        uint amount = balances[msg.sender];
        if (amount > 0) {
            msg.sender.call.value(amount)();
            balances[msg.sender] = 0;
        }
    }
}"""


def test_write_after_call_fires():
    assert ("reentrancy", 6) in hits(REENTRANT)


def test_write_before_call_quiet():
    fixed = """contract Victim {
    mapping(address => uint) balances;
    function withdraw() {
        uint amount = balances[msg.sender];
        if (amount > 0) {
            balances[msg.sender] = 0;
            msg.sender.call.value(amount)();
        }
    }
}"""
    assert "reentrancy" not in detectors_fired(fixed)


def test_transfer_then_write_quiet():
    gas_limited = """contract Victim {
    mapping(address => uint) balances;
    function withdraw() {
        uint amount = balances[msg.sender];
        if (amount > 0) {
            msg.sender.transfer(amount);
            balances[msg.sender] = 0;
        }
    }
}"""
    assert "reentrancy" not in detectors_fired(gas_limited)


def test_require_guard_reentrancy_fires():
    assert "reentrancy" in detectors_fired("""contract Victim {
    mapping(address => uint) balances;
    function withdraw() {
        require(balances[msg.sender] > 0);
        msg.sender.call.value(balances[msg.sender])();
        balances[msg.sender] = 0;
    }
}""")


@pytest.mark.parametrize("writes,name", [
    ("b = 1; a = 1;", "b"),  # found by the scan forward from the call
    ("c = 1; d = 1; e = 1; a = 1; b = 1;", "a"),  # found by bisecting
    ("c = 1; d = 1; e = 1;", None),
], ids=["scan", "bisect", "none"])
def test_reentrancy_names_the_first_guarded_write_after_the_call(writes, name):
    source = f"""contract C {{
    uint a; uint b; uint c; uint d; uint e;
    function f() {{
        a = 0;
        require(a > 0 && b > 0);
        msg.sender.call.value(1)();
        {writes}
    }}
}}"""
    messages = [f.message for f in findings_for(source)
                if f.detector == "reentrancy"]
    assert messages == ([f"external call precedes the update of {name}, "
                         "which its guard reads"] if name else [])


# -- D08 nested call -----------------------------------------------------------------


def test_transfer_in_unbounded_loop_is_nested_call():
    source = """contract C {
    address[] members;
    function giveBonus() {
        for (var i = 0; i < members.length; i++) {
            if (this.balance > 1 ether)
                members[i].transfer(1 ether);
        }
    }
}"""
    assert ("nested-call", 4) in hits(source)


def test_bounded_loop_not_nested_call():
    assert "nested-call" not in detectors_fired("""contract C {
    function f(address x) { for (uint i = 0; i < 5; i++) { x.transfer(1); } }
}""")


def test_no_call_in_loop_quiet():
    assert "nested-call" not in detectors_fired("""contract C {
    uint total;
    address[] members;
    function f() { for (uint i = 0; i < members.length; i++) { total += 1; } }
}""")


# -- D09 misleading data location ------------------------------------------------------


def test_storage_array_local_fires():
    assert ("misleading-data-location", 3) in hits("""contract C {
    function f() {
        uint[] tmp;
        tmp.push(0);
    }
}""")


def test_memory_location_quiet():
    assert "misleading-data-location" not in detectors_fired("""contract C {
    function f() { uint[] memory tmp; }
}""")


def test_value_type_local_quiet():
    assert "misleading-data-location" not in detectors_fired("""contract C {
    function f() { uint x; x = 1; }
}""")


def test_string_local_fires():
    assert "misleading-data-location" in detectors_fired("""contract C {
    function f() { string s; }
}""")


# -- D10 unmatched ERC-20 ----------------------------------------------------------------


CONFORMANT_TOKEN = """contract Token {
    event Transfer(address from, address to, uint256 value);
    event Approval(address owner, address spender, uint256 value);
    function totalSupply() public constant returns (uint256) { return 0; }
    function balanceOf(address who) public constant returns (uint256) { return 0; }
    function transfer(address to, uint256 value) public returns (bool) { return true; }
    function transferFrom(address from, address to, uint256 value) public returns (bool) { return true; }
    function approve(address spender, uint256 value) public returns (bool) { return true; }
    function allowance(address owner, address spender) public constant returns (uint256) { return 0; }
}"""


def test_transfer_missing_bool_return_fires():
    findings = findings_for("""contract Token {
    function transfer(address to, uint256 value) public { }
}""")
    matches = [f for f in findings if f.detector == "unmatched-erc20"]
    assert matches and "transfer must return (bool)" in matches[0].message


def test_conformant_token_quiet():
    assert "unmatched-erc20" not in detectors_fired(CONFORMANT_TOKEN)


def test_non_token_contract_quiet():
    assert "unmatched-erc20" not in detectors_fired("""contract C {
    function doSomething(uint x) public returns (uint) { return x; }
}""")


def test_missing_event_fires():
    source = CONFORMANT_TOKEN.replace(
        "    event Approval(address owner, address spender, uint256 value);\n", "")
    findings = findings_for(source)
    matches = [f for f in findings if f.detector == "unmatched-erc20"]
    assert matches and "missing event Approval" in matches[0].message


def test_event_with_wrong_parameters_fires():
    source = CONFORMANT_TOKEN.replace(
        "event Transfer(address from, address to, uint256 value)",
        "event Transfer(address from, address to)")
    matches = [f for f in findings_for(source) if f.detector == "unmatched-erc20"]
    assert len(matches) == 1
    assert matches[0].message == ("contract Token deviates from ERC-20: event "
                                  "Transfer must take (address,address,uint256)")


def test_unrelated_overload_does_not_stand_in():
    # transfer(address) is another function, not a transfer(address,uint256)
    source = CONFORMANT_TOKEN.replace(
        "function transfer(address to, uint256 value) public returns (bool)",
        "function transfer(address to) public returns (bool)")
    findings = findings_for(source)
    matches = [f for f in findings if f.detector == "unmatched-erc20"]
    assert matches and "missing function transfer(address,uint256)" in matches[0].message


def test_optional_decimals_wrong_return_fires():
    source = CONFORMANT_TOKEN.replace(
        "}", """    function decimals() public constant returns (uint256) { return 18; }
}""", 1) if False else CONFORMANT_TOKEN[:-1] + """
    function decimals() public constant returns (uint256) { return 18; }
}"""
    findings = findings_for(source)
    matches = [f for f in findings if f.detector == "unmatched-erc20"]
    assert matches and "optional decimals" in matches[0].message


# -- D11 missing reminder ------------------------------------------------------------------


def test_payable_state_write_without_event_fires():
    assert "missing-reminder" in detectors_fired("""contract C {
    address[] members;
    function receiveEth() payable {
        if (msg.value != 1 ether) { revert(); }
        members.push(msg.sender);
    }
}""")


def test_payable_with_emit_quiet():
    assert "missing-reminder" not in detectors_fired("""contract C {
    address[] members;
    event Received(address who);
    function receiveEth() payable {
        if (msg.value != 1 ether) { revert(); }
        members.push(msg.sender);
        emit Received(msg.sender);
    }
}""")


def test_event_call_without_emit_keyword_quiet():
    assert "missing-reminder" not in detectors_fired("""contract C {
    uint total;
    event Received(address who);
    function receiveEth() payable {
        total += msg.value;
        Received(msg.sender);
    }
}""")


def test_empty_payable_fallback_quiet():
    assert "missing-reminder" not in detectors_fired(
        "contract C { function() payable { } }")


def test_nonpayable_state_write_quiet():
    assert "missing-reminder" not in detectors_fired("""contract C {
    uint total;
    function f() { total += 1; }
}""")


# -- D12 missing return statement ------------------------------------------------------------


def test_missing_return_fires():
    assert ("missing-return-statement", 2) in hits("""contract C {
    function giveBonus() returns (bool) {
        uint x = 1;
    }
}""")


def test_return_present_quiet():
    assert "missing-return-statement" not in detectors_fired("""contract C {
    function giveBonus() returns (bool) { return true; }
}""")


def test_named_return_exempt():
    assert "missing-return-statement" not in detectors_fired("""contract C {
    function f() returns (bool ok) { ok = true; }
}""")


def test_return_on_one_branch_only_fires():
    assert "missing-return-statement" in detectors_fired("""contract C {
    function f(uint x) returns (bool) {
        if (x > 0) { return true; }
    }
}""")


def test_return_on_both_branches_quiet():
    assert "missing-return-statement" not in detectors_fired("""contract C {
    function f(uint x) returns (bool) {
        if (x > 0) { return true; } else { return false; }
    }
}""")


# -- D13 greedy contract ------------------------------------------------------------------------


def test_payable_without_withdraw_fires():
    assert "greedy-contract" in detectors_fired(
        "contract C { function() payable { } function g(uint x) { } }")


def test_payable_with_transfer_quiet():
    assert "greedy-contract" not in detectors_fired("""contract C {
    address owner;
    function() payable { }
    function withdraw() { owner.transfer(this.balance); }
}""")


def test_payable_with_selfdestruct_quiet():
    assert "greedy-contract" not in detectors_fired("""contract C {
    function() payable { }
    function close(address a) { selfdestruct(a); }
}""")


def test_no_payable_quiet():
    assert "greedy-contract" not in detectors_fired(
        "contract C { function f(uint x) returns (uint) { return x + 1; } }")


@pytest.mark.parametrize("source,reported", [
    ("interface I { function deposit() external payable; }", set()),
    ("contract A { function deposit() public payable; }", set()),
    # a contract that implements the declaration can hold ether
    ("interface I { function deposit() external payable; }\n"
     "contract B is I { function deposit() public payable { } }", {"B"}),
], ids=["interface", "abstract", "implemented"])
def test_only_a_payable_body_receives_ether(source, reported):
    # both D13 and D18 ask whether the contract can hold ether
    for detector in ("greedy-contract", "missing-interrupter"):
        found = {f.message.split()[1] for f in findings_for(source)
                 if f.detector == detector}
        assert found == reported, detector


# -- D14 unused statement ------------------------------------------------------------------------


def test_dead_parameter_and_local_fire():
    found = hits("""contract C {
    uint variable;
    function changeVariable(uint value1, uint value2) {
        uint newValue = value1;
        variable = value2;
    }
}""")
    assert ("unused-statement", 3) in found  # value1 (declared on the fn line)
    assert ("unused-statement", 4) in found  # newValue


def test_all_used_quiet():
    assert "unused-statement" not in detectors_fired("""contract C {
    uint state;
    function f(uint a, uint b) returns (uint) {
        state = a;
        return b;
    }
}""")


def test_dead_chain_two_findings():
    findings = [f for f in findings_for("""contract C {
    function f() {
        uint x = 1;
        uint y = x;
    }
}""") if f.detector == "unused-statement"]
    assert len(findings) == 2


def test_shadowed_parameter_and_deleted_local_fire():
    found = hits("""contract C {
    uint s;
    function f(uint x) {
        uint x = 1;
        s = x;
    }
    function g(uint a) {
        uint b = a;
        delete b;
    }
}""")
    # the shadowed parameter x, the parameter a and the deleted local b
    assert {line for d, line in found if d == "unused-statement"} == {3, 7, 8}


# -- D15 high gas consumption function type -------------------------------------------------------


def test_public_array_param_never_called_fires():
    assert "high-gas-function-type" in detectors_fired("""contract C {
    function highGas(uint[20] a) public returns (uint) { return a[10] * 2; }
}""")


def test_external_quiet():
    assert "high-gas-function-type" not in detectors_fired("""contract C {
    function lowGas(uint[20] a) external returns (uint) { return a[10] * 2; }
}""")


def test_internally_called_public_quiet():
    assert "high-gas-function-type" not in detectors_fired("""contract C {
    function used(uint[20] a) public returns (uint) { return a[0]; }
    function caller() { uint[20] memory v; used(v); }
}""")


def test_no_array_params_quiet():
    assert "high-gas-function-type" not in detectors_fired("""contract C {
    function f(uint a) public returns (uint) { return a; }
}""")


def test_call_in_modifier_argument_is_internal():
    # following the advice would break compilation: allowed is called
    # from f's modifier argument
    assert "high-gas-function-type" not in detectors_fired("""contract C {
    modifier when(bool ok) { require(ok); _; }
    function allowed(uint[] xs) public returns (bool) { return xs.length > 0; }
    function f(uint[] xs) external when(allowed(xs)) { }
}""")


def _graphs_built(monkeypatch) -> list:
    """Patch build_call_graph to record each contract it is built for."""
    built, build = [], base.build_call_graph

    def counted(table, tree):
        built.append(table.contract.name)
        return build(table, tree)

    monkeypatch.setattr(base, "build_call_graph", counted)
    return built


def test_a_contract_without_candidates_builds_no_call_graph(monkeypatch):
    # no public function takes an array, so D15 never reads the call graph
    # and every finding comes without one
    expected = findings_for(read_listing("listing1.sol"))

    def refuse(table, tree):
        raise AssertionError("call graph built")

    monkeypatch.setattr(base, "build_call_graph", refuse)
    assert findings_for(read_listing("listing1.sol")) == expected
    assert expected


def test_a_candidate_contract_builds_its_call_graph_once(monkeypatch):
    source = """contract C {
    function used(uint[20] a) public returns (uint) { return a[0]; }
    function unused(bytes b) public returns (uint) { return b.length; }
    function caller() { uint[20] memory v; used(v); }
}
contract D {
    function g(uint a) public returns (uint) { return a; }
}"""
    expected = hits(source)
    built = _graphs_built(monkeypatch)
    assert hits(source) == expected
    assert built == ["C"]
    assert {h for h in expected if h[0] == "high-gas-function-type"} \
        == {("high-gas-function-type", 3)}


def test_a_given_call_graph_is_the_one_read():
    # a caller that builds the callee names itself passes them positionally
    facts = listing_facts("listing1.sol")
    cf = facts.contracts[0]
    given = ContractFacts(cf.contract, cf.table, {"g"}, cf.defuse)
    assert facts.callees(given) == {"g"}
    assert cf.call_graph is None and facts.callees(cf) is facts.callees(cf)


def test_a_run_of_one_pragma_detector_builds_no_index(monkeypatch):
    # D20 reads only the pragmas: the run builds no node index, so no body
    # index and no def-use either
    def refuse(*_args):
        raise AssertionError("fact built")

    monkeypatch.setattr(NodeIndex, "__init__", refuse)
    monkeypatch.setattr(index, "liveness", refuse)
    outcome = analyze_input(read_listing("listing1.sol").encode(), "l1.sol",
                            config_with(enable={"unspecified-compiler-version"}))
    assert outcome.error is None and outcome.diagnostics == []
    assert [f.detector for f in outcome.findings] \
        == ["unspecified-compiler-version"]


def test_a_full_run_lists_each_body_once(monkeypatch):
    # the fact index of each body lists its statements, and def-use reads
    # that list: one listing per body with code, inherited or not
    source = """contract A {
    modifier only(uint k) { require(k > 0); _; }
    function f(uint a) only(1) { uint unused = a; }
}
contract B is A {
    function g(uint b) public returns (uint) { return b; }
    function h();
}"""
    listed, listing = [], nodes.statements

    def counted(fn):
        listed.append(fn.span.offset)
        return listing(fn)

    for module in (nodes, index, semantic):
        monkeypatch.setattr(module, "statements", counted)
    outcome = analyze_input(source.encode(), "t.sol", RunConfig())
    assert outcome.error is None
    assert {(f.detector, f.line) for f in outcome.findings
            if f.detector == "unused-statement"} == {("unused-statement", 3)}
    unit = parse_source(source, "t.sol").unit
    assert sorted(listed) == sorted(
        fn.span.offset for c in unit.contracts
        for fn in c.functions + c.modifiers if fn.body is not None)


# -- D16 high gas consumption data type ------------------------------------------------------------


def test_byte_array_fires():
    assert ("high-gas-data-type", 1) in hits("contract C { byte[] data; }")


def test_bytes_quiet():
    assert "high-gas-data-type" not in detectors_fired("contract C { bytes data; }")


def test_uint8_array_quiet():
    assert "high-gas-data-type" not in detectors_fired("contract C { uint8[] data; }")


def test_byte_array_parameter_fires():
    assert "high-gas-data-type" in detectors_fired(
        "contract C { function f(byte[] data) internal { } }")


# -- D17 hard code address ---------------------------------------------------------------------------


def test_invalid_checksum_literal_fires_with_subdiagnosis():
    findings = [f for f in findings_for("""contract C {
    address owner = 0xDCaD000000000000000000000000000005D1d3aD;
}""") if f.detector == "hard-code-address"]
    assert findings and "illegal address" in findings[0].message


def test_lowercase_literal_fires_plain():
    findings = [f for f in findings_for("""contract C {
    function f() { address r = 0x05f400000000000000000000aaaaaaaaaaaaad27; r.send(1); }
}""") if f.detector == "hard-code-address"]
    assert findings and "illegal" not in findings[0].message


def test_first_hit_on_a_line_wins():
    # run_detectors keeps a detector's first finding on each line: the
    # plain literal, not the one with the bad checksum after it
    outcome = clean_outcome(b"""contract C {
    function f() { address r = 0x05f400000000000000000000aaaaaaaaaaaaad27; address s = 0xDCaD000000000000000000000000000005D1d3aD; }
}""", "snippet.sol")
    found = [(f.line, f.column, f.message) for f in outcome.findings
             if f.detector == "hard-code-address"]
    assert found == [
        (2, 32, "hard-coded address 0x05f400000000000000000000aaaaaaaaaaaaad27")]


def test_parameter_address_quiet():
    assert "hard-code-address" not in detectors_fired("""contract C {
    function f(address a) { a.transfer(1); }
}""")


def test_zero_address_comparison_quiet():
    assert "hard-code-address" not in detectors_fired("""contract C {
    function f(address a) returns (bool) {
        return a != 0x0000000000000000000000000000000000000000;
    }
}""")


# -- D18 missing interrupter --------------------------------------------------------------------------


def test_payable_no_stop_mechanism_fires():
    assert "missing-interrupter" in detectors_fired("""contract C {
    uint total;
    function() payable { total += 1; }
}""")


def test_selfdestruct_counts_as_interrupter():
    assert "missing-interrupter" not in detectors_fired("""contract C {
    address owner;
    function() payable { }
    function kill() { require(msg.sender == owner); selfdestruct(owner); }
}""")


def test_owner_gated_breaker_counts():
    assert "missing-interrupter" not in detectors_fired("""contract C {
    address owner;
    bool stopped;
    function() payable { }
    function setStopped(bool value) {
        require(msg.sender == owner);
        stopped = value;
    }
    function act() public {
        require(!stopped);
    }
}""")


def test_non_payable_quiet():
    assert "missing-interrupter" not in detectors_fired("""contract C {
    function pureLogic(uint x) returns (uint) { return x * 2; }
}""")


# -- D19 deprecated APIs ----------------------------------------------------------------------------------


def test_throw_fires_revert_quiet():
    assert "deprecated-apis" in detectors_fired(
        "contract C { function f() { throw; } }")
    assert "deprecated-apis" not in detectors_fired(
        "contract C { function f() { revert(); } }")


def test_sha3_fires_keccak_quiet():
    assert "deprecated-apis" in detectors_fired(
        "contract C { function f(uint x) { sha3(x); } }")
    assert "deprecated-apis" not in detectors_fired(
        "contract C { function f(uint x) { keccak256(x); } }")


def test_suicide_call_fires_but_declaration_quiet():
    assert "deprecated-apis" in detectors_fired(
        "contract C { function f(address a) { suicide(a); } }")
    # a user function *named* suicide is not a use of the builtin
    assert "deprecated-apis" not in detectors_fired("""contract C {
    function suicide(address a) { selfdestruct(a); }
}""")


def test_msg_gas_and_callcode_fire():
    assert "deprecated-apis" in detectors_fired(
        "contract C { function f() returns (uint) { return msg.gas; } }")
    assert "deprecated-apis" in detectors_fired(
        "contract C { function f(address a) { a.callcode(); } }")


def test_constant_mutability_fires():
    assert "deprecated-apis" in detectors_fired(
        "contract C { function f() constant returns (uint) { return 1; } }")


def test_block_blockhash_only_with_extra_config():
    source = """contract C {
    function f() returns (uint) { return uint(block.blockhash(block.number)); }
}"""
    assert "deprecated-apis" not in detectors_fired(source)
    assert "deprecated-apis" in detectors_fired(
        source, config_with(deprecated_extra=("block.blockhash",)))


def test_plain_call_only_with_extra_config():
    source = "contract C { function f(uint x) { ecrecover2(x); } }"
    assert "deprecated-apis" not in detectors_fired(source)
    assert [f.message for f in findings_for(
        source, config_with(deprecated_extra=("ecrecover2",)))
        if f.detector == "deprecated-apis"] == ["deprecated ecrecover2()"]


# -- D20 unspecified compiler version -----------------------------------------------------------------------


def test_caret_pragma_fires():
    assert ("unspecified-compiler-version", 1) in hits(
        "pragma solidity ^0.4.25;\ncontract C { }")


def test_exact_pragma_quiet():
    assert "unspecified-compiler-version" not in detectors_fired(
        "pragma solidity 0.4.25;\ncontract C { }")


def test_missing_pragma_fires():
    assert "unspecified-compiler-version" in detectors_fired("contract C { }")


def test_range_pragma_fires():
    assert "unspecified-compiler-version" in detectors_fired(
        "pragma solidity >=0.4.0 <0.6.0;\ncontract C { }")


# -- cross-cutting properties ---------------------------------------------------------------------------------


def test_detectors_are_pure():
    ctx = AnalysisContext(source=listing_facts("listing1.sol"),
                          config=DetectorConfig())
    first = run_detectors(ctx)
    second = run_detectors(ctx)
    assert first == second


def test_disable_removes_exactly_those_findings():
    text = read_listing("listing1.sol")
    baseline = findings_for(text)
    config = RunConfig()
    config.detectors.disable = {"hard-code-address"}
    trimmed = findings_for(text, config)
    assert [f for f in baseline if f.detector != "hard-code-address"] == trimmed


def test_enable_subset_keeps_only_those():
    text = read_listing("listing1.sol")
    config = RunConfig()
    config.detectors.enable = {"reentrancy", "strict-balance-equality"}
    subset = findings_for(text, config)
    assert {f.detector for f in subset} <= {"reentrancy", "strict-balance-equality"}


def _raises_at_once(ctx):
    raise RecursionError("maximum recursion depth exceeded")


def _raises_after_a_hit(ctx):
    yield ctx.source.unit.span, "a hit that must not be kept"
    raise RecursionError("maximum recursion depth exceeded")


@pytest.mark.parametrize("broken", [_raises_at_once, _raises_after_a_hit],
                         ids=["at-once", "after-a-hit"])
def test_failing_detector_is_isolated(monkeypatch, broken):
    from soldefect.detectors.base import _SOURCE_DETECTORS

    baseline = run_detectors(AnalysisContext(source=listing_facts("listing1.sol")))
    monkeypatch.setitem(_SOURCE_DETECTORS, "hard-code-address", broken)
    ctx = AnalysisContext(source=listing_facts("listing1.sol"))
    assert run_detectors(ctx) == [f for f in baseline
                                  if f.detector != "hard-code-address"]
    assert [d.severity for d in ctx.diagnostics] == ["error"]
    assert "detector hard-code-address (D17) failed: RecursionError" \
        in ctx.diagnostics[0].message


def test_findings_for_fails_on_a_detector_that_raises(monkeypatch):
    from soldefect.detectors.base import _SOURCE_DETECTORS

    def broken(ctx):
        raise RuntimeError("boom")

    monkeypatch.setitem(_SOURCE_DETECTORS, "hard-code-address", broken)
    with pytest.raises(AssertionError, match="hard-code-address.*boom"):
        findings_for(read_listing("listing1.sol"))
