"""Bytecode-mode detectors, plus source/bytecode agreement for the four
dual-mode defects (hand-assembled bytecode standing in for compiled probes)."""

from __future__ import annotations

import soldefect.evm.keccak
from soldefect.detectors.availability import ERC20_MANDATORY
from soldefect.evm.disasm import disassemble
from soldefect.evm.opcodes import MNEMONICS

from asm import (BALANCE_EQ, CALL_BODY, DEAD_CALL_INTO_LOOP, PUSH20_LITERAL,
                 assemble, counted_loop, dispatcher, storage_bound_loop)
from conftest import bytecode_findings, detectors_fired, function_selector


def bc_detectors(code: bytes) -> set[str]:
    return {f.detector for f in bytecode_findings(code)}


# -- strict balance equality ----------------------------------------------------


def test_balance_eq_jumpi_fires():
    findings = [f for f in bytecode_findings(BALANCE_EQ)
                if f.detector == "strict-balance-equality"]
    assert len(findings) == 1
    assert findings[0].pc == 4  # the EQ instruction
    assert findings[0].line is None


def test_balance_range_check_quiet():
    code = assemble([
        "ADDRESS", "BALANCE", "PUSH1 10", "LT", "PUSH2 @yes", "JUMPI",
        "STOP", "yes:", "JUMPDEST", "STOP",
    ])
    assert "strict-balance-equality" not in bc_detectors(code)


def test_balance_eq_after_a_constant_loop_fires():
    # 5 passes, more than MAX_VISITS_PER_BLOCK: the code after the loop is
    # still emulated
    code = counted_loop(5, after=[
        "ADDRESS", "BALANCE", "PUSH1 10", "EQ", "PUSH2 @yes", "JUMPI",
        "STOP", "yes:", "JUMPDEST", "STOP",
    ])
    eq = [pc for pc in disassemble(code).starts if code[pc] == MNEMONICS["EQ"]]
    assert [f.pc for f in bytecode_findings(code)
            if f.detector == "strict-balance-equality"] == eq


def test_eq_without_balance_quiet():
    code = assemble([
        "CALLVALUE", "PUSH1 10", "EQ", "PUSH2 @yes", "JUMPI",
        "STOP", "yes:", "JUMPDEST", "STOP",
    ])
    assert "strict-balance-equality" not in bc_detectors(code)


# -- nested call ------------------------------------------------------------------


def test_unbounded_call_loop_fires():
    assert "nested-call" in bc_detectors(storage_bound_loop(CALL_BODY))


def test_bounded_call_loop_quiet():
    assert "nested-call" not in bc_detectors(counted_loop(5, CALL_BODY))


def test_unbounded_loop_without_call_quiet():
    assert "nested-call" not in bc_detectors(storage_bound_loop())


def test_unreachable_call_falling_into_loop_quiet():
    assert "nested-call" not in bc_detectors(DEAD_CALL_INTO_LOOP)


# -- hard code address ---------------------------------------------------------------


def test_push20_nonzero_fires():
    findings = [f for f in bytecode_findings(PUSH20_LITERAL)
                if f.detector == "hard-code-address"]
    assert len(findings) == 1
    assert findings[0].pc == 0
    assert "05f4" in findings[0].message


def test_push20_zero_quiet():
    code = assemble(["PUSH20 0", "POP", "STOP"])
    assert "hard-code-address" not in bc_detectors(code)


def test_push32_not_flagged():
    code = assemble(["PUSH32 1", "POP", "STOP"])
    assert "hard-code-address" not in bc_detectors(code)


# -- unmatched ERC-20 -------------------------------------------------------------------


_SELECTORS = {
    name: int(function_selector(sig).hex(), 16)
    for name, sig in (
        ("totalSupply", "totalSupply()"),
        ("balanceOf", "balanceOf(address)"),
        ("transfer", "transfer(address,uint256)"),
        ("transferFrom", "transferFrom(address,address,uint256)"),
        ("approve", "approve(address,uint256)"),
        ("allowance", "allowance(address,address)"),
    )
}


def test_partial_erc20_dispatcher_fires():
    partial = dispatcher({_SELECTORS["transfer"]: "t1",
                          _SELECTORS["balanceOf"]: "t2"})
    findings = [f for f in bytecode_findings(partial)
                if f.detector == "unmatched-erc20"]
    assert len(findings) == 1
    assert "transferFrom(address,address,uint256)" in findings[0].message


def test_full_erc20_dispatcher_quiet():
    full = dispatcher({sel: f"t{i}" for i, sel in enumerate(_SELECTORS.values())})
    assert "unmatched-erc20" not in bc_detectors(full)


def test_non_token_dispatcher_quiet():
    other = dispatcher({0x12345678: "t1", 0xCAFEBABE: "t2"})
    assert "unmatched-erc20" not in bc_detectors(other)


def test_literal_selector_table_matches_keccak():
    for name, params, _r, selector in ERC20_MANDATORY:
        signature = f"{name}({','.join(params)})"
        assert int.from_bytes(function_selector(signature), "big") == selector


def test_bytecode_path_computes_no_keccak(monkeypatch):
    def refuse(*_args):
        raise AssertionError("keccak on the bytecode path")

    monkeypatch.setattr(soldefect.evm.keccak, "keccak256", refuse)
    monkeypatch.setattr(soldefect.evm.keccak, "_keccak_f", refuse)
    partial = dispatcher({_SELECTORS["transfer"]: "t1",
                          _SELECTORS["balanceOf"]: "t2"})
    assert "unmatched-erc20" in bc_detectors(partial)


# -- source/bytecode agreement for the dual-mode detectors ----------------------------
#
# Each pair below is a source probe and a hand-assembled bytecode program
# with the same semantics; the same defect id must fire in both modes
# (locations are lines in one and pcs in the other).


def test_agreement_strict_balance_equality():
    source = "contract C { function f() { if (this.balance == 10 ether) { } } }"
    assert "strict-balance-equality" in detectors_fired(source)
    assert "strict-balance-equality" in bc_detectors(BALANCE_EQ)


def test_agreement_nested_call():
    source = """contract C {
    address[] members;
    function f() {
        for (uint i = 0; i < members.length; i++) { members[i].call.value(1)(); }
    }
}"""
    assert "nested-call" in detectors_fired(source)
    assert "nested-call" in bc_detectors(storage_bound_loop(CALL_BODY))


def test_agreement_hard_code_address():
    source = """contract C {
    function f() { address r = 0x05f400000000000000000000aaaaaaaaaaaaad27; r.transfer(1); }
}"""
    assert "hard-code-address" in detectors_fired(source)
    assert "hard-code-address" in bc_detectors(PUSH20_LITERAL)


def test_agreement_unmatched_erc20():
    source = """contract Token {
    function transfer(address to, uint256 value) public returns (bool) { return true; }
}"""
    bytecode = dispatcher({_SELECTORS["transfer"]: "t1"})
    assert "unmatched-erc20" in detectors_fired(source)
    assert "unmatched-erc20" in bc_detectors(bytecode)
