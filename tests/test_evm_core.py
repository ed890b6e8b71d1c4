from __future__ import annotations

from itertools import accumulate

import pytest
from hypothesis import example, given, strategies as st

from soldefect.evm import cfg as cfg_module
from soldefect.evm.cfg import build_cfg
from soldefect.evm.disasm import BytecodeError, disassemble
from soldefect.evm.loops import detect_loops
from soldefect.evm.opcodes import OPCODES, PUSH1, PUSH32
from soldefect.evm.selectors import extract_selectors

from asm import (CALL_BODY, DEAD_CALL_INTO_LOOP, JUMP_TO_STOP, JUMPI_TO_STOP,
                 STACK_OVERFLOW, UNREAD_SOURCES_MEET, assemble,
                 block_instructions, counted_loop, dispatcher, instructions,
                 reassemble, reference_disassemble, reference_split_blocks,
                 storage_bound_loop)
from conftest import bytecode_findings

# -- disassembly --------------------------------------------------------------


def test_push_add_disassembly():
    disassembly = disassemble("0x6001600201")
    assert [(i.pc, i.mnemonic, i.push_bytes)
            for i in instructions(disassembly)] == [
        (0, "PUSH1", b"\x01"), (2, "PUSH1", b"\x02"), (4, "ADD", b"")]
    assert disassembly.push_values == {0: 1, 2: 2}


def test_empty_bytecode():
    assert len(disassemble(b"")) == 0
    assert build_cfg(b"").blocks == {}


def test_truncated_push_is_invalid():
    disassembly = disassemble("0x61")
    assert len(disassembly) == 1
    ins = instructions(disassembly)[0]
    assert ins.mnemonic == "PUSH2" and ins.push_bytes == b"" and not ins.valid
    assert disassembly.push_values == {0: 0}


def test_truncated_push_keeps_partial_bytes():
    disassembly = disassemble("0x61aa")
    assert instructions(disassembly)[0].push_bytes == b"\xaa"
    assert not instructions(disassembly)[0].valid
    assert disassembly.push_values == {0: 0xAA}


def test_unknown_opcode_is_invalid_class():
    # SHL is post-Constantinople
    ins = instructions(disassemble(bytes([0x1B])))[0]
    assert ins.mnemonic == "INVALID"
    assert not ins.valid


def test_odd_length_hex_rejected():
    with pytest.raises(BytecodeError):
        disassemble("0x600")


def test_non_hex_characters_rejected():
    with pytest.raises(BytecodeError, match="invalid hex bytecode"):
        disassemble("0x60zz")


@given(st.binary(min_size=0, max_size=400))
def test_disassembly_round_trip(code):
    assert reassemble(instructions(disassemble(code))) == code


# Random bytes, built from pieces that the flat layout must decode as the
# record-by-record reference does: unknown opcodes, INVALID (0xFE), runs of
# JUMPDESTs, jumps and terminators, and a PUSH that the code ends inside.
_SPECIAL = (0x0C, 0x1B, 0x21, 0x5C, 0xEF, 0xFE, 0x00, 0x56, 0x57, 0x60, 0x7F)
_pieces = st.one_of(
    st.binary(max_size=12),
    st.sampled_from(_SPECIAL).map(lambda op: bytes([op])),
    st.integers(1, 4).map(lambda k: b"\x5b" * k),
    st.tuples(st.integers(PUSH1, PUSH32), st.binary(max_size=32)).map(
        lambda t: bytes([t[0]]) + t[1][:t[0] - PUSH1 + 1]))
_truncated_push = st.tuples(st.integers(PUSH1, PUSH32),
                            st.binary(max_size=31)).map(
    lambda t: bytes([t[0]]) + t[1][:t[0] - PUSH1])
oracle_programs = st.tuples(st.lists(_pieces, max_size=30),
                            st.one_of(st.just(b""), _truncated_push)).map(
    lambda t: b"".join(t[0]) + t[1])


@given(oracle_programs)
def test_flat_layout_matches_the_reference_decoder(code):
    disassembly = disassemble(code)
    reference = reference_disassemble(code)
    assert disassembly.code == code and len(disassembly) == len(reference)
    assert disassembly.starts == [r[0] for r in reference]
    assert [code[pc] for pc in disassembly.starts] == [r[1] for r in reference]
    assert disassembly.push_values == {pc: value for pc, op, _d, _v, value
                                       in reference if PUSH1 <= op <= PUSH32}
    assert [code[pc] in OPCODES and not disassembly.truncated(pc)
            for pc in disassembly.starts] == [r[3] for r in reference]
    assert [(i.push_bytes, i.valid) for i in instructions(disassembly)] \
        == [(r[2], r[3]) for r in reference]
    reference_blocks = reference_split_blocks(reference)
    assert disassembly.ends == list(accumulate(len(pcs) for _id, pcs, _end
                                               in reference_blocks))
    cfg = build_cfg(disassembly)
    starts = disassembly.starts
    assert [(b.id, starts[b.start:b.stop], b.terminator)
            for b in cfg.blocks.values()] == reference_blocks


# -- CFG ----------------------------------------------------------------------


def test_straight_line_single_block():
    cfg = build_cfg(assemble(["PUSH1 1", "PUSH1 2", "ADD", "STOP"]))
    assert len(cfg.blocks) == 1
    block = cfg.blocks[0]
    assert block.terminator == "stop"
    assert block.successors == []


def test_hand_assembled_jump_edge():
    code = assemble(["PUSH2 @dest", "JUMP", "dest:", "JUMPDEST", "STOP"])
    cfg = build_cfg(code)
    dest = instructions(disassemble(code))[-2].pc
    assert cfg.blocks[0].successors == [dest]
    assert block_instructions(cfg, dest)[0].mnemonic == "JUMPDEST"


def test_unresolved_dynamic_jump_recorded():
    cfg = build_cfg(assemble(["PUSH1 0", "CALLDATALOAD", "JUMP",
                              "JUMPDEST", "STOP"]))
    assert cfg.unresolved_jumps, "dynamic jump target should be edge-to-unknown"


@pytest.mark.parametrize("code,successors", [
    (JUMP_TO_STOP, []),
    (JUMPI_TO_STOP, [5]),  # only the structural fallthrough
    (assemble(["PUSH1 0x40", "JUMP"]), []),
    (assemble(["PUSH1 1", "PUSH1 0x40", "JUMPI", "STOP"]), [5]),
], ids=["jump to a stop", "jumpi to a stop", "jump past the code",
        "jumpi past the code"])
def test_constant_jump_to_no_jumpdest_is_invalid(code, successors):
    # no edge, and no unresolved jump: the target is known and invalid
    cfg = build_cfg(code)
    assert cfg.blocks[0].successors == successors
    assert cfg.unresolved_jumps == []
    assert [e.target for e in cfg.jumpi_events] in ([], [None])


def test_running_out_of_the_step_budget_is_recorded(monkeypatch):
    code = counted_loop(5)
    full = build_cfg(code)
    assert not full.out_of_budget
    monkeypatch.setattr(cfg_module, "STEP_BUDGET", 12)
    cut = build_cfg(code)
    assert cut.out_of_budget
    # the walk stopped inside the loop: its first pass is all it saw
    assert len(cut.jumpi_events) < len(full.jumpi_events)


def test_stack_overflow_halts_the_path():
    # and so do a JUMP and a POP of an empty stack, and a SWAP1 of one value
    for code in (STACK_OVERFLOW, assemble(["JUMP", "JUMPDEST", "STOP"]),
                 assemble(["POP", "PUSH1 @end", "JUMP", "end:", "JUMPDEST", "STOP"]),
                 assemble(["PUSH1 @end", "SWAP1", "JUMP", "end:", "JUMPDEST", "STOP"])):
        cfg = build_cfg(code)
        assert cfg.blocks[cfg.entry].successors == []
        assert set(cfg.dominators) == {cfg.entry}


def test_block_partition_invariants():
    for code in (counted_loop(), storage_bound_loop(CALL_BODY),
                 dispatcher({0xA9059CBB: "t1", 0x18160DDD: "t2"})):
        cfg = build_cfg(code)
        seen_pcs: set[int] = set()
        for block in cfg.blocks.values():
            pcs = [i.pc for i in block_instructions(cfg, block.id)]
            assert pcs == sorted(pcs) and len(set(pcs)) == len(pcs)
            assert not (set(pcs) & seen_pcs)
            seen_pcs.update(pcs)
        assert seen_pcs == {i.pc for i in instructions(disassemble(code))}


def test_edges_target_jumpdest_or_fallthrough():
    for code in (counted_loop(), dispatcher({0xA9059CBB: "t"})):
        cfg = build_cfg(code)
        order = sorted(cfg.blocks)
        next_of = {order[i]: order[i + 1] for i in range(len(order) - 1)}
        for block in cfg.blocks.values():
            for succ in block.successors:
                starts_jumpdest = (block_instructions(cfg, succ)[0].mnemonic
                                   == "JUMPDEST")
                assert starts_jumpdest or succ == next_of.get(block.id)


def test_dominators_form_tree_rooted_at_entry():
    cfg = build_cfg(counted_loop())
    assert cfg.dominators[cfg.entry] == cfg.entry
    for block in cfg.reachable():
        node = block
        for _ in range(len(cfg.blocks) + 1):
            if node == cfg.entry:
                break
            node = cfg.dominators[node]
        assert node == cfg.entry


def reachable_by_search(cfg) -> set[int]:
    """Independent oracle: the blocks a search over the successor edges
    reaches from the entry."""
    seen = set()
    stack = [cfg.entry] if cfg.entry in cfg.blocks else []
    while stack:
        b = stack.pop()
        if b not in seen:
            seen.add(b)
            stack.extend(cfg.blocks[b].successors)
    return seen


def brute_force_dominators(cfg) -> dict[int, set[int]]:
    """Independent oracle: a dominates b iff removing a disconnects entry->b."""
    reachable = reachable_by_search(cfg)

    def reaches_without(avoid: int) -> set[int]:
        seen = set()
        if cfg.entry == avoid:
            return seen
        stack = [cfg.entry]
        while stack:
            node = stack.pop()
            if node in seen or node == avoid:
                continue
            seen.add(node)
            stack.extend(s for s in cfg.blocks[node].successors
                         if s in reachable)
        return seen

    doms: dict[int, set[int]] = {}
    for b in reachable:
        doms[b] = {b}
        for a in reachable:
            if a != b and b not in reaches_without(a):
                doms[b].add(a)
    return doms


def test_dominator_tree_matches_brute_force():
    for code in (counted_loop(), storage_bound_loop(CALL_BODY),
                 dispatcher({0xA9059CBB: "a", 0x18160DDD: "b"})):
        cfg = build_cfg(code)
        oracle = brute_force_dominators(cfg)
        for block in cfg.reachable():
            # the idom chain must enumerate exactly the oracle's dominator set
            chain = {block}
            node = block
            while node != cfg.entry:
                node = cfg.dominators[node]
                chain.add(node)
            assert chain == oracle[block], f"block {block:#x}"


_FILLER = (0x80, 0x90, 0x15, 0x14, 0x10, 0x01, 0x50, 0x00, 0xFE)


def _jumpy(parts: list[tuple[int, int]]) -> bytes:
    """Parts: 0 JUMPDEST, 1 jump, 2 calldata-conditioned jumpi, 3 a filler
    opcode, 4 a raw push. Jumps target the JUMPDEST numbered by the part's
    argument, so most jumps resolve and the programs have loops."""
    sizes = (1, 3, 6, 1, 2)
    dests, pc = [], 0
    for kind, _arg in parts:
        if kind == 0:
            dests.append(pc)
        pc += sizes[kind]
    out = bytearray()
    for kind, arg in parts:
        target = dests[arg % len(dests)] if dests else arg
        out += (bytes([0x5B]), bytes([0x60, target, 0x56]),
                bytes([0x60, 0, 0x35, 0x60, target, 0x57]),
                bytes([_FILLER[arg % len(_FILLER)]]), bytes([0x60, arg]))[kind]
    return bytes(out)


# 40 parts of at most 6 bytes keep every jump target within a PUSH1
jump_heavy_programs = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 255)), max_size=40).map(_jumpy)


def idom_chain_dominates(cfg, a: int, b: int) -> bool:
    """Whether a dominates b, by walking b's immediate-dominator chain."""
    node = b
    while True:
        if node == a:
            return True
        idom = cfg.dominators.get(node)
        if idom is None or idom == node:
            return False
        node = idom


@given(st.one_of(st.binary(max_size=200), jump_heavy_programs))
def test_graph_facts_are_consistent(code):
    cfg = build_cfg(code)
    assert cfg.reachable() == set(cfg.dominators) == reachable_by_search(cfg)
    inverse: dict[int, list[int]] = {b: [] for b in cfg.blocks}
    for block in cfg.blocks.values():
        assert block.successors == sorted(set(block.successors))
        for succ in block.successors:
            inverse[succ].append(block.id)
    assert cfg.predecessors == inverse
    # every pair, unreachable blocks and a == b included
    for a in cfg.blocks:
        for b in cfg.blocks:
            assert cfg.dominates(a, b) == idom_chain_dominates(cfg, a, b)


# -- loops ---------------------------------------------------------------------


def test_acyclic_cfg_has_no_loops():
    cfg = build_cfg(assemble(["PUSH1 1", "PUSH1 2", "ADD", "STOP"]))
    assert detect_loops(cfg) == []


def test_counted_loop_constant_bound():
    cfg = build_cfg(counted_loop(5))
    loops = detect_loops(cfg)
    assert len(loops) == 1
    assert loops[0].bound == 5


def test_storage_bound_loop_unbounded():
    # and a loop that exits on a calldata word, not on a comparison
    calldata_exit = assemble(["header:", "JUMPDEST", "PUSH1 0", "CALLDATALOAD",
                              "PUSH2 @exit", "JUMPI", "PUSH2 @header", "JUMP",
                              "exit:", "JUMPDEST", "STOP"])
    for code in (storage_bound_loop(), calldata_exit):
        loops = detect_loops(build_cfg(code))
        assert len(loops) == 1
        assert loops[0].bound is None


def test_loop_header_dominates_body():
    # the last has an `if` in its body: the block after the `if` is reached
    # from the branch and from the block that skips it
    if_in_body = counted_loop(3, ["PUSH1 0", "CALLDATALOAD", "PUSH2 @skip",
                                  "JUMPI", "PUSH1 0", "POP", "skip:", "JUMPDEST"])
    for code in (counted_loop(3), storage_bound_loop(CALL_BODY),
                 DEAD_CALL_INTO_LOOP, if_in_body):
        cfg = build_cfg(code)
        for loop in detect_loops(cfg):
            for block in loop.body:
                assert cfg.dominates(loop.header, block)
    [loop] = detect_loops(build_cfg(if_in_body))
    assert len(loop.body) == 4


def test_loop_has_back_edge():
    cfg = build_cfg(counted_loop())
    for loop in detect_loops(cfg):
        assert any(loop.header in cfg.blocks[b].successors for b in loop.body)


# -- widening ------------------------------------------------------------------


def internal_calls(sites: int) -> bytes:
    """An internal function ``f(x)`` called from ``sites`` places, each with
    its own return address and a different constant argument."""
    program = []
    for site in range(sites):
        program += [f"PUSH2 @r{site}", f"PUSH1 {site + 1}", "PUSH2 @f", "JUMP",
                    f"r{site}:", "JUMPDEST"]
    return assemble(program + ["STOP", "f:", "JUMPDEST", "POP", "JUMP"])


def test_return_addresses_are_never_widened():
    cfg = build_cfg(internal_calls(3))
    f = max(cfg.blocks)
    returns = [bid for bid in cfg.blocks if bid not in (cfg.entry, f)]
    assert cfg.blocks[f].successors == returns
    assert cfg.unresolved_jumps == []
    assert cfg.capped_blocks == set()


def test_a_dropped_context_caps_its_block():
    sites = cfg_module.MAX_VISITS_PER_BLOCK + 1
    cfg = build_cfg(internal_calls(sites))
    f = max(cfg.blocks)
    assert cfg.capped_blocks == {f}
    assert len(cfg.blocks[f].successors) == sites - 1


@pytest.mark.parametrize("bound", [1, 5, 60, 500, 2**255])
def test_counted_loop_steps_do_not_grow_with_its_bound(bound):
    cfg = build_cfg(counted_loop(bound, CALL_BODY))
    assert cfg.steps == build_cfg(counted_loop(5, CALL_BODY)).steps
    assert cfg.capped_blocks == set()
    [loop] = detect_loops(cfg)
    assert loop.bound == bound


def test_a_loop_counter_widens_after_one_pass():
    cfg = build_cfg(counted_loop(5))
    counters = [e.condition[1][3] for e in cfg.jumpi_events]
    assert counters == [("const", 0), cfg_module.WIDENED]


def test_unknown_increment_keeps_the_loop_unbounded():
    code = assemble([
        "PUSH1 0",
        "head:",
        "JUMPDEST",
        "PUSH1 5", "DUP2", "LT", "ISZERO", "PUSH2 @exit", "JUMPI",
        "PUSH1 0", "MLOAD", "ADD",  # i += memory[0], an unknown value
        "PUSH2 @head",
        "JUMP",
        "exit:",
        "JUMPDEST",
        "STOP",
    ])
    cfg = build_cfg(code)
    [loop] = detect_loops(cfg)
    assert loop.bound is None
    assert cfg.capped_blocks == set()


def test_nested_constant_loops_are_both_bounded():
    code = assemble([
        "PUSH1 0",
        "outer:",
        "JUMPDEST",
        "PUSH1 3", "DUP2", "LT", "ISZERO", "PUSH2 @done", "JUMPI",
        "PUSH1 0",
        "inner:",
        "JUMPDEST",
        "PUSH1 4", "DUP2", "LT", "ISZERO", "PUSH2 @next", "JUMPI",
        "PUSH1 1", "ADD", "PUSH2 @inner", "JUMP",
        "next:",
        "JUMPDEST",
        "POP",
        "PUSH1 1", "ADD", "PUSH2 @outer", "JUMP",
        "done:",
        "JUMPDEST",
        "STOP",
    ])
    cfg = build_cfg(code)
    assert [loop.bound for loop in detect_loops(cfg)] == [3, 4]
    assert cfg.capped_blocks == set()


def test_a_jump_to_a_widened_value_is_unresolved():
    cfg = build_cfg(counted_loop(5, after=["JUMP"]))
    exit_block = cfg.blocks[max(cfg.blocks)]
    jump = cfg.disassembly.starts[exit_block.stop - 1]
    assert cfg.unresolved_jumps == [(exit_block.id, jump)]


@pytest.mark.parametrize("program,target", [
    (["PC", "PUSH1 7", "ADD"], 7),  # PC pushes its own pc, 0
    (["PUSH1 0", "ISZERO", "PUSH1 7", "ADD"], 8),
    (["PUSH1 5", "ISZERO", "PUSH1 7", "ADD"], 7),
    (["PUSH1 2", "NOT", "PUSH1 11", "ADD"], 8),  # 2 ** 256 - 3 + 11 wraps
], ids=["pc", "iszero-zero", "iszero-nonzero", "not"])
def test_computed_jump_targets_follow_the_evm(program, target):
    # JUMPDESTs at pcs 7, 8 and 9; the jump reaches the one the EVM would
    size = len(assemble(program + ["JUMP"]))
    code = assemble(program + ["JUMP"] + ["STOP"] * (7 - size)
                    + ["JUMPDEST"] * 3 + ["STOP"])
    cfg = build_cfg(code)
    assert cfg.blocks[0].successors == [target]
    assert cfg.unresolved_jumps == []


def test_not_keeps_the_taint_of_its_operand():
    cfg = build_cfg(assemble(["PUSH1 0", "CALLDATALOAD", "NOT", "PUSH1 @dest",
                              "JUMPI", "STOP", "dest:", "JUMPDEST", "STOP"]))
    assert [e.condition for e in cfg.jumpi_events] == [
        ("taint", frozenset({"CALLDATA"}))]


def test_widened_values_fold_to_widened():
    from soldefect.evm.cfg import WIDENED, _concrete_bool, _step
    from soldefect.evm.opcodes import MNEMONICS
    three = ("const", 3)
    for name in ("ADD", "SUB", "MUL", "DIV", "EXP", "AND", "BYTE"):
        for a, b in ((WIDENED, three), (three, WIDENED), (WIDENED, WIDENED)):
            stack = [b, a]  # a on top
            assert _step(stack, MNEMONICS[name], 0) and stack == [WIDENED]
    stack = [WIDENED]
    _step(stack, MNEMONICS["NOT"], 0)
    assert stack == [WIDENED]
    for name in ("LT", "EQ", "ISZERO"):
        stack = [three, WIDENED]
        _step(stack, MNEMONICS[name], 0)
        assert _concrete_bool(stack[-1]) is None
    balance = ("taint", frozenset({"BALANCE"}))
    stack = [balance, WIDENED]
    _step(stack, MNEMONICS["ADD"], 0)
    assert stack == [balance]


_WORD = 2**256 - 1
_NEG = {v: v & _WORD for v in (-1, -2, -3, -7, -2**255)}  # two's complement


@pytest.mark.parametrize("op,a,b,result", [
    ("ADD", _WORD, 1, 0),
    ("SUB", 1, 2, _WORD),
    ("SUB", 5, 3, 2),
    ("MUL", 2**255, 2, 0),
    ("MUL", 3, 4, 12),
    ("DIV", 7, 2, 3),
    ("DIV", 7, 0, 0),
    ("SDIV", _NEG[-7], 2, _NEG[-3]),  # rounds toward zero
    ("SDIV", 7, _NEG[-2], _NEG[-3]),
    ("SDIV", _NEG[-2**255], _NEG[-1], _NEG[-2**255]),  # the one overflow
    ("SDIV", 5, 0, 0),
    ("MOD", 7, 3, 1),
    ("MOD", 7, 0, 0),
    ("EXP", 2, 255, 2**255),
    ("EXP", 2, 256, 0),
    ("EXP", 3, 0, 1),
    ("EXP", 2**128 + 1, 2, 2**129 + 1),
    ("AND", 0b1100, 0b1010, 0b1000),
    ("OR", 0b1100, 0b1010, 0b1110),
    ("XOR", 0b1100, 0b1010, 0b0110),
    ("BYTE", 31, 0x1234, 0x34),  # byte 0 is the most significant
    ("BYTE", 30, 0x1234, 0x12),
    ("BYTE", 0, 0xAB << 248, 0xAB),
    ("BYTE", 32, _WORD, 0),
    ("BYTE", 2**255, _WORD, 0),
    ("SIGNEXTEND", 0, 0xFF, _WORD),
    ("SIGNEXTEND", 0, 0x17F, 0x7F),
    ("SIGNEXTEND", 30, 1 << 247, _WORD ^ (2**247 - 1)),
    ("SIGNEXTEND", 30, 0xFF << 248 | 1, 1),
    ("SIGNEXTEND", 31, 0xFF << 248, 0xFF << 248),
    ("SIGNEXTEND", 32, 1 << 255, 1 << 255),
])
def test_constant_folds_follow_the_evm(op, a, b, result):
    from soldefect.evm.cfg import _step
    from soldefect.evm.opcodes import MNEMONICS
    stack = [("const", b), ("const", a)]  # a on top: the first operand
    assert _step(stack, MNEMONICS[op], 0)
    assert stack == [("const", result)]


def test_comparisons_keep_leaf_operands():
    # a comparison of comparisons keeps only their taints, and three
    # negations are one, so no value nests deeper than a few levels
    from soldefect.evm.cfg import _step, unwrap_iszero, value_tags
    from soldefect.evm.opcodes import MNEMONICS
    calldata = ("taint", frozenset({"CALLDATA"}))
    stack = [calldata]
    for _ in range(3):
        stack.append(stack[-1])
        _step(stack, MNEMONICS["EQ"], 5)
    assert stack == [("cmp", "EQ", 5, calldata, calldata)]
    stack = [("const", 1), ("widened",)]
    _step(stack, MNEMONICS["LT"], 6)
    _step(stack, MNEMONICS["ISZERO"], 7)
    assert stack == [("iszero", ("cmp", "LT", 6, ("widened",), ("const", 1)))]
    negations = [stack[-1]]
    for _ in range(5):
        _step(stack, MNEMONICS["ISZERO"], 8)
        negations.append(stack[-1])
    assert [value[0] == "iszero" and value[1][0] == "iszero"
            for value in negations] == [False, True] * 3
    assert {unwrap_iszero(value) for value in negations} == {
        ("cmp", "LT", 6, ("widened",), ("const", 1))}
    assert all(value_tags(value) == frozenset() for value in negations)


def test_unread_sources_share_one_context():
    # the five paths' values are all unknown, so `join` and what follows it
    # are explored once, not once per source (46 steps, not 76)
    cfg = build_cfg(UNREAD_SOURCES_MEET)
    assert (cfg.steps, len(cfg.jumpi_events)) == (46, 5)
    assert cfg.capped_blocks == set()
    assert [f.pc for f in bytecode_findings(UNREAD_SOURCES_MEET)
            if f.detector == "strict-balance-equality"] == [64]  # the EQ


def test_a_plain_source_keeps_only_its_arguments_taints():
    from soldefect.evm.cfg import UNKNOWN, _step, value_tags
    from soldefect.evm.opcodes import MNEMONICS
    stack = [("const", 0)]
    _step(stack, MNEMONICS["CALLDATALOAD"], 0)
    _step(stack, MNEMONICS["SLOAD"], 1)
    assert value_tags(stack[-1]) == {"CALLDATA"}
    _step(stack, MNEMONICS["CALLER"], 2)
    assert stack[-1] == UNKNOWN


# -- selectors -----------------------------------------------------------------


def test_dispatcher_selectors_extracted():
    code = dispatcher({0xA9059CBB: "transfer", 0x18160DDD: "totalsupply"})
    cfg = build_cfg(code)
    table = extract_selectors(cfg)
    assert set(table) == {0xA9059CBB, 0x18160DDD}
    # each selector jumps to a distinct JUMPDEST-led block
    targets = set(table.values())
    assert len(targets) == 2
    for target in targets:
        assert block_instructions(cfg, target)[0].mnemonic == "JUMPDEST"


def test_fallback_only_contract_empty_table():
    cfg = build_cfg(assemble(["PUSH1 0", "PUSH1 0", "RETURN"]))
    assert extract_selectors(cfg) == {}


def test_two_function_probe_exactly_two():
    code = dispatcher({0x11111111: "one", 0x22222222: "two"})
    table = extract_selectors(build_cfg(code))
    assert len(table) == 2


def test_dispatcher_blocks_guarded_by_push4_eq():
    # a compiled-style two-function dispatcher has >= 2 JUMPI blocks,
    # each containing a PUSH4/EQ pair
    code = dispatcher({0xA9059CBB: "x", 0x095EA7B3: "y"})
    cfg = build_cfg(code)
    jumpi_blocks = [b for b in cfg.blocks.values() if b.terminator == "jumpi"]
    assert len(jumpi_blocks) >= 2
    for block in jumpi_blocks:
        mnemonics = [i.mnemonic for i in block_instructions(cfg, block.id)]
        assert "PUSH4" in mnemonics and "EQ" in mnemonics


# -- abstract-value properties ---------------------------------------------------


def test_taint_join_never_drops_tags():
    from soldefect.evm.cfg import _join_taints, value_tags
    a = ("taint", frozenset({"BALANCE"}))
    b = ("taint", frozenset({"CALLDATA", "BLOCKINFO"}))
    joined = _join_taints([a, b])
    assert value_tags(a) | value_tags(b) <= value_tags(joined)
    assert value_tags(_join_taints([a, ("unknown",)])) >= value_tags(a)


def test_cmp_values_carry_operand_taints():
    from soldefect.evm.cfg import value_tags
    cmp_value = ("cmp", "EQ", 7, ("taint", frozenset({"BALANCE"})),
                 ("const", 5))
    assert "BALANCE" in value_tags(cmp_value)
    assert "BALANCE" in value_tags(("iszero", cmp_value))


_words = st.one_of(st.integers(0, 2**256 - 1),
                   st.sampled_from([0, 1, 2**255 - 1, 2**255, 2**256 - 1]))


@given(st.sampled_from(["LT", "GT", "SLT", "SGT", "EQ"]), _words, _words)
@example("SLT", 2**256 - 1, 0)  # -1 < 0
@example("SGT", 1, 2**255)  # 1 > -2 ** 255
def test_constant_comparisons_follow_the_evm(op, a, b):
    from soldefect.evm.cfg import _eval_cmp

    def signed(v):
        return v - 2**256 if v >= 2**255 else v
    expected = {"LT": a < b, "GT": a > b, "SLT": signed(a) < signed(b),
                "SGT": signed(a) > signed(b), "EQ": a == b}[op]
    assert _eval_cmp(op, a, b) == expected
