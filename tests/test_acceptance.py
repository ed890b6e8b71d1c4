"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to get one printed
pass line per criterion.
"""

from __future__ import annotations

import json
import os
import random
import time

from soldefect.analyzer import analyze_paths
from soldefect.cli import main
from soldefect.config import RunConfig
from soldefect.corpus import load_manifest, score
from soldefect.evm.cfg import build_cfg
from soldefect.evm.disasm import disassemble
from soldefect.evm.eip55 import checksum_address, is_valid_address
from soldefect.evm.loops import detect_loops
from asm import (CALL_BODY, assemble, block_instructions, counted_loop,
                 dispatcher, instructions, reassemble, storage_bound_loop)
from conftest import (bytecode_findings, findings_for, function_selector,
                      read_listing)
from test_evm_core import brute_force_dominators


def _passed(criterion: str) -> None:
    print(f"ACCEPTANCE PASS: {criterion}")


# -- criterion 1: golden corpus exactness ---------------------------------------

LISTING1_EXPECTED = {
    ("unspecified-compiler-version", 1),
    ("transaction-state-dependency", 8),
    ("hard-code-address", 12),
    ("missing-reminder", 15),
    ("strict-balance-equality", 21),
    ("block-info-dependency", 25),
    ("unchecked-external-calls", 26),
    ("missing-return-statement", 28),
    ("unmatched-type-assignment", 30),
    ("nested-call", 30),
    ("dos-under-external-influence", 33),
    ("hard-code-address", 38),
    ("unchecked-external-calls", 39),
}

LISTING2_EXPECTED = {("reentrancy", 7)}

LISTING3_EXPECTED = {
    ("unspecified-compiler-version", 1),
    ("greedy-contract", 2),
    ("missing-interrupter", 2),
    ("misleading-data-location", 8),
    ("unused-statement", 11),   # parameter value1
    ("unused-statement", 13),   # local newValue
    ("high-gas-function-type", 16),
}


def test_criterion_1_golden_corpus_exactness(corpus_dir):
    started = time.monotonic()

    actual = {name: {(f.detector, f.line)
                     for f in findings_for(read_listing(name))}
              for name in ("listing1.sol", "listing2.sol",
                           "listing3.sol", "listing4.sol")}

    assert actual["listing1.sol"] == LISTING1_EXPECTED
    assert actual["listing2.sol"] == LISTING2_EXPECTED
    assert actual["listing3.sol"] == LISTING3_EXPECTED
    assert actual["listing4.sol"] == set()

    # Listing 1 must NOT produce Missing Interrupter or Greedy Contract
    listing1_detectors = {d for d, _l in actual["listing1.sol"]}
    assert not listing1_detectors & {"missing-interrupter", "greedy-contract"}

    # the L12 hard-coded owner carries the illegal-address sub-diagnosis
    listing1 = findings_for(read_listing("listing1.sol"))
    l12 = next(f for f in listing1
               if f.detector == "hard-code-address" and f.line == 12)
    assert "illegal address" in l12.message
    l38 = next(f for f in listing1
               if f.detector == "hard-code-address" and f.line == 38)
    assert "illegal" not in l38.message

    # precision = recall = 1.0 via score over the shipped manifest
    manifest = load_manifest(os.path.join(corpus_dir, "manifest.txt"))
    config = RunConfig(jobs=1)
    report, _outcomes = analyze_paths([corpus_dir], config)
    card = score(report, manifest)
    assert card.perfect, score.__name__
    assert card.micro.precision == 1.0 and card.micro.recall == 1.0

    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"golden corpus took {elapsed:.3f}s"
    _passed(f"criterion 1 golden corpus exactness "
            f"(precision=recall=1.0, {elapsed * 1000:.0f} ms)")


# -- criterion 2: selector vector -------------------------------------------------

INDEPENDENT_SELECTOR_TABLE = {
    "totalSupply()": "18160ddd",
    "balanceOf(address)": "70a08231",
    "transfer(address,uint256)": "a9059cbb",
    "transferFrom(address,address,uint256)": "23b872dd",
    "approve(address,uint256)": "095ea7b3",
    "allowance(address,address)": "dd62ed3e",
}


def test_criterion_2_selector_vector():
    assert function_selector("transfer(address,uint256)").hex() == "a9059cbb"
    for signature, expected in INDEPENDENT_SELECTOR_TABLE.items():
        assert function_selector(signature).hex() == expected, signature
    _passed("criterion 2 selector vector (a9059cbb and the 6 mandatory "
            "ERC-20 selectors)")


# -- criterion 3: EIP-55 properties ------------------------------------------------


def test_criterion_3_eip55_properties():
    rng = random.Random(0xE1B55)
    checked_flips = 0
    agnostic_flips = 0
    for _ in range(1000):
        body = format(rng.getrandbits(160), "040x")
        canonical = checksum_address(body)
        # idempotence
        assert checksum_address(canonical) == canonical
        # case-agnostic spellings validate
        assert is_valid_address("0x" + body.lower())
        assert is_valid_address("0x" + body.upper())
        # every single-character case flip of the canonical form fails.
        # The one carve-out follows from the criterion itself: when the
        # canonical form has exactly one letter in one case, flipping that
        # letter lands on the all-lower/all-upper spelling whose validity
        # the previous clause requires.
        tail = canonical[2:]
        for i, ch in enumerate(tail):
            if not ch.isalpha():
                continue
            flipped = tail[:i] + ch.swapcase() + tail[i + 1:]
            flipped_letters = [c for c in flipped if c.isalpha()]
            uniform = (all(c.isupper() for c in flipped_letters)
                       or all(c.islower() for c in flipped_letters))
            if uniform:
                assert is_valid_address("0x" + flipped)
                agnostic_flips += 1
            else:
                assert not is_valid_address("0x" + flipped)
                checked_flips += 1
    assert checked_flips > 10_000
    _passed(f"criterion 3 EIP-55 properties (1000 addresses, "
            f"{checked_flips} case flips rejected, {agnostic_flips} flips "
            f"landed on case-agnostic spellings)")


# -- criterion 4: CFG and loop properties -------------------------------------------


def _diamond() -> bytes:
    return assemble([
        "CALLVALUE", "PUSH2 @left", "JUMPI",
        "PUSH1 1", "POP", "PUSH2 @join", "JUMP",
        "left:", "JUMPDEST", "PUSH1 2", "POP", "PUSH2 @join", "JUMP",
        "join:", "JUMPDEST", "STOP",
    ])


def _nested_loops() -> bytes:
    return assemble([
        "PUSH1 0",
        "outer:", "JUMPDEST",
        "PUSH1 3", "DUP2", "LT", "ISZERO", "PUSH2 @end", "JUMPI",
        "PUSH1 0",
        "inner:", "JUMPDEST",
        "PUSH1 2", "DUP2", "LT", "ISZERO", "PUSH2 @inner_end", "JUMPI",
        "PUSH1 1", "ADD", "PUSH2 @inner", "JUMP",
        "inner_end:", "JUMPDEST", "POP",
        "PUSH1 1", "ADD", "PUSH2 @outer", "JUMP",
        "end:", "JUMPDEST", "STOP",
    ])


def _calldata_bound_loop() -> bytes:
    return assemble([
        "PUSH1 0",
        "header:", "JUMPDEST",
        "PUSH1 0", "CALLDATALOAD", "DUP2", "LT", "ISZERO",
        "PUSH2 @exit", "JUMPI",
        "PUSH1 1", "ADD", "PUSH2 @header", "JUMP",
        "exit:", "JUMPDEST", "STOP",
    ])


def _program_suite() -> list[bytes]:
    programs = [
        assemble(["STOP"]),
        assemble(["PUSH1 1", "PUSH1 2", "ADD", "STOP"]),
        assemble(["PUSH1 1", "PUSH1 2", "ADD"]),  # falls off the end
        assemble(["PUSH2 @d", "JUMP", "d:", "JUMPDEST", "STOP"]),
        _diamond(),
        counted_loop(2),
        counted_loop(5),
        counted_loop(255),
        counted_loop(5, CALL_BODY),
        storage_bound_loop(),
        storage_bound_loop(CALL_BODY),
        _calldata_bound_loop(),
        _nested_loops(),
        dispatcher({0xA9059CBB: "a"}),
        dispatcher({0xA9059CBB: "a", 0x18160DDD: "b"}),
        dispatcher({int(sel, 16): f"t{i}" for i, sel in
                    enumerate(INDEPENDENT_SELECTOR_TABLE.values())}),
        assemble(["PUSH1 0", "CALLDATALOAD", "JUMP", "JUMPDEST", "STOP"]),
        assemble(["ADDRESS", "BALANCE", "PUSH1 10", "EQ",
                  "PUSH2 @y", "JUMPI", "STOP", "y:", "JUMPDEST", "STOP"]),
        assemble(["PUSH1 0", "PUSH1 0", "REVERT"]),
        assemble(["CALLER", "SELFDESTRUCT"]),
        bytes([0x61, 0xAA]),          # truncated PUSH2
        bytes([0x1B, 0x00]),          # post-Constantinople opcode -> INVALID
    ]
    assert len(programs) >= 20
    return programs


def test_criterion_4_cfg_and_loop_properties():
    programs = _program_suite()
    for code in programs:
        disassembly = disassemble(code)
        view = instructions(disassembly)
        # byte-exact disassembly round trip
        assert reassemble(view) == code

        cfg = build_cfg(disassembly)
        # block partition: every pc in exactly one block, strictly increasing
        seen_pcs: set[int] = set()
        for block in cfg.blocks.values():
            pcs = [i.pc for i in block_instructions(cfg, block.id)]
            assert pcs == sorted(set(pcs))
            assert not (set(pcs) & seen_pcs)
            seen_pcs.update(pcs)
        assert seen_pcs == {i.pc for i in view}

        # loops equal an independent cycle/dominator enumeration
        loops = detect_loops(cfg)
        oracle_doms = brute_force_dominators(cfg)
        oracle_loops = set()
        for block in cfg.reachable():
            for succ in cfg.blocks[block].successors:
                if succ in oracle_doms.get(block, set()):
                    oracle_loops.add(succ)  # back edge target = loop header
        assert {l.header for l in loops} == oracle_loops
        for loop in loops:
            for member in loop.body:
                assert loop.header in oracle_doms[member]

    # bytecode nested-call: fires on the unbounded CALL loop, silent on the
    # PUSH-bounded one
    unbounded = {f.detector
                 for f in bytecode_findings(storage_bound_loop(CALL_BODY))}
    bounded = {f.detector
               for f in bytecode_findings(counted_loop(5, CALL_BODY))}
    assert "nested-call" in unbounded
    assert "nested-call" not in bounded

    _passed(f"criterion 4 CFG/loop properties on {len(programs)} "
            f"hand-assembled programs")


# -- criterion 5: registry conformance ------------------------------------------------

TABLE4_IMPACTS = {
    "reentrancy": "IP1",
    "transaction-state-dependency": "IP1",
    "dos-under-external-influence": "IP2",
    "strict-balance-equality": "IP2",
    "unmatched-type-assignment": "IP2",
    "nested-call": "IP2",
    "misleading-data-location": "IP2",
    "unchecked-external-calls": "IP3",
    "hard-code-address": "IP3",
    "block-info-dependency": "IP3",
    "greedy-contract": "IP3",
    "unmatched-erc20": "IP4",
    "missing-return-statement": "IP4",
    "missing-interrupter": "IP4",
    "missing-reminder": "IP4",
    "unused-statement": "IP5",
    "high-gas-function-type": "IP5",
    "high-gas-data-type": "IP5",
    "deprecated-apis": "IP5",
    "unspecified-compiler-version": "IP5",
}


def test_criterion_5_registry_conformance(capsys):
    assert main(["detectors", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data) == 20

    categories: dict[str, int] = {}
    for entry in data:
        categories[entry["category"]] = categories.get(entry["category"], 0) + 1
    assert categories == {"security": 9, "availability": 4, "performance": 3,
                          "maintainability": 2, "reusability": 2}

    impacts = {entry["id"]: entry["impact"] for entry in data}
    assert impacts == TABLE4_IMPACTS
    _passed("criterion 5 registry conformance (20 detectors, 9/4/3/2/2, "
            "impact table exact)")


# -- criterion 6: determinism across parallelism ----------------------------------------


def test_criterion_6_determinism(tmp_path):
    from synth import write_corpus
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    files, _lines = write_corpus(corpus, 100)
    assert files == 100

    outputs = []
    for jobs in ("1", "8"):
        out_path = tmp_path / f"report_jobs{jobs}.json"
        main(["analyze", str(corpus), "--format", "json",
              "--jobs", jobs, "--output", str(out_path)])
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1]

    data = json.loads(outputs[0])
    assert len(data["inputs"]) == 100
    assert data["findings"], "synthetic corpus should produce findings"
    _passed(f"criterion 6 determinism (100 files, jobs 1 vs 8, "
            f"{len(outputs[0])} identical bytes)")


# -- criterion 7: throughput at the paper's corpus scale ----------------------------------


def test_criterion_7_throughput(tmp_path):
    from synth import write_corpus
    corpus = tmp_path / "bigcorpus"
    corpus.mkdir()
    files, lines = write_corpus(corpus, 600, functions_per_contract=80)
    assert files == 600
    assert lines >= 225_000, f"corpus too small: {lines} lines"

    config = RunConfig(jobs=min(4, os.cpu_count() or 1))
    started = time.monotonic()
    report, outcomes = analyze_paths([str(corpus)], config)
    elapsed = time.monotonic() - started

    assert all(o.error is None for o in outcomes)
    assert len(report.inputs) == 600
    assert elapsed < 60.0, f"analysis took {elapsed:.1f}s"
    _passed(f"criterion 7 throughput ({lines} lines / {files} files in "
            f"{elapsed:.1f}s with {config.jobs} jobs)")
