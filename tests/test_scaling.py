"""Input shapes that made the semantic facts or a detector rescan what it had
already seen: an input 4 times as large must cost at most 6 times the work.

Work is counted, not timed, so the test does not depend on the host: it is
the number of Python line events (``sys.settrace``) spent building the
semantic facts and running the detectors on a parsed file. A line event
fires on each loop iteration, comprehension bodies included, so a rescan
shows as a count that grows with the square of the input. The transfer
shape cost memory, not time, so it is measured by the tracemalloc peak.
Lexing and parsing are outside the count (see test_lexer.py for the
lexer's one such shape). For bytecode, the count covers disassembly, the
CFG, loops, selectors and the bytecode detectors; nested loops, whose
bodies grow with the square of their count, are measured per body block.
"""

from __future__ import annotations

import sys
import tracemalloc

import pytest

from soldefect.analyzer import build_bytecode_facts, source_facts
from soldefect.config import DetectorConfig
from soldefect.detectors import run_detectors
from soldefect.detectors.base import AnalysisContext
from soldefect.lexer import tokenize
from soldefect.parser import parse

from asm import assemble
from conftest import bytecode_findings
from synth import payable_chain

GROWTH_BOUND = 6  # for 4 times the input; a quadratic cost gives about 16


def _function(lines) -> str:
    return ("contract C {\n    uint x; uint y; address owner;\n"
            "    function f() public {\n        "
            + "\n        ".join(lines) + "\n    }\n}\n")


# name -> (n, text of size n, measured by memory)
SHAPES = {
    # D07 read the state of every earlier guard again for each call
    "call-value": (30, lambda n: _function(
        f"require(x > {i}); msg.sender.call.value({i})();" for i in range(n)), False),
    # ... and scanned every state write for each call
    "call-then-write": (30, lambda n: _function(
        f"require(x > {i}); msg.sender.call.value({i})(); y = {i};"
        for i in range(n)), False),
    # ... and bisected each guarded state name's writes for each call
    "guards-over-many-names": (120, lambda n: _function(
        f"require(v{i} > 0); msg.sender.call.value({i})(); v{i} = 1;"
        for i in range(n)).replace("uint x;", "".join(
            f"uint v{i}; " for i in range(n)) + "uint x;"), False),
    # each statement held a tuple of every earlier require argument
    "transfer": (400, lambda n: _function(
        f"require(x > {i}); owner.transfer({i});" for i in range(n)), True),
    # assignment propagation deduplicated each local's facts by list scans
    "block-number-chain": (100, lambda n: _function(
        ["uint a0 = block.number;"] + [f"uint a{i} = a{i - 1} + block.number;"
                                       for i in range(1, n)]), False),
    # D15 scanned every call edge for each public array-parameter function
    "mutual-calls": (400, lambda n: "contract C {\n" + "\n".join(
        f"    function f{i}(uint[] a) public {{ f{(i + 1) % n}(a); }}"
        for i in range(n)) + "\n}\n", False),
    # each override rebuilt the overload list, signing every overload again
    "overloads": (50, lambda n: "contract C {\n" + "\n".join(
        f"    function f(uint[{i + 1}] a) public {{ }}" for i in range(n))
        + "\n}\n", False),
    # each contract built the file's name -> contract map
    "contracts-without-bases": (150, lambda n: "\n".join(
        f"contract C{i} {{ uint x; }}" for i in range(n)) + "\n", False),
    # ... and each contract that names a base still did
    "contracts-naming-a-base": (150, lambda n: "contract C0 { uint x; }\n"
        + "\n".join(f"contract C{i} is C0 {{ uint y; }}" for i in range(1, n))
        + "\n", False),
    # liveness took one pass over the function's variables per link of a
    # local-to-local copy chain
    "local-copy-chain": (100, lambda n: _function(
        ["uint a0 = x;"] + [f"uint a{i} = a{i - 1};" for i in range(1, n)]
        + [f"y = a{n - 1};"]), False),
    # block info and deprecated calls are found by name, once per file, and
    # each body bisects what was found
    "block-info-and-sha3": (100, lambda n: _function(
        f"y = block.number + {i}; x = uint(sha3({i}));" for i in range(n)), False),
    "one-line-functions": (100, lambda n: "contract C {\n    uint x;\n" + "".join(
        f"    function f{i}() public {{ x = now + {i}; }}\n" for i in range(n))
        + "}\n", False),
}


def _facts_and_findings(parsed) -> None:
    run_detectors(AnalysisContext(source=source_facts(parsed, "shape.sol")))


def _work(text: str, memory: bool) -> int:
    parsed = parse(tokenize(text, "shape.sol"), "shape.sol")
    if memory:
        tracemalloc.start()
        try:
            _facts_and_findings(parsed)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return _line_events(lambda: _facts_and_findings(parsed))


def _line_events(run) -> int:
    lines = 0

    def trace(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(previous)
    return lines


@pytest.mark.parametrize("name", SHAPES)
def test_work_grows_linearly(name):
    n, shape, memory = SHAPES[name]
    small, large = _work(shape(n), memory), _work(shape(4 * n), memory)
    assert large <= GROWTH_BOUND * small, (name, small, large)


def _erc20_check(count: int) -> int:
    """Line events of D10 alone over a chain of ``count`` contracts, the
    facts built before the count starts."""
    text = payable_chain(count)
    facts = source_facts(parse(tokenize(text, "chain.sol"), "chain.sol"),
                         "chain.sol")
    ctx = AnalysisContext(source=facts,
                          config=DetectorConfig(enable={"unmatched-erc20"}))
    return _line_events(lambda: run_detectors(ctx))


def test_erc20_check_grows_linearly_over_an_inheritance_chain():
    # D10 built a map of every inherited function's signature per contract
    # before it looked for any ERC-20 name
    small, large = _erc20_check(25), _erc20_check(100)
    assert large <= GROWTH_BOUND * small, (small, large)


def _self_comparisons(pairs: int) -> bytes:
    """A calldata word compared with itself ``pairs`` times over, each
    result compared with itself again, then used in an addition."""
    return assemble(["PUSH1 0", "CALLDATALOAD"] + ["DUP1", "EQ"] * pairs
                    + ["PUSH1 1", "ADD", "STOP"])


def _bytecode_work(code: bytes) -> int:
    return _line_events(lambda: run_detectors(AnalysisContext(
        bytecode=build_bytecode_facts(code, "shape.hex"))))


def test_comparison_of_comparisons_grows_linearly():
    # a comparison kept its operands whole, so the value was a DAG whose
    # taints were gathered once per path: 2 ** pairs of them
    small, large = _bytecode_work(_self_comparisons(5)), \
        _bytecode_work(_self_comparisons(20))
    assert large <= GROWTH_BOUND * small, (small, large)


def back_edges_into_one_header(n: int) -> bytes:
    """A chain of ``n`` blocks, each with a back edge to the loop header
    at its head: one loop, whose tails all share the header."""
    return assemble(["head:", "JUMPDEST"] + [
        "PUSH1 0", "CALLDATALOAD", "PUSH2 @head", "JUMPI"] * n + ["STOP"])


def nested_loops(n: int) -> bytes:
    """``n`` loops, each nested in the one before: the headers, then the
    innermost loop's tail and each outer loop's after it."""
    program = []
    for k in range(n):
        program += [f"h{k}:", "JUMPDEST"]
    for k in reversed(range(n)):
        program += ["PUSH1 0", "CALLDATALOAD", f"PUSH2 @h{k}", "JUMPI"]
    return assemble(program + ["STOP"])


def test_back_edges_into_one_header_grow_linearly():
    # a dominance test that walked each tail's immediate-dominator chain up
    # to the header would cost the square of the chain's length
    small = _bytecode_work(back_edges_into_one_header(100))
    large = _bytecode_work(back_edges_into_one_header(400))
    assert large <= GROWTH_BOUND * small, (small, large)


def test_nested_loops_cost_what_their_bodies_hold():
    # n nested loops hold about n ** 2 blocks in their bodies together,
    # which the facts keep, so the work cannot grow linearly with n: what
    # it must not do is grow faster than the bodies
    def work_per_body_block(n: int) -> float:
        code = nested_loops(n)
        loops = build_bytecode_facts(code, "shape.hex").loops
        assert len(loops) == n
        return _bytecode_work(code) / sum(len(loop.body) for loop in loops)

    small, large = work_per_body_block(25), work_per_body_block(100)
    assert large <= GROWTH_BOUND / 4 * small, (small, large)


def test_a_long_negation_chain_is_analyzed():
    # each ISZERO wrapped the value below it, one nesting level per
    # instruction, and gathering its taints overflowed the interpreter stack
    code = assemble(["PUSH1 0", "CALLDATALOAD"] + ["ISZERO"] * 3000
                    + ["PUSH1 1", "ADD", "STOP"])
    assert bytecode_findings(code) == []
