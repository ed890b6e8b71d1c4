"""Input shapes that made the semantic facts or a detector rescan what it had
already seen: an input 4 times as large must cost at most 6 times the work.

Work is counted, not timed, so the test does not depend on the host: it is
the number of Python line events (``sys.settrace``) spent building the
semantic facts and running the detectors on a parsed file. A line event
fires on each loop iteration, comprehension bodies included, so a rescan
shows as a count that grows with the square of the input. The transfer
shape cost memory, not time, so it is measured by the tracemalloc peak.
Lexing and parsing are outside the count (see test_lexer.py for the
lexer's one such shape).
"""

from __future__ import annotations

import sys
import tracemalloc

import pytest

from soldefect.analyzer import source_facts
from soldefect.detectors import run_detectors
from soldefect.detectors.base import AnalysisContext
from soldefect.lexer import tokenize
from soldefect.parser import parse

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
    lines = 0

    def trace(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        _facts_and_findings(parsed)
    finally:
        sys.settrace(previous)
    return lines


@pytest.mark.parametrize("name", SHAPES)
def test_work_grows_linearly(name):
    n, shape, memory = SHAPES[name]
    small, large = _work(shape(n), memory), _work(shape(4 * n), memory)
    assert large <= GROWTH_BOUND * small, (name, small, large)
