"""The fact index against plain tree walks: same nodes, same subtrees, same
statement order; and each file and body indexed once, however many
contracts inherit it."""

from __future__ import annotations

import glob
import os

import pytest

from soldefect.analyzer import source_facts
from soldefect.detectors import AnalysisContext, run_detectors
from soldefect.detectors.index import FunctionIndex, NodeIndex
from soldefect.nodes import (Block, CallExpression, ForStatement, Identifier,
                             IfStatement, MemberAccess, WhileStatement, walk)
from conftest import CORPUS_DIR, parse_source
from synth import generate_contract_file, payable_chain

LOOPS = """pragma solidity 0.4.25;
contract Loops {
    uint[] xs;
    modifier guarded(uint n) { for (uint i = 0; i < n; i++) { require(xs[i] > 0); } _; }
    function f(uint n) guarded(n) {
        for (uint i = n; i < xs.length; i++)
            for (xs[i] = 0; i < n; i++) { if (i > 2) { xs.push(i); } else return; }
        while (n > 0) { n--; }
    }
}
"""


def _sources():
    for path in sorted(glob.glob(os.path.join(CORPUS_DIR, "*.sol"))):
        with open(path, encoding="utf-8") as fh:
            yield os.path.basename(path), fh.read()
    yield "synth.sol", generate_contract_file(7, 40)
    yield "loops.sol", LOOPS


def _bodies():
    for name, text in _sources():
        for index in source_facts(parse_source(text, name), name).bodies():
            yield f"{name}:{index.fn.name}", index


BODIES = list(_bodies())


def stack_preorder(stmt) -> list:
    """Every statement under stmt, depth-first, as the detectors order them:
    if before else, and a for loop's body before its init statement."""
    out, stack = [], [stmt]
    while stack:
        s = stack.pop()
        out.append(s)
        if isinstance(s, Block):
            stack.extend(reversed(s.statements))
        elif isinstance(s, IfStatement):
            if s.else_branch is not None:
                stack.append(s.else_branch)
            stack.append(s.then_branch)
        elif isinstance(s, (ForStatement, WhileStatement)):
            if isinstance(s, ForStatement) and s.init is not None:
                stack.append(s.init)
            stack.append(s.body)
    return out


def ids(nodes) -> list[int]:
    return [id(n) for n in nodes]


def test_bodies_cover_functions_and_modifiers():
    names = [name for name, _ in BODIES]
    assert "listing1.sol:" in {n[:len("listing1.sol:")] for n in names}
    assert "loops.sol:guarded" in names and "loops.sol:f" in names
    assert len(names) > 40


def test_bodies_are_built_once_per_flavour():
    # every call yields the same indexes: those of each contract's own
    # functions, then its modifiers, that have a body
    for name, text in _sources():
        facts = source_facts(parse_source(text, name), name)
        first = list(facts.bodies())
        assert ids(facts.bodies()) == ids(first)
        assert ids(first) == ids(
            index for cf in facts.contracts for index in facts.indexes(
                cf.contract.functions + cf.contract.modifiers))
        assert [index.fn for index in first] == [
            fn for cf in facts.contracts
            for fn in cf.contract.functions + cf.contract.modifiers
            if fn.body is not None]


@pytest.mark.parametrize("name,index", BODIES, ids=[n for n, _ in BODIES])
def test_index_matches_walk(name, index):
    tree, body = index.tree, index.fn.body
    assert ids(tree.nodes[index.start:index.end]) == ids(walk(body))
    for position in range(index.start, index.end):
        node = tree.nodes[position]
        assert ids(tree.nodes[position:tree.ends[position]]) == ids(walk(node))
    assert ids(st.node for st in index.statements) == ids(stack_preorder(body))
    for types in ((Identifier,), (CallExpression, MemberAccess)):
        assert ids(index.of(*types)) == ids(
            n for n in walk(body) if isinstance(n, types))


def test_statement_ends_and_loop_context():
    index = dict(BODIES)["loops.sol:f"]
    statements = index.statements
    for k, st in enumerate(statements):
        inside = ids(stack_preorder(st.node))
        assert ids(s.node for s in statements[k:st.end]) == inside
    outer, inner = [st for st in statements
                    if isinstance(st.node, ForStatement)]
    assert [loop for loop, _ in index.unbounded_loops] == [outer.node, inner.node]
    assert inner.conditions == (outer.node.condition,)
    init = next(st for st in statements if st.for_init and st.node is inner.node.init)
    assert init.conditions == (outer.node.condition,)


def test_node_index_of_a_whole_contract():
    facts = source_facts(parse_source(LOOPS, "loops.sol"), "loops.sol")
    contract = facts.contracts[0].contract
    tree = facts.tree
    assert ids(tree.nodes) == ids(walk(facts.unit))
    assert ids(tree.within(contract, Identifier)) == ids(
        n for n in walk(contract) if isinstance(n, Identifier))
    call = tree.within(contract, CallExpression)[0]
    assert tree.contains(contract, call) and not tree.contains(call, contract)


def _count_inits(monkeypatch, cls) -> list:
    """A list that grows by one each time a ``cls`` is built."""
    built, init = [], cls.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(cls, "__init__", counted)
    return built


@pytest.mark.parametrize("count", [25, 100])
def test_each_file_and_body_is_indexed_once(monkeypatch, count):
    # every contract of the chain runs every body above it, and def-use,
    # D13 and D18 query them all; yet the file has one tree and each body
    # one index, built with the table of the contract that declares it
    trees = _count_inits(monkeypatch, NodeIndex)
    indexes = _count_inits(monkeypatch, FunctionIndex)
    facts = source_facts(parse_source(payable_chain(count), "chain.sol"),
                         "chain.sol")
    assert run_detectors(AnalysisContext(source=facts))
    assert len(trees) == 1
    assert len(indexes) == len(facts.bodies()) == 2 * count - 1
    declared = {id(index.fn): index for index in facts.bodies()}
    owner = {id(fn): cf for cf in facts.contracts for fn in cf.contract.functions}
    for depth, cf in enumerate(facts.contracts):
        callables = facts.callables(cf)
        assert len(callables) == 2 * depth + 1
        for index in callables:
            assert index is declared[id(index.fn)]
            assert index.table is owner[id(index.fn)].table
    assert len(trees) == 1 and len(indexes) == 2 * count - 1
