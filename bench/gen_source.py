"""Seeded Solidity corpus with a planted-defect ledger.

The function templates copy the shape of the repository's synthetic test
corpus, but live here so that edits to the tests cannot shift the
benchmark's workloads. Each template lists the defects it plants as
(detector id, marker) pairs: the expected line is the first template line
containing the marker. The ledger is therefore written from the template
text alone, never from analyzer output.
"""

from __future__ import annotations

import random

# (template, planted defects)
FUNCTION_TEMPLATES: list[tuple[str, tuple[tuple[str, str], ...]]] = [
    ("""    function pay{i}(address target) {{
        if (this.balance == {n} ether) {{
            target.send({n} ether);
        }}
    }}""", (("strict-balance-equality", "this.balance =="),
            ("unchecked-external-calls", ".send("))),
    ("""    function sweep{i}() {{
        for (var k = 0; k < holders{i}.length; k++) {{
            if (this.balance > 1 ether)
                holders{i}[k].transfer(1 ether);
        }}
    }}""", (("unmatched-type-assignment", "for (var k"),
            ("nested-call", "for (var k"),
            ("dos-under-external-influence", ".transfer("))),
    ("""    function audit{i}(uint a, uint b) returns (uint) {{
        uint tmp = a;
        uint ignored = b;
        require(tx.origin == admin{i});
        return tmp * {n};
    }}""", (("transaction-state-dependency", "tx.origin"),
            ("unused-statement", "uint ignored"))),
    ("""    function draw{i}() {{
        uint pick = uint(block.blockhash(block.number)) % {n};
        holders{i}[pick].send(1 ether);
    }}""", (("block-info-dependency", "block.blockhash"),
            ("unchecked-external-calls", ".send("))),
    ("""    function refund{i}() {{
        uint owed = credit{i}[msg.sender];
        if (owed > 0) {{
            msg.sender.call.value(owed)();
            credit{i}[msg.sender] = 0;
        }}
    }}""", (("reentrancy", ".call.value("),
            ("unchecked-external-calls", ".call.value("))),
    ("""    function store{i}(uint[20] xs) public returns (uint) {{
        return xs[{m}] + {n};
    }}""", (("high-gas-function-type", "function store"),)),
    ("""    function note{i}() payable {{
        tally{i} += msg.value;
    }}""", (("missing-reminder", "function note"),)),
    ("""    function legacy{i}(uint x) {{
        if (x > {n}) {{ throw; }}
        bytes32 h = sha3(x);
        seen{i}[h] = true;
    }}""", (("deprecated-apis", "throw;"),
            ("deprecated-apis", "sha3("))),
    ("""    function resize{i}() {{
        uint[] scratch;
        scratch.push({n});
        sizes{i} = scratch;
    }}""", (("misleading-data-location", "uint[] scratch"),)),
    ("""    function total{i}(uint count) returns (uint) {{
        uint acc = 0;
        for (uint k = 0; k < count; k++) {{ acc += k; }}
        return acc;
    }}""", ()),
    ("""    function ship{i}(address to, uint256 amount) public returns (bool) {{
        balances{i}[to] += amount;
        emit Moved{i}(to, amount);
        return true;
    }}""", ()),
    ("""    function config{i}() {{
        admin{i} = 0x05f400000000000000000000aaaaaaaaaaaaad27;
    }}""", (("hard-code-address", "0x05f4"),)),
]

STATE_TEMPLATES = [
    "    address admin{i};",
    "    address[] holders{i};",
    "    mapping(address => uint) credit{i};",
    "    mapping(bytes32 => bool) seen{i};",
    "    uint tally{i};",
    "    uint[] sizes{i};",
    "    mapping(address => uint256) balances{i};",
]

Expected = set[tuple[str, int]]  # (detector id, line)


def contract_file(file_seed: int, functions: int) -> tuple[str, Expected]:
    """One contract of ``functions`` templated functions, and its ledger."""
    rng = random.Random(file_seed)
    caret = rng.random() < 0.5
    tag = file_seed % 97
    lines = [f"pragma solidity {'^' if caret else ''}0.4.25;",
             f"contract Synth{file_seed} {{"]
    expected: Expected = set()
    if caret:
        expected.add(("unspecified-compiler-version", 1))
    lines += [t.format(i=tag) for t in STATE_TEMPLATES]
    lines.append(f"    event Moved{tag}(address to, uint256 amount);")
    # Deal templates from a shuffled deck holding each one equally often, so
    # that a contract's size and defect mix barely depend on the seed.
    deck = FUNCTION_TEMPLATES * -(-functions // len(FUNCTION_TEMPLATES))
    rng.shuffle(deck)
    for j, (template, planted) in enumerate(deck[:functions]):
        body = template.format(i=tag, n=rng.randint(1, 9), m=rng.randint(0, 19))
        body = body.replace("(", f"_{j}(", 1)  # unique name per contract
        rows = body.split("\n")
        for detector, marker in planted:
            offset = next(k for k, row in enumerate(rows) if marker in row)
            expected.add((detector, len(lines) + 1 + offset))
        lines += rows
    lines.append("}")
    return "\n".join(lines) + "\n", expected
