"""Deterministic synthetic .sol corpus generator for scale tests."""

from __future__ import annotations

import random

_FUNCTION_TEMPLATES = [
    """    function pay{i}(address target) {{
        if (this.balance == {n} ether) {{
            target.send({n} ether);
        }}
    }}""",
    """    function sweep{i}() {{
        for (var k = 0; k < holders{i}.length; k++) {{
            if (this.balance > 1 ether)
                holders{i}[k].transfer(1 ether);
        }}
    }}""",
    """    function audit{i}(uint a, uint b) returns (uint) {{
        uint tmp = a;
        uint ignored = b;
        require(tx.origin == admin{i});
        return tmp * {n};
    }}""",
    """    function draw{i}() {{
        uint pick = uint(block.blockhash(block.number)) % {n};
        holders{i}[pick].send(1 ether);
    }}""",
    """    function refund{i}() {{
        uint owed = credit{i}[msg.sender];
        if (owed > 0) {{
            msg.sender.call.value(owed)();
            credit{i}[msg.sender] = 0;
        }}
    }}""",
    """    function store{i}(uint[20] xs) public returns (uint) {{
        return xs[{m}] + {n};
    }}""",
    """    function note{i}() payable {{
        tally{i} += msg.value;
    }}""",
    """    function legacy{i}(uint x) {{
        if (x > {n}) {{ throw; }}
        bytes32 h = sha3(x);
        seen{i}[h] = true;
    }}""",
    """    function resize{i}() {{
        uint[] scratch;
        scratch.push({n});
        sizes{i} = scratch;
    }}""",
    """    function total{i}(uint count) returns (uint) {{
        uint acc = 0;
        for (uint k = 0; k < count; k++) {{ acc += k; }}
        return acc;
    }}""",
    """    function ship{i}(address to, uint256 amount) public returns (bool) {{
        balances{i}[to] += amount;
        emit Moved{i}(to, amount);
        return true;
    }}""",
    """    function config{i}() {{
        admin{i} = 0x05f400000000000000000000aaaaaaaaaaaaad27;
    }}""",
]

_STATE_TEMPLATES = [
    "    address admin{i};",
    "    address[] holders{i};",
    "    mapping(address => uint) credit{i};",
    "    mapping(bytes32 => bool) seen{i};",
    "    uint tally{i};",
    "    uint[] sizes{i};",
    "    mapping(address => uint256) balances{i};",
]


def generate_contract_file(seed: int, functions_per_contract: int = 14) -> str:
    rng = random.Random(seed)
    exact = rng.random() < 0.5
    version = "0.4.25" if exact else "^0.4.25"
    lines = [f"pragma solidity {version};", f"contract Synth{seed} {{"]
    for template in _STATE_TEMPLATES:
        lines.append(template.format(i=seed % 97))
    lines.append(f"    event Moved{seed % 97}(address to, uint256 amount);")
    for j in range(functions_per_contract):
        template = rng.choice(_FUNCTION_TEMPLATES)
        body = template.format(i=seed % 97, n=rng.randint(1, 9),
                               m=rng.randint(0, 19))
        # make each function name unique within the contract
        body = body.replace("(", f"_{j}(", 1)
        lines.append(body)
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_corpus(directory, count: int, functions_per_contract: int = 14,
                 seed: int = 7) -> tuple[int, int]:
    """Write `count` files; returns (files, total source lines)."""
    total_lines = 0
    for index in range(count):
        text = generate_contract_file(seed * 10_000 + index,
                                      functions_per_contract)
        path = directory / f"synth_{index:04d}.sol"
        path.write_text(text)
        total_lines += text.count("\n")
    return count, total_lines


def payable_chain(count: int) -> str:
    """``count`` contracts, each inheriting the one before: every one takes
    ether through its own payable function, and only the first can send it
    out. Each derived contract reaches every body above it."""
    lines = ["pragma solidity 0.4.25;", "contract C0 {", "    address owner;",
             "    function withdraw() public { owner.transfer(this.balance); }",
             "}"]
    for i in range(1, count):
        lines += [f"contract C{i} is C{i - 1} {{", f"    uint s{i};",
                  f"    function pay{i}() payable {{ s{i} += msg.value; }}",
                  f"    function get{i}() view returns (uint) {{ return s{i}; }}",
                  "}"]
    return "\n".join(lines) + "\n"
