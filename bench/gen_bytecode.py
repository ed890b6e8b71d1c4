"""Seeded solc-0.4-style dispatcher bytecode with a planted-defect ledger.

Each contract is a selector ladder over ``selectors`` functions. Every
function body is one of a few shapes; the shapes that plant a bytecode
defect record its program counter as they are assembled, so the ledger is
exact by construction:

    plain         SSTORE of a constant                    (no finding)
    const_loop    constant-bound loop with CALL           (negative for nested-call)
    storage_loop  storage-bound loop with CALL            nested-call at the CALL
    balance_eq    BALANCE == c guarding a JUMPI           strict-balance-equality at EQ
    address       PUSH20 of a nonzero literal             hard-code-address at PUSH20
    fn_pointer    JUMP to a target read from storage      (an unresolved jump)

A contract carries none, some or all six mandatory ERC-20 selectors;
exactly the partial sets make unmatched-erc20 fire (at pc 0).

Opcodes are spelled here rather than taken from the analyzer, so a defect
in its opcode table cannot hide in the ledger.
"""

from __future__ import annotations

import random

OPS = {
    "STOP": 0x00, "ADD": 0x01, "DIV": 0x04, "LT": 0x10, "EQ": 0x14,
    "ISZERO": 0x15, "AND": 0x16, "ADDRESS": 0x30, "BALANCE": 0x31,
    "CALLDATALOAD": 0x35, "CALLDATASIZE": 0x36, "POP": 0x50, "MSTORE": 0x52,
    "SLOAD": 0x54, "SSTORE": 0x55, "JUMP": 0x56, "JUMPI": 0x57,
    "JUMPDEST": 0x5B, "DUP1": 0x80, "DUP2": 0x81, "SWAP1": 0x90,
    "CALL": 0xF1, "REVERT": 0xFD,
}

# transfer, approve, transferFrom, totalSupply, balanceOf, allowance
ERC20_SELECTORS = (0xA9059CBB, 0x095EA7B3, 0x23B872DD, 0x18160DDD,
                   0x70A08231, 0xDD62ED3E)

BODY_WEIGHTS = (("plain", 4), ("const_loop", 2), ("storage_loop", 2),
                ("balance_eq", 2), ("address", 2), ("fn_pointer", 1))

Expected = set[tuple[str, int]]  # (detector id, pc)


class _Assembler:
    """Two-pass assembly: labels are resolved when ``assemble`` runs."""

    def __init__(self) -> None:
        self.items: list = []  # ("op", name) | ("push", width, value|label) | ("label", name)
        self.marks: list[tuple[str, int]] = []  # (detector, item index)

    def op(self, *names: str) -> None:
        self.items += [("op", n) for n in names]

    def push(self, width: int, value) -> None:
        self.items.append(("push", width, value))

    def label(self, name: str) -> None:
        self.items.append(("label", name))

    def mark(self, detector: str) -> None:
        """The next item emitted carries a planted finding for ``detector``."""
        self.marks.append((detector, len(self.items)))

    def assemble(self) -> tuple[bytes, Expected]:
        pcs, labels, pc = [], {}, 0
        for item in self.items:
            pcs.append(pc)
            if item[0] == "label":
                labels[item[1]] = pc
            else:
                pc += 1 + (item[1] if item[0] == "push" else 0)
        out = bytearray()
        for item in self.items:
            if item[0] == "op":
                out.append(OPS[item[1]])
            elif item[0] == "push":
                width, value = item[1], item[2]
                value = labels[value] if isinstance(value, str) else value
                out.append(0x5F + width)
                out += value.to_bytes(width, "big")
        return bytes(out), {(d, pcs[index]) for d, index in self.marks}


def _call(asm: _Assembler, planted: str | None = None) -> None:
    for _ in range(7):
        asm.push(1, 0)
    if planted:
        asm.mark(planted)
    asm.op("CALL", "POP")


def _body(asm: _Assembler, kind: str, name: str, rng: random.Random) -> None:
    asm.label(name)
    asm.op("JUMPDEST")
    if kind == "plain":
        asm.push(2, rng.randrange(1 << 16))
        asm.push(1, rng.randrange(256))
        asm.op("SSTORE")
    elif kind in ("const_loop", "storage_loop"):
        asm.push(1, 0)
        asm.label(name + "_head")
        asm.op("JUMPDEST")
        if kind == "const_loop":
            asm.push(1, rng.randint(5, 60))
        else:
            asm.push(1, rng.randrange(256))
            asm.op("SLOAD")
        asm.op("DUP2", "LT", "ISZERO")
        asm.push(2, name + "_exit")
        asm.op("JUMPI")
        _call(asm, "nested-call" if kind == "storage_loop" else None)
        asm.push(1, 1)
        asm.op("ADD")
        asm.push(2, name + "_head")
        asm.op("JUMP")
        asm.label(name + "_exit")
        asm.op("JUMPDEST", "POP")
    elif kind == "balance_eq":
        asm.op("ADDRESS", "BALANCE")
        asm.push(2, rng.randrange(1, 1 << 16))
        asm.mark("strict-balance-equality")
        asm.op("EQ")
        asm.push(2, name + "_skip")
        asm.op("JUMPI")
        _call(asm)
        asm.label(name + "_skip")
        asm.op("JUMPDEST")
    elif kind == "address":
        asm.mark("hard-code-address")
        asm.push(20, rng.randrange(1, 1 << 160))
        asm.push(1, rng.randrange(256))
        asm.op("SSTORE")
    elif kind == "fn_pointer":
        asm.push(1, rng.randrange(256))
        asm.op("SLOAD", "JUMP")
        return
    else:
        raise ValueError(kind)
    asm.op("STOP")


def dispatcher_contract(file_seed: int, selectors: int) -> tuple[bytes, Expected]:
    """Assemble one contract with ``selectors`` functions, and its ledger."""
    rng = random.Random(file_seed)
    erc20 = rng.choice((0, 0, rng.randint(1, 5), 6))
    table = set(rng.sample(ERC20_SELECTORS, erc20))
    while len(table) < selectors:
        candidate = rng.randrange(1, 1 << 32)
        if candidate not in ERC20_SELECTORS:
            table.add(candidate)
    order = sorted(table)
    rng.shuffle(order)

    asm = _Assembler()
    asm.push(1, 0x60)
    asm.push(1, 0x40)
    asm.op("MSTORE")
    asm.push(1, 4)
    asm.op("CALLDATASIZE", "LT")
    asm.push(2, "fallback")
    asm.op("JUMPI")
    asm.push(1, 0)
    asm.op("CALLDATALOAD")
    asm.push(29, 1 << 224)
    asm.op("SWAP1", "DIV")
    asm.push(4, 0xFFFFFFFF)
    asm.op("AND")
    for k, selector in enumerate(order):
        asm.op("DUP1")
        asm.push(4, selector)
        asm.op("EQ")
        asm.push(2, f"f{k}")
        asm.op("JUMPI")
    asm.label("fallback")
    asm.op("JUMPDEST")
    asm.push(1, 0)
    asm.op("DUP1", "REVERT")
    # Deal body shapes from a shuffled deck that holds each one in its fixed
    # share, so that a contract's analysis cost barely depends on the seed.
    deck = [kind for kind, weight in BODY_WEIGHTS for _ in range(weight)]
    deck *= -(-len(order) // len(deck))
    rng.shuffle(deck)
    for k, kind in enumerate(deck[:len(order)]):
        _body(asm, kind, f"f{k}", rng)
    code, expected = asm.assemble()
    if 0 < erc20 < 6:
        expected.add(("unmatched-erc20", 0))
    return code, expected
