"""A tiny two-pass EVM assembler for test fixtures.

Program lines:
    "label:"            define a label at the current pc
    "PUSH1 0x05"        push with a literal (hex or decimal)
    "PUSH2 @label"      push a label's pc (width must fit)
    "ADD"               any other mnemonic

Labels keep the hand-written control-flow programs readable; PUSH widths
are explicit so the emitted bytes are exactly what the test says.
"""

from __future__ import annotations

from soldefect.evm.opcodes import MNEMONICS, push_width


def assemble(program: list[str]) -> bytes:
    # pass 1: label pcs
    labels: dict[str, int] = {}
    pc = 0
    for line in _clean(program):
        if line.endswith(":"):
            labels[line[:-1]] = pc
            continue
        pc += _size(line)
    # pass 2: emit
    out = bytearray()
    for line in _clean(program):
        if line.endswith(":"):
            continue
        parts = line.split()
        mnemonic = parts[0]
        opcode = MNEMONICS[mnemonic]
        out.append(opcode)
        width = push_width(opcode)
        if width:
            arg = parts[1]
            value = labels[arg[1:]] if arg.startswith("@") else int(arg, 0)
            out += value.to_bytes(width, "big")
    return bytes(out)


def _clean(program: list[str]) -> list[str]:
    lines = []
    for raw in program:
        line = raw.split(";")[0].strip()
        if line:
            lines.append(line)
    return lines


def _size(line: str) -> int:
    mnemonic = line.split()[0]
    return 1 + push_width(MNEMONICS[mnemonic])


# Canonical fixtures reused across the CFG/loop/detector tests.

def counted_loop(bound: int = 5, body: list[str] | None = None) -> bytes:
    """for (i = 0; i < bound; i++) { body }"""
    return assemble([
        "PUSH1 0",
        "header:",
        "JUMPDEST",
        f"PUSH1 {bound}",
        "DUP2",
        "LT",
        "ISZERO",
        "PUSH2 @exit",
        "JUMPI",
        *(body or []),
        "PUSH1 1",
        "ADD",
        "PUSH2 @header",
        "JUMP",
        "exit:",
        "JUMPDEST",
        "STOP",
    ])


def storage_bound_loop(body: list[str] | None = None) -> bytes:
    """for (i = 0; i < storage[0]; i++) { body }"""
    return assemble([
        "PUSH1 0",
        "header:",
        "JUMPDEST",
        "PUSH1 0",
        "SLOAD",
        "DUP2",
        "LT",
        "ISZERO",
        "PUSH2 @exit",
        "JUMPI",
        *(body or []),
        "PUSH1 1",
        "ADD",
        "PUSH2 @header",
        "JUMP",
        "exit:",
        "JUMPDEST",
        "STOP",
    ])


CALL_BODY = [
    "PUSH1 0", "PUSH1 0", "PUSH1 0", "PUSH1 0",
    "PUSH1 0", "PUSH1 0", "PUSH1 0",
    "CALL",
    "POP",
]

# a storage-bound loop whose latch block is also the fallthrough of a CALL
# block that nothing reaches: the dead block is not part of the loop
DEAD_CALL_INTO_LOOP = assemble([
    "PUSH1 0",
    "head:",
    "JUMPDEST",
    "PUSH1 0",
    "SLOAD",
    "DUP2",
    "LT",
    "ISZERO",
    "PUSH2 @exit",
    "JUMPI",
    "PUSH1 1",
    "ADD",
    "PUSH2 @tail",
    "JUMP",
    *CALL_BODY,  # unreachable: it follows a JUMP and no jump targets it
    "tail:",
    "JUMPDEST",
    "PUSH2 @head",
    "JUMP",
    "exit:",
    "JUMPDEST",
    "STOP",
])


# 1,025 pushes overflow the EVM's 1,024-slot stack at the last one, so the
# jump after them must never be taken. The pushes and the jump share a
# block: a block that starts with a JUMPDEST already halted the old check.
STACK_OVERFLOW = assemble([
    *["PUSH1 0"] * 1025,
    "POP",
    "PUSH2 @t",
    "JUMP",
    "t:",
    "JUMPDEST",
    "STOP",
])


# constant jumps to a block that does not start with a JUMPDEST, which the
# EVM rejects: JUMP to pc 3 and JUMPI to pc 6 both name a STOP
JUMP_TO_STOP = assemble(["PUSH1 3", "JUMP", "STOP"])
JUMPI_TO_STOP = assemble(["PUSH1 1", "PUSH1 6", "JUMPI", "STOP", "STOP"])


def dispatcher(selector_targets: dict[int, str],
               bodies: list[str] | None = None) -> bytes:
    """A solc-0.4-style selector ladder:

    selector = calldataload(0) / 2**224 & 0xffffffff, then a chain of
    DUP1; PUSH4 sel; EQ; PUSH2 @target; JUMPI comparisons.
    """
    program: list[str] = [
        "PUSH1 0",
        "CALLDATALOAD",
        "PUSH29 0x0100000000000000000000000000000000000000000000000000000000",
        "SWAP1",
        "DIV",
        "PUSH4 0xffffffff",
        "AND",
    ]
    for selector, label in selector_targets.items():
        program += [
            "DUP1",
            f"PUSH4 {selector:#x}",
            "EQ",
            f"PUSH2 @{label}",
            "JUMPI",
        ]
    program += ["STOP"]
    for label in selector_targets.values():
        program += [f"{label}:", "JUMPDEST", *(bodies or []), "STOP"]
    return assemble(program)


# if (address(this).balance == 10) { ... }
BALANCE_EQ = assemble([
    "ADDRESS",
    "BALANCE",
    "PUSH1 10",
    "EQ",
    "PUSH2 @yes",
    "JUMPI",
    "STOP",
    "yes:",
    "JUMPDEST",
    "STOP",
])

# a hard-coded nonzero address literal
PUSH20_LITERAL = assemble([
    "PUSH20 0x05f400000000000000000000aaaaaaaaaaaaad27",
    "POP",
    "STOP",
])
