"""A tiny two-pass EVM assembler for test fixtures.

Program lines:
    "label:"            define a label at the current pc
    "PUSH1 0x05"        push with a literal (hex or decimal)
    "PUSH2 @label"      push a label's pc (width must fit)
    "ADD"               any other mnemonic

Labels keep the hand-written control-flow programs readable; PUSH widths
are explicit so the emitted bytes are exactly what the test says.

It also holds what the tests read of a disassembly: `instructions`, a
record view of the flat arrays, and `reassemble`, its inverse. The
record-by-record decoder and block splitter that the flat layout replaced
are kept as `reference_disassemble` and `reference_split_blocks`, the
oracle that the flat arrays are checked against.
"""

from __future__ import annotations

from collections import namedtuple

from soldefect.evm.opcodes import (MNEMONICS, OPCODES, PUSH1, PUSH32,
                                   TERMINATORS)

# one instruction as the tests read it
Instruction = namedtuple("Instruction", "pc opcode mnemonic push_bytes valid")


def push_width(opcode: int) -> int:
    return opcode - PUSH1 + 1 if PUSH1 <= opcode <= PUSH32 else 0


def instructions(disassembly) -> list[Instruction]:
    """The record view of a `Disassembly`: an unknown opcode reads as
    INVALID, and a PUSH that the code ends inside as not valid."""
    code = disassembly.code
    out = []
    for pc in disassembly.starts:
        op = code[pc]
        entry = OPCODES.get(op)
        data = code[pc + 1:pc + 1 + push_width(op)]
        valid = entry is not None and len(data) == push_width(op)
        out.append(Instruction(pc, op, entry[0] if entry else "INVALID", data,
                               valid))
    return out


def block_instructions(cfg, block_id: int) -> list[Instruction]:
    """The record view of one block of a CFG."""
    block = cfg.blocks[block_id]
    return instructions(cfg.disassembly)[block.start:block.stop]


def reassemble(view: list[Instruction]) -> bytes:
    out = bytearray()
    for ins in view:
        out.append(ins.opcode)
        out += ins.push_bytes
    return bytes(out)


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


def reference_disassemble(code: bytes) -> list[tuple]:
    """The record-by-record decoder: (pc, opcode, push_bytes, valid,
    push_value) per instruction."""
    out = []
    pc = 0
    while pc < len(code):
        op = code[pc]
        if op not in OPCODES:
            out.append((pc, op, b"", False, 0))
            pc += 1
        elif PUSH1 <= op <= PUSH32:
            end = pc + 2 + op - PUSH1
            data = code[pc + 1:end]
            out.append((pc, op, data, end <= len(code),
                        int.from_bytes(data, "big")))
            pc = end
        else:
            out.append((pc, op, b"", True, 0))
            pc += 1
    return out


def reference_split_blocks(records: list[tuple]) -> list[tuple]:
    """Blocks of `reference_disassemble` records, split at JUMPDESTs and
    after terminators and invalid instructions: (id, pcs, terminator)."""
    blocks = []
    current: list[int] = []
    for pc, op, _data, valid, _value in records:
        if op == MNEMONICS["JUMPDEST"] and current:
            blocks.append((current[0], current, "fallthrough"))
            current = []
        current.append(pc)
        if not valid or op in TERMINATORS:
            blocks.append((current[0], current,
                           TERMINATORS[op] if valid else "invalid"))
            current = []
    if current:
        blocks.append((current[0], current, "fallthrough"))
    return blocks


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

def counted_loop(bound: int = 5, body: list[str] | None = None,
                 after: list[str] | None = None) -> bytes:
    """for (i = 0; i < bound; i++) { body } after, with i left on the stack
    (``after`` is a STOP unless given)"""
    return assemble([
        "PUSH1 0",
        "header:",
        "JUMPDEST",
        f"PUSH{max(1, (bound.bit_length() + 7) // 8)} {bound}",
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
        *(after or ["STOP"]),
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

# five paths, chosen by calldata, leave CALLER, ORIGIN, TIMESTAMP, CALLVALUE
# and SLOAD(4) on the stack and meet at `join`, where
# if (address(this).balance == 7) { ... } follows; none of the five values
# is a taint that a detector reads, so the five stacks share one context
UNREAD_SOURCES_MEET = assemble([
    "PUSH1 0x00", "CALLDATALOAD", "PUSH2 @caller", "JUMPI",
    "PUSH1 0x20", "CALLDATALOAD", "PUSH2 @origin", "JUMPI",
    "PUSH1 0x40", "CALLDATALOAD", "PUSH2 @timestamp", "JUMPI",
    "PUSH1 0x60", "CALLDATALOAD", "PUSH2 @callvalue", "JUMPI",
    "PUSH1 4", "SLOAD", "PUSH2 @join", "JUMP",
    "caller:", "JUMPDEST", "CALLER", "PUSH2 @join", "JUMP",
    "origin:", "JUMPDEST", "ORIGIN", "PUSH2 @join", "JUMP",
    "timestamp:", "JUMPDEST", "TIMESTAMP", "PUSH2 @join", "JUMP",
    "callvalue:", "JUMPDEST", "CALLVALUE", "PUSH2 @join", "JUMP",
    "join:",
    "JUMPDEST",
    "ADDRESS",
    "BALANCE",
    "PUSH1 7",
    "EQ",
    "PUSH2 @yes",
    "JUMPI",
    "STOP",
    "yes:",
    "JUMPDEST",
    "STOP",
])
