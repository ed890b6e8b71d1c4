"""Linear EVM disassembly.

Round-trips exactly: re-serializing the instruction list reproduces the
input bytes, including truncated trailing PUSH data and unknown opcodes.
"""

from __future__ import annotations

from ..records import record
from .opcodes import OPCODES, PUSH1, PUSH32


class BytecodeError(ValueError):
    """Malformed bytecode input (e.g. odd-length hex)."""


@record(slots=True)
class Instruction:
    pc: int
    opcode: int
    mnemonic: str
    push_bytes: bytes = b""
    valid: bool = True  # False for unknown opcodes and truncated pushes
    push_value: int = 0  # push_bytes as a big-endian integer


def decode_bytecode_input(data: bytes | str) -> bytes:
    """Accept raw bytes or (possibly 0x-prefixed, whitespace-padded) hex."""
    if isinstance(data, (bytes, bytearray)):
        return bytes(data)
    text = data.strip()
    if text[:2].lower() == "0x":
        text = text[2:]
    text = "".join(text.split())
    if len(text) % 2 != 0:
        raise BytecodeError("odd-length hex bytecode")
    try:
        return bytes.fromhex(text)
    except ValueError as exc:
        raise BytecodeError(f"invalid hex bytecode: {exc}") from exc


def disassemble(bytecode: bytes | str) -> list[Instruction]:
    code = decode_bytecode_input(bytecode)
    out: list[Instruction] = []
    append = out.append
    pc = 0
    n = len(code)
    while pc < n:
        op = code[pc]
        entry = OPCODES.get(op)
        if entry is None:
            append(Instruction(pc, op, "INVALID", valid=False))
            pc += 1
        elif PUSH1 <= op <= PUSH32:
            end = pc + 2 + op - PUSH1
            data = code[pc + 1:end]
            append(Instruction(pc, op, entry[0], data, end <= n,
                               int.from_bytes(data, "big")))
            pc = end
        else:
            append(Instruction(pc, op, entry[0]))
            pc += 1
    return out


def reassemble(instructions: list[Instruction]) -> bytes:
    out = bytearray()
    for ins in instructions:
        out.append(ins.opcode)
        out += ins.push_bytes
    return bytes(out)
