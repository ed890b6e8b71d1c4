"""Linear EVM disassembly.

Round-trips exactly: re-serializing the instruction list reproduces the
input bytes, including truncated trailing PUSH data and unknown opcodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .opcodes import OPCODES, is_push, push_width


class BytecodeError(ValueError):
    """Malformed bytecode input (e.g. odd-length hex)."""


@dataclass(slots=True)
class Instruction:
    pc: int
    opcode: int
    mnemonic: str
    push_bytes: bytes = b""
    valid: bool = True  # False for unknown opcodes and truncated pushes

    @property
    def push_value(self) -> int:
        return int.from_bytes(self.push_bytes, "big") if self.push_bytes else 0


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
    pc = 0
    n = len(code)
    while pc < n:
        op = code[pc]
        entry = OPCODES.get(op)
        if entry is None:
            out.append(Instruction(pc, op, "INVALID", valid=False))
            pc += 1
            continue
        mnemonic = entry[0]
        if is_push(op):
            width = push_width(op)
            data = code[pc + 1:pc + 1 + width]
            truncated = len(data) < width
            out.append(Instruction(pc, op, mnemonic, bytes(data),
                                   valid=not truncated))
            pc += 1 + len(data)
        else:
            out.append(Instruction(pc, op, mnemonic))
            pc += 1
    return out


def reassemble(instructions: list[Instruction]) -> bytes:
    out = bytearray()
    for ins in instructions:
        out.append(ins.opcode)
        out += ins.push_bytes
    return bytes(out)
