"""Linear EVM disassembly over flat arrays.

No record is built per instruction. A `Disassembly` holds the code bytes,
the pc at which each instruction starts, and each PUSH's value, decoded
once; an instruction's opcode is ``code[pc]``. An unknown opcode is
invalid, and so is a PUSH whose data the code ends inside: such a
truncated PUSH can only be the last instruction, and its value is that of
the bytes that are present.
"""

from __future__ import annotations

from ..records import record
from .opcodes import PUSH1, PUSH32


class BytecodeError(ValueError):
    """Malformed bytecode input (e.g. odd-length hex)."""


@record(slots=True)
class Disassembly:
    code: bytes
    starts: list[int]  # the pc of each instruction, ascending
    push_values: dict[int, int]  # pc -> value, for each PUSH

    def __len__(self) -> int:
        return len(self.starts)

    def truncated(self, pc: int) -> bool:
        """Whether the code ends inside the data of the PUSH at ``pc``."""
        op = self.code[pc]
        return PUSH1 <= op <= PUSH32 and pc + op - PUSH1 + 2 > len(self.code)


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


def disassemble(bytecode: bytes | str) -> Disassembly:
    code = decode_bytecode_input(bytecode)
    starts: list[int] = []
    values: dict[int, int] = {}
    append = starts.append
    from_bytes = int.from_bytes
    pc, n = 0, len(code)
    while pc < n:
        append(pc)
        op = code[pc]
        if PUSH1 <= op <= PUSH32:
            end = pc + op - PUSH1 + 2
            values[pc] = from_bytes(code[pc + 1:end], "big")
            pc = end
        else:
            pc += 1
    return Disassembly(code, starts, values)
