"""Linear EVM disassembly over flat arrays.

No record is built per instruction. A `Disassembly` holds the code bytes,
the pc at which each instruction starts, each PUSH's value and where each
basic block ends, all found in one decoding pass; an instruction's opcode
is ``code[pc]``. An unknown opcode is invalid, and so is a PUSH whose data
the code ends inside: such a truncated PUSH can only be the last
instruction, and its value is that of the bytes that are present.
"""

from __future__ import annotations

from ..records import record
from .opcodes import JUMPDEST, PUSH1, PUSH32, TERMINATORS

# opcodes that end a block: before a JUMPDEST, after any other
_BLOCK_ENDS = frozenset(TERMINATORS) | {JUMPDEST}


class BytecodeError(ValueError):
    """Malformed bytecode input (e.g. odd-length hex)."""


@record(slots=True)
class Disassembly:
    code: bytes
    starts: list[int]  # the pc of each instruction, ascending
    push_values: dict[int, int]  # pc -> value, for each PUSH
    # the index one past each basic block's last instruction, ascending: a
    # block ends before a JUMPDEST, after a terminator or invalid opcode,
    # and at the end of the code
    ends: list[int]

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
    ends: list[int] = []
    append = starts.append
    from_bytes = int.from_bytes
    pc, n = 0, len(code)
    first = 0  # index of the open block's first instruction
    while pc < n:
        append(pc)
        op = code[pc]
        if PUSH1 <= op <= PUSH32:
            end = pc + op - PUSH1 + 2
            values[pc] = from_bytes(code[pc + 1:end], "big")
            pc = end
        else:
            pc += 1
            if op in _BLOCK_ENDS:
                i = len(starts)  # one past this instruction
                if op != JUMPDEST:
                    ends.append(i)
                    first = i
                elif i - 1 > first:
                    ends.append(i - 1)
                    first = i - 1
    if first < len(starts):
        ends.append(len(starts))
    return Disassembly(code, starts, values, ends)
