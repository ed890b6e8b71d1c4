"""EVM opcode table, frozen to the pre-Constantinople instruction set.

Later additions (SHL/SHR/SAR, CREATE2, EXTCODEHASH, CHAINID, PUSH0, ...)
are deliberately absent and disassemble as INVALID-class instructions.
"""

from __future__ import annotations

# opcode -> (mnemonic, stack pops, stack pushes)
OPCODES: dict[int, tuple[str, int, int]] = {
    0x00: ("STOP", 0, 0),
    0x01: ("ADD", 2, 1),
    0x02: ("MUL", 2, 1),
    0x03: ("SUB", 2, 1),
    0x04: ("DIV", 2, 1),
    0x05: ("SDIV", 2, 1),
    0x06: ("MOD", 2, 1),
    0x07: ("SMOD", 2, 1),
    0x08: ("ADDMOD", 3, 1),
    0x09: ("MULMOD", 3, 1),
    0x0A: ("EXP", 2, 1),
    0x0B: ("SIGNEXTEND", 2, 1),
    0x10: ("LT", 2, 1),
    0x11: ("GT", 2, 1),
    0x12: ("SLT", 2, 1),
    0x13: ("SGT", 2, 1),
    0x14: ("EQ", 2, 1),
    0x15: ("ISZERO", 1, 1),
    0x16: ("AND", 2, 1),
    0x17: ("OR", 2, 1),
    0x18: ("XOR", 2, 1),
    0x19: ("NOT", 1, 1),
    0x1A: ("BYTE", 2, 1),
    0x20: ("SHA3", 2, 1),
    0x30: ("ADDRESS", 0, 1),
    0x31: ("BALANCE", 1, 1),
    0x32: ("ORIGIN", 0, 1),
    0x33: ("CALLER", 0, 1),
    0x34: ("CALLVALUE", 0, 1),
    0x35: ("CALLDATALOAD", 1, 1),
    0x36: ("CALLDATASIZE", 0, 1),
    0x37: ("CALLDATACOPY", 3, 0),
    0x38: ("CODESIZE", 0, 1),
    0x39: ("CODECOPY", 3, 0),
    0x3A: ("GASPRICE", 0, 1),
    0x3B: ("EXTCODESIZE", 1, 1),
    0x3C: ("EXTCODECOPY", 4, 0),
    0x3D: ("RETURNDATASIZE", 0, 1),
    0x3E: ("RETURNDATACOPY", 3, 0),
    0x40: ("BLOCKHASH", 1, 1),
    0x41: ("COINBASE", 0, 1),
    0x42: ("TIMESTAMP", 0, 1),
    0x43: ("NUMBER", 0, 1),
    0x44: ("DIFFICULTY", 0, 1),
    0x45: ("GASLIMIT", 0, 1),
    0x50: ("POP", 1, 0),
    0x51: ("MLOAD", 1, 1),
    0x52: ("MSTORE", 2, 0),
    0x53: ("MSTORE8", 2, 0),
    0x54: ("SLOAD", 1, 1),
    0x55: ("SSTORE", 2, 0),
    0x56: ("JUMP", 1, 0),
    0x57: ("JUMPI", 2, 0),
    0x58: ("PC", 0, 1),
    0x59: ("MSIZE", 0, 1),
    0x5A: ("GAS", 0, 1),
    0x5B: ("JUMPDEST", 0, 0),
    0xF0: ("CREATE", 3, 1),
    0xF1: ("CALL", 7, 1),
    0xF2: ("CALLCODE", 7, 1),
    0xF3: ("RETURN", 2, 0),
    0xF4: ("DELEGATECALL", 6, 1),
    0xFA: ("STATICCALL", 6, 1),
    0xFD: ("REVERT", 2, 0),
    0xFE: ("INVALID", 0, 0),
    0xFF: ("SELFDESTRUCT", 1, 0),
}

for _n in range(1, 33):
    OPCODES[0x60 + _n - 1] = (f"PUSH{_n}", 0, 1)
for _n in range(1, 17):
    OPCODES[0x80 + _n - 1] = (f"DUP{_n}", _n, _n + 1)
    OPCODES[0x90 + _n - 1] = (f"SWAP{_n}", _n + 1, _n + 1)
for _n in range(5):
    OPCODES[0xA0 + _n] = (f"LOG{_n}", _n + 2, 0)

PUSH1 = 0x60
PUSH32 = 0x7F
DUP1 = 0x80
DUP16 = 0x8F
SWAP1 = 0x90
SWAP16 = 0x9F
JUMP = 0x56
JUMPI = 0x57
JUMPDEST = 0x5B
POP = 0x50

# opcodes that end a basic block, an unknown one as invalid
TERMINATORS = dict.fromkeys(range(256) - OPCODES.keys(), "invalid") | {
    0x00: "stop",
    0x56: "jump",
    0x57: "jumpi",
    0xF3: "return",
    0xFD: "revert",
    0xFE: "invalid",
    0xFF: "selfdestruct",
}

MNEMONICS = {name: op for op, (name, _, _) in OPCODES.items()}
