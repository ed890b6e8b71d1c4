"""EVM bytecode analysis: disassembly, CFG recovery, loops, selectors,
Keccak-256 and EIP-55 primitives."""

from .disasm import Instruction, disassemble, reassemble
from .eip55 import AddressError, checksum_address, is_valid_address
from .keccak import function_selector, keccak256, keccak256_hex

__all__ = [
    "Instruction", "disassemble", "reassemble",
    "AddressError", "checksum_address", "is_valid_address",
    "function_selector", "keccak256", "keccak256_hex",
]
