"""EVM bytecode analysis: disassembly, CFG recovery, loops, selectors,
Keccak-256 and EIP-55 primitives, one submodule each."""
