"""EVM bytecode analysis: disassembly, CFG recovery, loops and selectors,
one submodule each. Loaded only by a run with a bytecode input."""
