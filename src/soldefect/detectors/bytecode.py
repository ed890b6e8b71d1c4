"""Bytecode-mode implementations for the four dual-mode detectors, loaded
with the EVM frontend by a run with a bytecode input.

Locations are program counters, not lines. The remaining sixteen defects
are source-only: their distinguishing information (names, types,
visibility) does not survive compilation.
"""

from __future__ import annotations

from collections.abc import Iterator

from ..evm.cfg import unwrap_iszero, value_tags
from ..evm.opcodes import MNEMONICS
from .availability import ERC20_MANDATORY
from .base import AnalysisContext, Hit, register_bytecode

_CALL, _PUSH20 = MNEMONICS["CALL"], bytes([MNEMONICS["PUSH20"]])


@register_bytecode("strict-balance-equality")
def detect_strict_balance_equality_bc(ctx: AnalysisContext) -> Iterator[Hit]:
    """BALANCE read by EQ, where the comparison feeds a conditional jump."""
    for event in ctx.bytecode.cfg.jumpi_events:
        cond = unwrap_iszero(event.condition)
        if cond[0] == "cmp" and cond[1] == "EQ" and (
                "BALANCE" in value_tags(cond[3]) or "BALANCE" in value_tags(cond[4])):
            yield cond[2], "BALANCE compared with EQ feeds a conditional jump"


@register_bytecode("nested-call")
def detect_nested_call_bc(ctx: AnalysisContext) -> Iterator[Hit]:
    """A loop with no constant bound whose body executes CALL."""
    bc = ctx.bytecode
    code, starts = bc.instructions.code, bc.instructions.starts
    for loop in bc.loops:
        if loop.is_bounded:
            continue
        for block_id in sorted(loop.body):
            block = bc.cfg.blocks[block_id]
            call = next((pc for pc in starts[block.start:block.stop]
                         if code[pc] == _CALL), None)
            if call is not None:
                yield (call, f"CALL at {call:#x} inside an unbounded "
                             f"loop headed at block {loop.header:#x}")
                break


@register_bytecode("hard-code-address")
def detect_hard_code_address_bc(ctx: AnalysisContext) -> Iterator[Hit]:
    """PUSH20 of a nonzero constant, not cut short, is an embedded address."""
    dis = ctx.bytecode.instructions
    code, values = dis.code, dis.push_values
    pc = code.find(_PUSH20)
    while pc != -1:  # a PUSH20 byte is a PUSH20 where an instruction starts
        if values.get(pc) and not dis.truncated(pc):
            yield pc, f"hard-coded address 0x{code[pc + 1:pc + 21].hex()}"
        pc = code.find(_PUSH20, pc + 1)


@register_bytecode("unmatched-erc20")
def detect_unmatched_erc20_bc(ctx: AnalysisContext) -> Iterator[Hit]:
    """Dispatcher carries some mandatory ERC-20 selectors but not all six.

    Return types are not visible at this level; only selector presence is
    checked."""
    table = ctx.bytecode.selectors
    missing = sorted(f"{name}({','.join(params)})"
                     for name, params, _r, sel in ERC20_MANDATORY
                     if sel not in table)
    if 0 < len(missing) < len(ERC20_MANDATORY):
        yield 0, ("dispatcher exposes some ERC-20 selectors but is missing "
                  + ", ".join(missing))
