"""Bytecode-mode implementations for the four dual-mode detectors.

Locations are program counters, not lines. The remaining sixteen defects
are source-only: their distinguishing information (names, types,
visibility) does not survive compilation.
"""

from __future__ import annotations

from collections.abc import Iterator

from ..evm.cfg import unwrap_iszero, value_tags
from ..evm.opcodes import MNEMONICS
from .availability import ERC20_MANDATORY, UNMATCHED_ERC20
from .base import AnalysisContext, Hit, register_bytecode
from .maintainability import HARD_CODE_ADDRESS
from .security import NESTED_CALL, STRICT_BALANCE_EQUALITY

_CALL, _PUSH20 = MNEMONICS["CALL"], MNEMONICS["PUSH20"]


@register_bytecode(STRICT_BALANCE_EQUALITY.id)
def detect_strict_balance_equality_bc(ctx: AnalysisContext) -> Iterator[Hit]:
    """BALANCE read by EQ, where the comparison feeds a conditional jump."""
    for event in ctx.bytecode.cfg.jumpi_events:
        cond = unwrap_iszero(event.condition)
        if cond[0] != "cmp" or cond[1] != "EQ":
            continue
        _, _op, eq_pc, a, b = cond
        if "BALANCE" in value_tags(a) or "BALANCE" in value_tags(b):
            yield eq_pc, "BALANCE compared with EQ feeds a conditional jump"


@register_bytecode(NESTED_CALL.id)
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


@register_bytecode(HARD_CODE_ADDRESS.id)
def detect_hard_code_address_bc(ctx: AnalysisContext) -> Iterator[Hit]:
    """PUSH20 of a nonzero constant, not cut short, is an embedded address."""
    dis = ctx.bytecode.instructions
    for pc, value in dis.push_values.items():  # in pc order
        if value and dis.code[pc] == _PUSH20 and not dis.truncated(pc):
            yield pc, f"hard-coded address 0x{dis.code[pc + 1:pc + 21].hex()}"


@register_bytecode(UNMATCHED_ERC20.id)
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
