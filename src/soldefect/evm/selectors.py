"""Function-selector extraction from the dispatcher ladder.

Matches only the dispatcher idiom: a comparison of the calldata word
against a <= 4-byte constant guarding a JUMPI, inside the region reached
from the entry by falling through the ladder (jump-taken targets are the
function bodies and are excluded)."""

from __future__ import annotations

from .cfg import ControlFlowGraph, unwrap_iszero, value_tags

SelectorTable = dict[int, int]  # 4-byte selector -> entry block id


def extract_selectors(cfg: ControlFlowGraph) -> SelectorTable:
    region = _dispatcher_region(cfg)
    table: SelectorTable = {}
    for event in cfg.jumpi_events:
        if event.block not in region or event.target is None:
            continue
        cond = unwrap_iszero(event.condition)
        if cond[0] != "cmp" or cond[1] != "EQ":
            continue
        _, _op, _pc, a, b = cond
        selector = _selector_operand(a, b)
        if selector is not None:
            table.setdefault(selector, event.target)
    return table


def _selector_operand(a, b) -> int | None:
    for const, other in ((a, b), (b, a)):
        if (const[0] == "const" and const[1] < (1 << 32)
                and "CALLDATA" in value_tags(other)):
            return const[1]
    return None


def _dispatcher_region(cfg: ControlFlowGraph) -> set[int]:
    """Blocks reachable from the entry without taking a conditional jump."""
    region: set[int] = set()
    node = cfg.entry if cfg.blocks else None
    while node is not None and node not in region:
        region.add(node)
        block = cfg.blocks[node]
        if block.terminator in ("jumpi", "fallthrough"):
            node = cfg.next_block.get(node)
        elif block.terminator == "jump" and len(block.successors) == 1:
            # tolerate one unconditional hop inside the ladder
            node = block.successors[0]
        else:
            node = None
    return region
