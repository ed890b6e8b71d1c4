"""Natural-loop detection over the recovered CFG.

A back edge is an edge u->h where h dominates u; the loop body is every
reachable block that reaches u without passing through h. A loop is
classified ``constant(c)`` only when the stack emulation saw its exit
comparison with an untainted integer on both sides, one of them the same
constant ``c`` every time and the other a constant on the first pass and
``WIDENED`` once the emulator joined the passes: ``c`` is the bound.
Anything else — storage- or calldata-derived bounds, an unknown operand,
conditions that never fold — is ``unbounded``.
"""

from __future__ import annotations

from ..records import record
from .cfg import INTEGERS, ControlFlowGraph, JumpiEvent, unwrap_iszero


@record
class Loop:
    header: int
    body: frozenset[int]  # includes the header
    bound: int | None  # None = unbounded

    @property
    def is_bounded(self) -> bool:
        return self.bound is not None


def detect_loops(cfg: ControlFlowGraph) -> list[Loop]:
    loops: list[Loop] = []
    seen_headers: dict[int, set[int]] = {}
    for bid in cfg.dominators:  # the reachable blocks
        for succ in cfg.blocks[bid].successors:
            if cfg.dominates(succ, bid):
                seen_headers.setdefault(succ, set()).add(bid)
    events_at: dict[int, list[JumpiEvent]] = {}  # JUMPI pc -> its executions
    for event in cfg.jumpi_events:
        events_at.setdefault(event.pc, []).append(event)
    for header in sorted(seen_headers):
        body = _natural_loop_body(cfg, header, seen_headers[header])
        bound = _classify_bound(cfg, body, events_at)
        loops.append(Loop(header, frozenset(body), bound))
    return loops


def _natural_loop_body(cfg: ControlFlowGraph, header: int,
                       tails: set[int]) -> set[int]:
    body = {header}
    stack = [t for t in tails if t != header]
    while stack:
        node = stack.pop()
        if node in body:
            continue
        body.add(node)
        stack.extend(p for p in cfg.predecessors[node]
                     if p in cfg.dominators and p not in body)
    return body


def _classify_bound(cfg: ControlFlowGraph, body: set[int],
                    events_at: dict[int, list[JumpiEvent]]) -> int | None:
    starts = cfg.disassembly.starts
    exit_pcs = {starts[block.stop - 1] for block in map(cfg.blocks.get, body)
                if block.terminator == "jumpi"
                and any(succ not in body for succ in block.successors)}

    observations: dict[int, list[tuple]] = {pc: [] for pc in sorted(exit_pcs)}
    for pc, pairs in observations.items():
        for event in events_at.get(pc, ()):
            cond = unwrap_iszero(event.condition)
            if cond[0] != "cmp":
                return None
            _, _op, _pc, a, b = cond
            if a[0] not in INTEGERS or b[0] not in INTEGERS:
                return None  # bound involves storage/calldata/env data
            if (a, b) not in pairs:
                pairs.append((a, b))

    for pairs in observations.values():
        bound = _stable_operand(pairs)
        if bound is not None:
            return bound
    return None


def _stable_operand(pairs: list[tuple]) -> int | None:
    """The comparison side that is the same constant in every event, while
    the other side is a constant in some events and widened in others."""
    for fixed, moving in ((0, 1), (1, 0)):
        bounds = {p[fixed] for p in pairs}
        counters = {p[moving][0] for p in pairs}
        if len(bounds) == 1 and len(counters) == 2:
            (bound,) = bounds
            if bound[0] == "const":
                return bound[1]
    return None
