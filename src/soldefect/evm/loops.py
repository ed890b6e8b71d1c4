"""Natural-loop detection over the recovered CFG.

A back edge is an edge u->h where h dominates u; the loop body is every
reachable block that reaches u without passing through h. A loop is
classified ``constant(c)`` only when its exit comparison was observed
(during stack emulation) with concrete operands on both sides across
iterations: the operand that stays fixed while the other advances is the
bound. Anything else — storage- or calldata-derived bounds, conditions
that never fold — is ``unbounded``.
"""

from __future__ import annotations

from ..records import record
from .cfg import ControlFlowGraph, JumpiEvent, unwrap_iszero


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
            if a[0] != "const" or b[0] != "const":
                return None  # bound involves storage/calldata/env data
            if (a[1], b[1]) not in pairs:
                pairs.append((a[1], b[1]))

    for pairs in observations.values():
        bound = _stable_operand(pairs)
        if bound is not None:
            return bound
    return None


def _stable_operand(pairs: list[tuple]) -> int | None:
    """The comparison side that stays fixed while the other one advances."""
    if len(pairs) < 2:
        return None
    firsts = {p[0] for p in pairs}
    seconds = {p[1] for p in pairs}
    if len(firsts) == 1 and len(seconds) > 1:
        return next(iter(firsts))
    if len(seconds) == 1 and len(firsts) > 1:
        return next(iter(seconds))
    return None
