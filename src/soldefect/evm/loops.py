"""Natural-loop detection over the recovered CFG.

A back edge is an edge u->h where h dominates u; the loop body is every
reachable block that reaches u without passing through h. A dominator
precedes what it dominates in ``cfg.dominators``, so only an edge that
does not go forward there is tested, by a walk up u's idom chain whose
answers each header keeps: no block is walked twice for one header. A
loop is classified ``constant(c)`` only when the stack emulation saw its
exit comparison with an untainted integer on both sides, one of them the
same constant ``c`` every time and the other a constant on the first pass
and ``WIDENED`` once the emulator joined the passes: ``c`` is the bound.
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
    idom = cfg.dominators
    rank = dict(zip(idom, range(len(idom))))
    seen_headers: dict[int, set[int]] = {}
    for header, preds in cfg.predecessors.items():
        i = rank.get(header, -1)
        # a header but the entry is also entered from outside its loop
        if i >= 0 and (len(preds) > 1 or header == cfg.entry):
            answers = {header: True}  # walked block -> dominated by header
            tails = {u for u in preds if rank.get(u, -1) >= i
                     and _dominates(idom, rank, header, u, answers)}
            if tails:
                seen_headers[header] = tails
    loops: list[Loop] = []
    events_at: dict[int, list[JumpiEvent]] = {}  # JUMPI pc -> its executions
    for event in cfg.jumpi_events:
        events_at.setdefault(event.pc, []).append(event)
    for header in sorted(seen_headers):
        body = _natural_loop_body(cfg, header, seen_headers[header])
        bound = _classify_bound(cfg, body, events_at)
        loops.append(Loop(header, frozenset(body), bound))
    return loops


def _dominates(idom: dict[int, int], rank: dict[int, int], header: int,
               block: int, answers: dict[int, bool]) -> bool:
    """Whether ``header`` dominates ``block``, which is no earlier in rank;
    ``answers`` holds the header's answers for the blocks walked so far."""
    walked = []
    while block not in answers and rank[block] > rank[header]:
        walked.append(block)
        block = idom[block]
    answers.update(dict.fromkeys(walked, answers.get(block, False)))
    return answers.get(block, False)


def _natural_loop_body(cfg: ControlFlowGraph, header: int,
                       tails: set[int]) -> set[int]:
    body = {header}
    stack = [t for t in tails if t != header]
    predecessors, reachable = cfg.predecessors, cfg.dominators
    while stack:
        node = stack.pop()
        if node not in body and node in reachable:
            body.add(node)
            stack += predecessors[node]
    return body


def _classify_bound(cfg: ControlFlowGraph, body: set[int],
                    events_at: dict[int, list[JumpiEvent]]) -> int | None:
    starts = cfg.disassembly.starts
    exit_pcs = [starts[block.stop - 1] for block in map(cfg.blocks.get, body)
                if block.terminator == "jumpi"
                and not body.issuperset(block.successors)]

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
