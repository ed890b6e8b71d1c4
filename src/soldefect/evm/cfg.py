"""Control-flow recovery via forward abstract stack emulation, over the flat
disassembly: a block is a range of indexes into the instruction starts, and
the emulator reads each opcode from the code bytes and each PUSH's value
from the table that `disassemble` decoded once.

Jump targets are resolved by propagating push constants through stack
shuffles and arithmetic; everything the emulator cannot prove concrete
becomes a tainted or unknown value. Jumps that stay unresolved are recorded
as edges-to-unknown. The emulator looks each opcode up in a 256-entry class
table and runs the frequent classes inline; `_step` runs the rest. A block
that ends its path (STOP, RETURN, ...) records nothing, so only its steps
are counted. The dominators are Cooper, Harvey and Kennedy's iteration over
the reachable blocks numbered in DFS reverse postorder, the order of
``cfg.dominators``, where a block's dominators all precede it.

Loops end by widening, not by unrolling. A block's entry stacks fall into
contexts: two stacks share one when they have the same height and differ
only in slots that hold ``WIDENED`` or a constant that is not a JUMPDEST of
the code (a loop counter, say, but not a return address). A stack that
reaches a block in an explored context is joined with the one explored
there, every slot in which they differ set to ``WIDENED``, and the block is
explored again only if the join is new; each slot widens at most once, so
every loop reaches a fixpoint. Every other difference opens a new context,
at most ``MAX_VISITS_PER_BLOCK`` per block: ``capped_blocks`` holds the
blocks where a context was dropped, so where precision was lost. The whole
walk also has a step budget, so recovery always terminates without a
solver: ``steps`` counts the instructions of each block explored, once per
exploration, and a walk that would take it past ``STEP_BUDGET`` stops
before that block and sets ``out_of_budget``; the analyzer then warns that
the input's CFG is incomplete.

Abstract values (hashable tuples):
    ("const", v)                   concrete 256-bit value
    ("widened",)                   an untainted integer that changes
                                   between visits (``WIDENED``)
    ("taint", frozenset(tags))     value influenced by the tagged sources
    ("cmp", op, pc, a, b)          comparison result; a, b are `_leaf`s
    ("iszero", inner)              boolean negation wrapper, at most two deep
    ("unknown",)
Folding and NOT over constants and ``WIDENED`` give ``WIDENED``; a
comparison with it is never decided, and a jump to it is unresolved.
Taint tags: BALANCE, which strict-balance-equality reads, and CALLDATA,
which selector extraction reads. Every other source (SLOAD, CALLER, block
and environment info) is plain: its value joins its arguments' taints.
"""

from __future__ import annotations

from bisect import insort
from collections import namedtuple

from ..records import field, record
from .disasm import Disassembly, disassemble
from .opcodes import (DUP1, DUP16, JUMPDEST, MNEMONICS, OPCODES, POP, PUSH1,
                      PUSH32, SWAP1, SWAP16, TERMINATORS)

MAX_VISITS_PER_BLOCK = 4
MAX_STACK_DEPTH = 1024
STEP_BUDGET = 200_000

_WORD = (1 << 256) - 1

UNKNOWN = ("unknown",)
WIDENED = ("widened",)
# the kinds of value that arithmetic folds: to a constant, or to WIDENED
INTEGERS = ("const", "widened")

# opcode -> the taint tags of the value it pushes: strict-balance-equality
# reads BALANCE, and selector extraction reads CALLDATA
_TAINT_SOURCES = {MNEMONICS[op]: frozenset({tag}) for op, tag in {
    "BALANCE": "BALANCE",
    "CALLDATALOAD": "CALLDATA",
    "CALLDATASIZE": "CALLDATA",
}.items()}
_UNTAINTED = frozenset()

# opcode -> mnemonic, which comparison values and `_fold` take
_CMP_OPS = {MNEMONICS[op]: op for op in ("LT", "GT", "SLT", "SGT", "EQ")}
_FOLDABLE = {MNEMONICS[op]: op for op in (
    "ADD", "SUB", "MUL", "DIV", "SDIV", "MOD", "EXP", "AND", "OR", "XOR",
    "BYTE", "SIGNEXTEND")}
_NOT = MNEMONICS["NOT"]
_PC = MNEMONICS["PC"]

# `_run`'s opcode classes, tested in this order; _RARE ones go to `_step`.
# _UNARY and _SOURCE are the plain opcodes that pop one value or none and
# push one: the value joins the argument's taints and the opcode's own.
(_PUSH, _DUP, _NOP, _CMP, _POP, _ISZERO, _FOLD, _UNARY, _SOURCE, _SWAP,
 _RARE) = range(11)
_NAMED = {**dict.fromkeys(_CMP_OPS, _CMP), **dict.fromkeys(_FOLDABLE, _FOLD),
          JUMPDEST: _NOP, POP: _POP, MNEMONICS["ISZERO"]: _ISZERO,
          _NOT: _RARE, _PC: _RARE}


def _opcode_class(op: int) -> int:
    _, pops, pushes = OPCODES.get(op, ("", 2, 0))
    if PUSH1 <= op <= SWAP16:  # the PUSHes, then the DUPs, then the SWAPs
        return _PUSH if op <= PUSH32 else _DUP if op <= DUP16 else _SWAP
    if op in _NAMED or pushes != 1 or pops > 1:
        return _NAMED.get(op, _RARE)
    return _UNARY if pops else _SOURCE


_CLASS = bytes(map(_opcode_class, range(256)))


def value_tags(value) -> frozenset:
    kind = value[0]
    if kind == "taint":
        return value[1]
    if kind == "cmp":
        return value_tags(value[3]) | value_tags(value[4])
    if kind == "iszero":
        return value_tags(value[1])
    return frozenset()


def unwrap_iszero(value):
    while value[0] == "iszero":
        value = value[1]
    return value


# One emulated execution of a JUMPI: its block and pc, the condition value,
# and the jump-taken block id when the target is concrete, else None
JumpiEvent = namedtuple("JumpiEvent", "block pc condition target")


@record(slots=True)
class BasicBlock:
    id: int  # pc of the first instruction
    start: int  # index in the instruction starts of the first instruction
    stop: int  # index one past the last instruction
    successors: list[int] = field(default_factory=list)
    terminator: str = "fallthrough"


@record
class ControlFlowGraph:
    blocks: dict[int, BasicBlock]
    entry: int
    disassembly: Disassembly
    next_block: dict[int, int] = field(default_factory=dict)  # pc order
    predecessors: dict[int, list[int]] = field(default_factory=dict)
    # block -> idom; its keys are exactly the blocks reachable from the
    # entry, in reverse postorder, so a block's dominators all precede it
    dominators: dict[int, int] = field(default_factory=dict)
    unresolved_jumps: list[tuple[int, int]] = field(default_factory=list)
    jumpi_events: list[JumpiEvent] = field(default_factory=list)
    capped_blocks: set[int] = field(default_factory=set)  # dropped a context
    out_of_budget: bool = False  # the walk stopped at STEP_BUDGET
    steps: int = 0  # instructions emulated, a block's once per exploration

    def reachable(self) -> set[int]:
        """The blocks reachable from the entry: the dominator map's keys."""
        return set(self.dominators)


def split_blocks(disassembly: Disassembly) -> dict[int, BasicBlock]:
    """One block per end that `disassemble` recorded (a truncated PUSH,
    which is invalid, can only be the last instruction), each with its
    structural fallthrough edge, valid whatever the stack holds."""
    code, starts = disassembly.code, disassembly.starts
    blocks: dict[int, BasicBlock] = {}
    first = 0  # index of the block's first instruction
    for stop in disassembly.ends:
        end = TERMINATORS.get(code[starts[stop - 1]], "fallthrough")
        falls = end in ("fallthrough", "jumpi") and stop < len(starts)
        block = BasicBlock(starts[first], first, stop,
                           [starts[stop]] if falls else [], end)
        blocks[block.id] = block
        first = stop
    if starts and disassembly.truncated(starts[-1]):
        block.terminator = "invalid"
    return blocks


def build_cfg(disassembly: Disassembly | bytes | str) -> ControlFlowGraph:
    if not isinstance(disassembly, Disassembly):
        disassembly = disassemble(disassembly)
    blocks = split_blocks(disassembly)
    if not blocks:
        return ControlFlowGraph({}, 0, disassembly)
    order = list(blocks)  # split_blocks fills it in pc order
    cfg = ControlFlowGraph(blocks, order[0], disassembly,
                           dict(zip(order, order[1:])),
                           {bid: [] for bid in order})
    unresolved: set[tuple[int, int]] = set()
    _emulate(cfg, unresolved)

    # predecessors in ascending order, as successors are kept
    predecessors = cfg.predecessors
    for bid, block in blocks.items():
        for succ in block.successors:
            predecessors[succ].append(bid)
    cfg.unresolved_jumps = sorted(unresolved)
    cfg.dominators = compute_dominators(cfg)
    return cfg


def _emulate(cfg: ControlFlowGraph, unresolved: set) -> None:
    """Walk the blocks from the entry over abstract stacks, adding each
    resolved jump's edge to its block's successors, kept in ascending order.

    `split_blocks` ends a block at every terminator and invalid instruction,
    so any terminator but JUMP and JUMPI ends the path, and its block, of
    which nothing is recorded or read, is not run. Both jumps follow one
    rule: a target that is not a constant is unresolved, a constant that
    starts a JUMPDEST block is an edge, and any other constant is an
    invalid jump, which ends the path (JUMPI still falls through)."""
    dis = cfg.disassembly
    code, starts, values = dis.code, dis.starts, dis.push_values
    blocks, next_block = cfg.blocks, cfg.next_block
    add_event, new_event = cfg.jumpi_events.append, tuple.__new__
    jumpdests = {bid for bid in blocks if code[bid] == JUMPDEST}
    worklist: list[tuple[int, tuple]] = [(cfg.entry, ())]
    # block -> the entry stack explored last in each of its contexts
    explored: dict[int, list[tuple]] = {}
    steps = 0

    while worklist:
        bid, entry_stack = worklist.pop()
        stacks = explored.get(bid)
        if stacks is None:
            explored[bid] = [entry_stack]
        elif entry_stack in stacks:
            continue
        else:
            for i, known in enumerate(stacks):
                joined = _join(known, entry_stack, jumpdests)
                if joined is not None:  # the context is explored: widen it
                    if joined is known:
                        entry_stack = None
                    else:
                        stacks[i] = entry_stack = joined
                    break
            else:
                if len(stacks) >= MAX_VISITS_PER_BLOCK:
                    cfg.capped_blocks.add(bid)
                    continue
                stacks.append(entry_stack)
            if entry_stack is None:
                continue

        block = blocks[bid]
        start, stop = block.start, block.stop
        if steps + stop - start > STEP_BUDGET:
            cfg.out_of_budget = True
            break
        steps += stop - start
        end = block.terminator
        if end == "fallthrough":
            fall = next_block.get(bid)
            stack = list(entry_stack)
            if fall is not None and _run(stack, starts[start:stop], code, values):
                worklist.append((fall, tuple(stack)))
            continue
        if end != "jump" and end != "jumpi":
            continue  # the path ends in this block, which records nothing
        jumpi = end == "jumpi"
        stack = list(entry_stack)
        if (not _run(stack, starts[start:stop - 1], code, values)
                or len(stack) < 1 + jumpi):
            continue
        pc = starts[stop - 1]
        target = stack.pop()
        taken: int | None = None
        if target[0] != "const":
            unresolved.add((bid, pc))
        elif target[1] in jumpdests:
            taken = target[1]
            if taken not in block.successors:
                insort(block.successors, taken)
        if not jumpi:
            if taken is not None:
                worklist.append((taken, tuple(stack)))
            continue
        cond = stack.pop()
        add_event(new_event(JumpiEvent, (bid, pc, cond, taken)))
        concrete = _concrete_bool(cond)
        fall = next_block.get(bid)
        after = tuple(stack)
        if concrete is not False and taken is not None:
            worklist.append((taken, after))
        if concrete is not True and fall is not None:
            worklist.append((fall, after))
    cfg.steps = steps


def _run(stack: list, pcs: list[int], code: bytes, values: dict) -> bool:
    """Execute the instructions at ``pcs``, none of them a terminator, on
    ``stack``. False if the path halts, as the EVM does, at an instruction
    that reads below the bottom of the stack or leaves more than
    MAX_STACK_DEPTH values on it."""
    # no instruction leaves more than one value above what it found
    check = len(stack) + len(pcs) > MAX_STACK_DEPTH
    try:
        for pc in pcs:
            op = code[pc]
            kind = _CLASS[op]
            if kind == _PUSH:
                stack.append(("const", values[pc]))
            elif kind == _DUP:
                stack.append(stack[DUP1 - 1 - op])
            elif kind == _NOP:
                continue
            elif kind == _CMP:
                a = stack.pop()
                stack[-1] = ("cmp", _CMP_OPS[op], pc, _leaf(a), _leaf(stack[-1]))
                continue
            elif kind == _POP:
                stack.pop()
                continue
            elif kind == _ISZERO:
                a = stack[-1]
                if a[0] == "const":
                    stack[-1] = ("const", 0 if a[1] else 1)
                elif a[0] == "iszero" and a[1][0] == "iszero":
                    stack[-1] = a[1]  # three negations are one
                else:
                    stack[-1] = ("iszero", a)
                continue
            elif kind == _FOLD:
                a = stack.pop()
                b = stack[-1]
                if a[0] == "const" and b[0] == "const":
                    stack[-1] = ("const", _fold(_FOLDABLE[op], a[1], b[1]))
                elif a[0] in INTEGERS and b[0] in INTEGERS:
                    stack[-1] = WIDENED
                else:
                    stack[-1] = _join_taints((a, b))
                continue
            elif kind == _UNARY:
                stack[-1] = _join_taints((stack[-1],),
                                         _TAINT_SOURCES.get(op, _UNTAINTED))
                continue
            elif kind == _SOURCE:
                stack.append(_join_taints((), _TAINT_SOURCES.get(op, _UNTAINTED)))
            elif kind == _SWAP:
                stack[-1], stack[SWAP1 - 2 - op] = stack[SWAP1 - 2 - op], stack[-1]
                continue
            else:
                _step(stack, op, pc)
            if check and len(stack) > MAX_STACK_DEPTH:
                return False
    except IndexError:  # a stack underflow
        return False
    return True


def _join(known: tuple, stack: tuple, jumpdests: set) -> tuple | None:
    """``known`` with every slot in which ``stack`` differs set to WIDENED,
    ``known`` itself if that changes nothing, or None if the two stacks are
    of different contexts."""
    if len(known) != len(stack):
        return None
    joined = []
    changed = False
    for a, b in zip(known, stack):
        if a != b:
            if not (_may_widen(a, jumpdests) and _may_widen(b, jumpdests)):
                return None
            if a[0] != "widened":
                a, changed = WIDENED, True
        joined.append(a)
    return tuple(joined) if changed else known


def _may_widen(value, jumpdests: set) -> bool:
    """Whether a slot holding ``value`` may widen: WIDENED, or a constant
    that is not a JUMPDEST of the code (so not a return address)."""
    return value[0] == "widened" or (value[0] == "const"
                                     and value[1] not in jumpdests)


def _concrete_bool(cond) -> bool | None:
    """Evaluate const and const-comparison conditions to a Python bool."""
    negate = False
    while cond[0] == "iszero":
        negate = not negate
        cond = cond[1]
    if cond[0] == "const":
        return (cond[1] != 0) != negate
    if cond[0] == "cmp" and cond[3][0] == "const" and cond[4][0] == "const":
        return _eval_cmp(cond[1], cond[3][1], cond[4][1]) != negate
    return None


def _to_signed(v: int) -> int:
    return v - (1 << 256) if v >> 255 else v


def _eval_cmp(op: str, a: int, b: int) -> bool:
    if op in ("SLT", "SGT"):
        a, b, op = _to_signed(a), _to_signed(b), op[1:]
    return a < b if op == "LT" else a > b if op == "GT" else a == b


def _fold(op: str, a: int, b: int) -> int:
    if op == "ADD":
        return (a + b) & _WORD
    if op == "SUB":
        return (a - b) & _WORD
    if op == "MUL":
        return (a * b) & _WORD
    if op == "DIV":
        return a // b if b else 0
    if op == "SDIV":
        if b == 0:
            return 0
        sa, sb = _to_signed(a), _to_signed(b)
        q = abs(sa) // abs(sb)
        if (sa < 0) != (sb < 0):
            q = -q
        return q & _WORD
    if op == "MOD":
        return a % b if b else 0
    if op == "EXP":
        return pow(a, b, 1 << 256)
    if op == "AND":
        return a & b
    if op == "OR":
        return a | b
    if op == "XOR":
        return a ^ b
    if op == "BYTE":
        return (b >> (8 * (31 - a))) & 0xFF if a < 32 else 0
    # SIGNEXTEND, the last name of _FOLDABLE
    if a >= 31:
        return b
    bit = 8 * (a + 1) - 1
    if b & (1 << bit):
        return b | (_WORD ^ ((1 << (bit + 1)) - 1))
    return b & ((1 << (bit + 1)) - 1)


def _step(stack: list, op: int, pc: int) -> None:
    """Execute ``op`` at ``pc``, one of the opcodes that `_run` hands on:
    PC, NOT, and the plain ones that pop more than one value. A stack
    underflow raises IndexError."""
    if op == _PC:
        stack.append(("const", pc))
        return
    _, pops, pushes = OPCODES[op]
    if len(stack) < pops:
        raise IndexError("stack underflow")
    args = stack[-pops:]
    del stack[-pops:]
    a = args[-1]  # the top of the stack
    if op != _NOT:
        stack.extend([_join_taints(args)] * pushes)
    elif a[0] == "const":
        stack.append(("const", a[1] ^ _WORD))
    else:
        stack.append(WIDENED if a[0] == "widened" else _join_taints(args))


def _leaf(value) -> tuple:
    """A comparison's operand as it is kept: a comparison or negation only
    as its taints, all that any reader takes from such an operand."""
    return _join_taints((value,)) if value[0] in ("cmp", "iszero") else value


def _join_taints(args, tags: frozenset = _UNTAINTED) -> tuple:
    for a in args:
        if a[0] != "const":  # a constant carries no taint
            tags |= a[1] if a[0] == "taint" else value_tags(a)
    return ("taint", tags) if tags else UNKNOWN


# ---------------------------------------------------------------------------
# Dominators (iterative, over blocks reachable from the entry)


def compute_dominators(cfg: ControlFlowGraph) -> dict[int, int]:
    """Block -> immediate dominator (the entry's is itself), its keys the
    blocks reachable from the entry in DFS reverse postorder."""
    if not cfg.blocks:
        return {}
    blocks, post, visited = cfg.blocks, [], {cfg.entry}
    stack = [(cfg.entry, iter(blocks[cfg.entry].successors))]
    while stack:
        node, successors = stack[-1]
        for succ in successors:
            if succ not in visited:
                visited.add(succ)
                stack.append((succ, iter(blocks[succ].successors)))
                break
        else:
            post.append(node)
            stack.pop()
    order = post[::-1]
    rank = dict(zip(order, range(len(order))))
    # a block's dominators all precede it, and so does its first
    # predecessor: its DFS parent, or one before that
    preds: list[list[int]] = [[] for _ in order]
    for i, b in enumerate(order):
        for succ in blocks[b].successors:
            preds[rank[succ]].append(i)
    idom: list[int | None] = [0] + [None] * (len(order) - 1)
    # after the first pass, only a block with two or more predecessors
    # can change its immediate dominator
    joins = [i for i, ps in enumerate(preds) if len(ps) > 1 and i]
    todo = range(1, len(order))
    while todo:
        changed = False
        for i in todo:
            ps = preds[i]
            new = ps[0]
            for p in ps[1:]:
                if idom[p] is None:
                    continue
                while p != new:  # the nearest common dominator
                    while p > new:
                        p = idom[p]
                    while new > p:
                        new = idom[new]
            if idom[i] != new:
                idom[i] = new
                changed = True
        todo = joins if changed else ()
    return dict(zip(order, map(order.__getitem__, idom)))
