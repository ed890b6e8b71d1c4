"""Control-flow recovery via forward abstract stack emulation, over the flat
disassembly: a block is a range of indexes into the instruction starts, and
the emulator reads each opcode from the code bytes and each PUSH's value
from the table that `disassemble` decoded once.

Jump targets are resolved by propagating push constants through stack
shuffles and arithmetic; everything the emulator cannot prove concrete
becomes a tainted or unknown value. Jumps that stay unresolved are
recorded as edges-to-unknown.

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

from ..records import field, record
from .disasm import Disassembly, disassemble
from .opcodes import (DUP1, DUP16, JUMP, JUMPDEST, JUMPI, MNEMONICS, OPCODES,
                      POP, PUSH1, PUSH32, SWAP1, SWAP16, TERMINATORS)

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

# opcode -> mnemonic, which comparison values and `_fold` take
_CMP_OPS = {MNEMONICS[op]: op for op in ("LT", "GT", "SLT", "SGT", "EQ")}
_FOLDABLE = {MNEMONICS[op]: op for op in (
    "ADD", "SUB", "MUL", "DIV", "SDIV", "MOD", "EXP", "AND", "OR", "XOR",
    "BYTE", "SIGNEXTEND")}
_ISZERO = MNEMONICS["ISZERO"]
_NOT = MNEMONICS["NOT"]
_PC = MNEMONICS["PC"]
# opcodes whose result is only the join of their arguments' taints
_PLAIN = (OPCODES.keys() - _TAINT_SOURCES.keys() - _CMP_OPS.keys()
          - _FOLDABLE.keys() - {_ISZERO, _NOT, _PC})


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


@record
class JumpiEvent:
    """One emulated execution of a JUMPI: condition value plus the target."""

    block: int
    pc: int
    condition: tuple
    target: int | None  # resolved jump-taken block id, when concrete


@record
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
    # block -> idom; its keys are exactly the blocks reachable from the entry
    dominators: dict[int, int] = field(default_factory=dict)
    # block -> (preorder number, last preorder number of its subtree) in the
    # dominator tree: a dominates b iff b's number falls in a's span
    dominator_spans: dict[int, tuple[int, int]] = field(default_factory=dict)
    unresolved_jumps: list[tuple[int, int]] = field(default_factory=list)
    jumpi_events: list[JumpiEvent] = field(default_factory=list)
    capped_blocks: set[int] = field(default_factory=set)  # dropped a context
    out_of_budget: bool = False  # the walk stopped at STEP_BUDGET
    steps: int = 0  # instructions emulated, a block's once per exploration

    def reachable(self) -> set[int]:
        """The blocks reachable from the entry: the dominator map's keys."""
        return set(self.dominators)

    def dominates(self, a: int, b: int) -> bool:
        """True iff a dominates b; a block dominates itself, and no other
        block dominates or is dominated by an unreachable one."""
        if a == b:
            return True
        span_a = self.dominator_spans.get(a)
        span_b = self.dominator_spans.get(b)
        return (span_a is not None and span_b is not None
                and span_a[0] <= span_b[0] <= span_a[1])


def split_blocks(disassembly: Disassembly) -> dict[int, BasicBlock]:
    """One block per end that `disassemble` recorded (a truncated PUSH,
    which is invalid, can only be the last instruction)."""
    code, starts = disassembly.code, disassembly.starts
    blocks: dict[int, BasicBlock] = {}
    first = 0  # index of the block's first instruction
    block = None
    for stop in disassembly.ends:
        end = TERMINATORS.get(code[starts[stop - 1]], "fallthrough")
        block = BasicBlock(starts[first], first, stop, [], end)
        blocks[block.id] = block
        first = stop
    if block is not None and disassembly.truncated(starts[-1]):
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
    # structural fallthrough edges (always valid regardless of stack state)
    edges = {(bid, cfg.next_block[bid]) for bid, block in blocks.items()
             if block.terminator in ("fallthrough", "jumpi")
             and bid in cfg.next_block}
    unresolved: set[tuple[int, int]] = set()
    _emulate(cfg, edges, unresolved)

    # every edge ends at a block: a jump's ends at one that starts with a JUMPDEST
    for src, dst in sorted(edges):
        blocks[src].successors.append(dst)
        cfg.predecessors[dst].append(src)
    cfg.unresolved_jumps = sorted(unresolved)
    cfg.dominators = compute_dominators(cfg)
    cfg.dominator_spans = _dominator_spans(cfg.dominators, cfg.entry)
    return cfg


def _emulate(cfg: ControlFlowGraph, edges: set, unresolved: set) -> None:
    """Walk the blocks from the entry over abstract stacks.

    `split_blocks` ends a block at every terminator and invalid instruction,
    so any terminator but JUMP and JUMPI just ends the path: it is the last
    instruction of a block that has no fallthrough. Both jumps follow one
    rule: a target that is not a constant is unresolved, a constant that
    starts a JUMPDEST block is an edge, and any other constant is an
    invalid jump, which ends the path (JUMPI still falls through). A path
    halts, as the EVM does, once an instruction leaves more than
    MAX_STACK_DEPTH values on the stack."""
    dis = cfg.disassembly
    code, starts, values = dis.code, dis.starts, dis.push_values
    blocks = cfg.blocks
    jumpdests = {bid for bid in blocks if code[bid] == JUMPDEST}
    worklist: list[tuple[int, tuple]] = [(cfg.entry, ())]
    # block -> the entry stack explored last in each of its contexts
    explored: dict[int, list[tuple]] = {}
    steps = 0

    while worklist:
        bid, entry_stack = worklist.pop()
        stacks = explored.setdefault(bid, [])
        if entry_stack in stacks:
            continue
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
        if steps + block.stop - block.start > STEP_BUDGET:
            cfg.out_of_budget = True
            break
        steps += block.stop - block.start
        stack = list(entry_stack)
        for pc in starts[block.start:block.stop]:
            op = code[pc]
            if PUSH1 <= op <= PUSH32:
                stack.append(("const", values[pc]))
            elif DUP1 <= op <= DUP16:
                if len(stack) < op - DUP1 + 1:
                    break
                stack.append(stack[DUP1 - 1 - op])
            elif SWAP1 <= op <= SWAP16:
                if len(stack) < op - SWAP1 + 2:
                    break
                stack[-1], stack[SWAP1 - 2 - op] = stack[SWAP1 - 2 - op], stack[-1]
                continue
            elif op == JUMPDEST:
                continue
            elif op == POP:
                if not stack:
                    break
                stack.pop()
                continue
            elif op == JUMP or op == JUMPI:
                if len(stack) < (1 if op == JUMP else 2):
                    break
                target = stack.pop()
                taken: int | None = None
                if target[0] != "const":
                    unresolved.add((bid, pc))
                elif target[1] in jumpdests:
                    taken = target[1]
                    edges.add((bid, taken))
                if op == JUMP:
                    if taken is not None:
                        worklist.append((taken, tuple(stack)))
                    break
                cond = stack.pop()
                cfg.jumpi_events.append(JumpiEvent(bid, pc, cond, taken))
                concrete = _concrete_bool(cond)
                fall = cfg.next_block.get(bid)
                if concrete is not False and taken is not None:
                    worklist.append((taken, tuple(stack)))
                if concrete is not True and fall is not None:
                    worklist.append((fall, tuple(stack)))
                break
            elif op in TERMINATORS:
                break
            elif not _step(stack, op, pc):
                break
            if len(stack) > MAX_STACK_DEPTH:
                break
        else:
            fall = cfg.next_block.get(bid)
            if block.terminator == "fallthrough" and fall is not None:
                worklist.append((fall, tuple(stack)))
    cfg.steps = steps


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
    if op == "SIGNEXTEND":
        if a >= 31:
            return b
        bit = 8 * (a + 1) - 1
        if b & (1 << bit):
            return b | (_WORD ^ ((1 << (bit + 1)) - 1))
        return b & ((1 << (bit + 1)) - 1)
    raise AssertionError(op)


def _step(stack: list, op: int, pc: int) -> bool:
    """Execute the instruction ``op`` at ``pc``, one the emulator does not
    handle inline; False on stack underflow."""
    _, pops, pushes = OPCODES[op]
    if len(stack) < pops:
        return False
    if pops:
        args = stack[:-pops - 1:-1]  # the top of the stack first
        del stack[-pops:]
    else:
        args = []
    if op in _PLAIN:
        for _ in range(pushes):
            stack.append(_join_taints(args))
        return True
    tags = _TAINT_SOURCES.get(op)
    if tags is not None:
        stack.append(_join_taints(args, tags))
        return True
    name = _CMP_OPS.get(op)
    if name is not None:
        stack.append(("cmp", name, pc, _leaf(args[0]), _leaf(args[1])))
        return True
    if op == _ISZERO:
        a = args[0]
        if a[0] == "const":
            stack.append(("const", 0 if a[1] else 1))
        elif a[0] == "iszero" and a[1][0] == "iszero":
            stack.append(a[1])  # three negations are one
        else:
            stack.append(("iszero", a))
        return True
    if op == _NOT:
        a = args[0]
        if a[0] == "const":
            stack.append(("const", a[1] ^ _WORD))
        elif a[0] == "widened":
            stack.append(WIDENED)
        else:
            stack.append(_join_taints(args))
        return True
    name = _FOLDABLE.get(op)
    if name is not None:
        a, b = args[0], args[1]
        if a[0] == "const" and b[0] == "const":
            stack.append(("const", _fold(name, a[1], b[1])))
        elif a[0] in INTEGERS and b[0] in INTEGERS:
            stack.append(WIDENED)
        else:
            stack.append(_join_taints(args))
        return True
    if op == _PC:
        stack.append(("const", pc))
    return True


def _leaf(value) -> tuple:
    """A comparison's operand as it is kept: a comparison or negation only
    as its taints, all that any reader takes from such an operand."""
    return _join_taints([value]) if value[0] in ("cmp", "iszero") else value


def _join_taints(args: list, tags: frozenset = frozenset()) -> tuple:
    for a in args:
        if a[0] != "const":  # a constant carries no taint
            tags |= value_tags(a)
    return ("taint", tags) if tags else UNKNOWN


# ---------------------------------------------------------------------------
# Dominators (iterative, over blocks reachable from the entry)


def compute_dominators(cfg: ControlFlowGraph) -> dict[int, int]:
    if not cfg.blocks:
        return {}
    order = _reverse_postorder(cfg)
    index = {b: i for i, b in enumerate(order)}
    # over reverse postorder numbers: a block's dominators all precede it
    preds = [[index[p] for p in cfg.predecessors[b] if p in index] for b in order]
    idom: list[int | None] = [0] + [None] * (len(order) - 1)

    # a block comes after its DFS parent in reverse postorder, so each pass
    # finds a processed predecessor for every block but the entry
    changed = True
    while changed:
        changed = False
        for i in range(1, len(order)):
            new = None
            for p in preds[i]:
                if idom[p] is None:
                    continue
                if new is not None:
                    while p != new:  # the nearest common dominator
                        while p > new:
                            p = idom[p]
                        while new > p:
                            new = idom[new]
                new = p
            if idom[i] != new:
                idom[i] = new
                changed = True
    return {b: order[idom[i]] for i, b in enumerate(order)}


def _dominator_spans(idom: dict[int, int],
                     entry: int) -> dict[int, tuple[int, int]]:
    """Number the dominator tree in preorder; each block's span runs from its
    own number to the last number in its subtree."""
    children: dict[int, list[int]] = {b: [] for b in idom}
    for b, parent in idom.items():
        if b != entry:
            children[parent].append(b)
    preorder: list[int] = []
    stack = [entry]
    while stack:
        node = stack.pop()
        preorder.append(node)
        stack.extend(children[node])
    size = dict.fromkeys(preorder, 1)
    for node in reversed(preorder):
        if node != entry:
            size[idom[node]] += size[node]
    return {node: (i, i + size[node] - 1) for i, node in enumerate(preorder)}


def _reverse_postorder(cfg: ControlFlowGraph) -> list[int]:
    """The blocks reachable from the entry, in DFS reverse postorder."""
    visited = {cfg.entry}
    post: list[int] = []
    stack = [(cfg.entry, iter(cfg.blocks[cfg.entry].successors))]
    while stack:
        node, successors = stack[-1]
        for succ in successors:
            if succ not in visited:
                visited.add(succ)
                stack.append((succ, iter(cfg.blocks[succ].successors)))
                break
        else:
            post.append(node)
            stack.pop()
    post.reverse()
    return post
