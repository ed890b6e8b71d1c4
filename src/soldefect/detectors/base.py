"""Detector plumbing: the facts a detector reads, and the registries of
its readers, by slug (the catalog itself is ``soldefect.catalog``)."""

from __future__ import annotations

from collections.abc import Callable, Iterable

from ..config import DetectorConfig
from ..nodes import ContractDefinition, NodeIndex, SourceUnit
from ..records import field, lazy, record
from ..semantic import SymbolTable, build_call_graph
from ..spans import Diagnostic, Span
from .index import FunctionIndex


@record
class ContractFacts:
    """One contract's facts. The callee names, if None, are built from the
    file's node index on first read of ``SourceFacts.callees``: only D15
    needs them. The bodies' fact indexes and their def-use are the file's
    (``SourceFacts``). Nothing fills or reads ``defuse``: it stays only for
    ``bench/tracing.py``, which passes four fields, until that runs
    ``analyze_input``."""

    contract: ContractDefinition
    table: SymbolTable
    call_graph: set[str] | None = None
    defuse: list | None = None


@record
class SourceFacts:
    """One file's facts: its contracts, its nodes in pre-order (``tree``),
    and one fact index per function or modifier body, built on first use
    with the table of the contract that declares the body and shared by
    every contract that inherits it."""

    file_id: str
    unit: SourceUnit
    contracts: list[ContractFacts]
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @lazy
    def tree(self) -> NodeIndex:
        """The file's nodes in pre-order."""
        return NodeIndex(self.unit)

    @lazy
    def _indexes(self) -> dict[int, FunctionIndex]:
        """id(fn) -> the index of fn, for each contract's own functions, then
        its modifiers, that have a body, in source order."""
        tree = self.tree
        return {id(fn): FunctionIndex(fn, cf.table, tree)
                for cf in self.contracts
                for fn in cf.contract.functions + cf.contract.modifiers
                if fn.body is not None}

    def indexes(self, fns) -> list[FunctionIndex]:
        """The indexes of those of fns that have a body, in order."""
        indexes = self._indexes
        return [indexes[id(fn)] for fn in fns if fn.body is not None]

    def callables(self, cf: ContractFacts) -> list[FunctionIndex]:
        """The indexes of every function, then every modifier, with a body
        that cf's contract can run, inherited ones included."""
        table = cf.table
        return self.indexes([*table.functions.values(),
                             *table.modifiers.values()])

    def callees(self, cf: ContractFacts) -> set[str]:
        """The names that something in cf's contract calls or invokes."""
        if cf.call_graph is None:
            cf.call_graph = build_call_graph(cf.table, self.tree)
        return cf.call_graph

    def bodies(self) -> Iterable[FunctionIndex]:
        """The indexes of each contract's own functions, then its modifiers,
        that have a body, in source order."""
        return self._indexes.values()


@record
class BytecodeFacts:
    file_id: str
    code: bytes
    instructions: object  # the evm.disasm.Disassembly of `code`
    cfg: object
    loops: list
    selectors: dict


@record
class AnalysisContext:
    """Facts a detector may read. Detectors never mutate the context."""

    source: SourceFacts | None = None
    bytecode: BytecodeFacts | None = None
    config: DetectorConfig = field(default_factory=DetectorConfig)
    # errors of detectors that raised, recorded by run_detectors
    diagnostics: list[Diagnostic] = field(default_factory=list)


# A detector yields (where, message) hits: where is a Span in source mode
# and a program counter in bytecode mode. run_detectors turns each hit into
# a Finding carrying the detector's catalog entry.
Hit = tuple[Span | int, str]
DetectorFn = Callable[[AnalysisContext], Iterable[Hit]]

_SOURCE_DETECTORS: dict[str, DetectorFn] = {}
_BYTECODE_DETECTORS: dict[str, DetectorFn] = {}


def _registrar(readers: dict[str, DetectorFn]):
    """A decorator that files a detector in ``readers`` under the catalog
    slug it is given."""

    def register(detector_id: str) -> Callable[[DetectorFn], DetectorFn]:
        def wrap(fn: DetectorFn) -> DetectorFn:
            readers[detector_id] = fn
            return fn

        return wrap

    return register


register = _registrar(_SOURCE_DETECTORS)
register_bytecode = _registrar(_BYTECODE_DETECTORS)
