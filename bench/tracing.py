"""The traced, in-process pass: spans around each layer's public functions.

The pass repeats what ``analyzer.analyze_file`` does for each input, but
calls the layers one by one (lexer, parser, semantic, each detector alone,
the EVM stages) inside spans recorded by the benchmark. Nothing inside the
program is instrumented. Its report must render to the same bytes as the
program's own serial run, which the caller checks.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

from soldefect.analyzer import collect_inputs, file_mode
from soldefect.config import DetectorConfig, RunConfig
from soldefect.detectors import (REGISTRY, AnalysisContext, BytecodeFacts,
                                 ContractFacts, SourceFacts, run_detectors)
from soldefect.evm.cfg import build_cfg, compute_dominators
from soldefect.evm.disasm import BytecodeError, decode_bytecode_input, disassemble
from soldefect.evm.loops import detect_loops
from soldefect.evm.selectors import extract_selectors
from soldefect.lexer import LexerError, tokenize
from soldefect.nodes import walk
from soldefect.parser import parse
from soldefect.report import InputRecord, Report, filter_by_impact, render
from soldefect.semantic import build_call_graph, compute_def_use, flatten_contract

# Each detector runs alone, through the public entry point, in catalog order.
ALONE = [(d, DetectorConfig(enable={d.id})) for d in REGISTRY]


class Tracer:
    """Spans kept in memory as [name, start, end, parent, file]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.t0 = time.perf_counter()

    def span(self, name: str, file: str | None = None) -> "_Span":
        return _Span(self, name, file)

    def write_jsonl(self, fh) -> None:
        """One JSON object per span; times in seconds from the tracer's start."""
        for index, (name, start, end, parent, file) in enumerate(self.spans):
            fh.write(json.dumps({
                "id": index, "name": name,
                "start": start - self.t0, "end": end - self.t0,
                "parent": parent, "file": file}) + "\n")

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child durations."""
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent, _file in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = {}
        for index, (name, start, end, _parent, _file) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[index]
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _p, _f in self.spans if n == name]


class _Span:
    __slots__ = ("tracer", "record", "index")

    def __init__(self, tracer: Tracer, name: str, file: str | None) -> None:
        self.tracer = tracer
        parent = tracer._open[-1] if tracer._open else None
        self.record = [name, 0.0, 0.0, parent, file]

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        self.index = len(tracer.spans)
        tracer.spans.append(self.record)
        tracer._open.append(self.index)
        self.record[1] = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.record[2] = time.perf_counter()
        self.tracer._open.pop()


COUNTS = ("lexer.tokens", "parser.nodes", "parser.diagnostics",
          "detectors.findings", "evm.instructions", "evm.blocks",
          "evm.reachable_blocks", "evm.capped_blocks", "evm.unresolved_jumps",
          "evm.loops", "evm.bounded_loops", "evm.selectors")


@dataclass
class TracedRun:
    rendered: bytes = b""
    errors: dict[str, str] = field(default_factory=dict)  # path -> message
    counts: dict[str, int] = field(default_factory=lambda: dict.fromkeys(COUNTS, 0))
    wall_s: float = 0.0


def traced_pass(corpus_dir: str, fmt: str, tracer: Tracer) -> TracedRun:
    """Analyze every input serially under spans and render the report."""
    run = TracedRun()
    started = time.perf_counter()
    with tracer.span("analyzer.collect_inputs"):
        paths = collect_inputs([corpus_dir], "auto")
    inputs: list[InputRecord] = []
    findings = []
    for path in paths:
        with tracer.span("analyzer.analyze_file", path):
            try:
                with tracer.span("analyzer.read", path):
                    with open(path, "rb") as fh:
                        raw = fh.read()
                    digest = hashlib.sha256(raw).hexdigest()
                if file_mode(path, "auto") == "bytecode":
                    facts, found = _bytecode(raw.decode("ascii"), path, tracer)
                else:
                    facts, found = _source(raw.decode("utf-8"), path, tracer)
            except (OSError, LexerError, BytecodeError, UnicodeDecodeError) as exc:
                run.errors[path] = f"{type(exc).__name__}: {exc}"
            except Exception as exc:  # the program would crash here; keep going
                run.errors[path] = f"uncaught {type(exc).__name__}: {exc}"
        if path in run.errors:
            continue
        inputs.append(InputRecord(path, digest))
        findings += found
        run.counts["detectors.findings"] += len(found)
        _count(facts, run.counts)
    report = filter_by_impact(Report(inputs, findings), RunConfig().min_impact)
    with tracer.span("report.render"):
        run.rendered = render(report, fmt)
    run.wall_s = time.perf_counter() - started
    return run


def _source(text: str, path: str, tracer: Tracer):
    with tracer.span("lexer.tokenize", path):
        tokens = tokenize(text, path)
    with tracer.span("parser.parse", path):
        result = parse(tokens, path)
    diagnostics = list(result.diagnostics)
    contracts = []
    for contract in result.unit.contracts:
        with tracer.span("semantic.flatten", path):
            table = flatten_contract(result.unit, contract, diagnostics)
        with tracer.span("semantic.call_graph", path):
            graph = build_call_graph(table)
        with tracer.span("semantic.def_use", path):
            defuse = [(fn, compute_def_use(fn)) for fn in contract.functions]
        contracts.append(ContractFacts(contract, table, graph, defuse))
    facts = SourceFacts(path, result.unit, contracts, diagnostics)
    found = []
    for desc, config in ALONE:
        with tracer.span(f"detectors.{desc.code}", path):
            found += run_detectors(AnalysisContext(source=facts, config=config))
    return (tokens, result), found


def _bytecode(text: str, path: str, tracer: Tracer):
    with tracer.span("evm.disasm", path):
        instructions = disassemble(text)
    with tracer.span("evm.cfg", path):
        cfg = build_cfg(instructions)
    with tracer.span("evm.dominators", path):
        compute_dominators(cfg)
    with tracer.span("evm.loops", path):
        loops = detect_loops(cfg)
    with tracer.span("evm.selectors", path):
        selectors = extract_selectors(cfg)
    facts = BytecodeFacts(path, decode_bytecode_input(text), instructions, cfg,
                          loops, selectors)
    found = []
    for desc, config in ALONE:
        if "bytecode" in desc.frontends:
            with tracer.span(f"detectors.bc.{desc.code}", path):
                found += run_detectors(AnalysisContext(bytecode=facts,
                                                       config=config))
    return facts, found


def _count(facts, counts: dict[str, int]) -> None:
    """Add one file's work counts, outside its spans."""
    if isinstance(facts, BytecodeFacts):
        cfg = facts.cfg
        counts["evm.instructions"] += len(facts.instructions)
        counts["evm.blocks"] += len(cfg.blocks)
        counts["evm.reachable_blocks"] += len(cfg.reachable())
        counts["evm.capped_blocks"] += len(cfg.capped_blocks)
        counts["evm.unresolved_jumps"] += len(cfg.unresolved_jumps)
        counts["evm.loops"] += len(facts.loops)
        counts["evm.bounded_loops"] += sum(loop.is_bounded for loop in facts.loops)
        counts["evm.selectors"] += len(facts.selectors)
    else:
        tokens, result = facts
        counts["lexer.tokens"] += len(tokens)
        counts["parser.nodes"] += sum(1 for _ in walk(result.unit))
        counts["parser.diagnostics"] += len(result.diagnostics)
