"""Drives analysis over files: builds facts, runs detectors, merges reports.

File-level parallelism runs on forked worker processes (`workers.py`),
which stream each file's outcome back as it is done; outcomes are put back
in input order before the report is built, so output is byte-identical
regardless of the worker count.

The EVM frontend and the bytecode detectors load with the first bytecode
input: ``analyze_paths`` loads them, and OpenSSL's ``hashlib``, before it
forks, so that no worker loads a module of its own.
"""

from __future__ import annotations

import hashlib
import os
import re

from .config import RunConfig
from .detectors import (AnalysisContext, BytecodeFacts, ContractFacts,
                        SourceFacts, run_detectors)
from .lexer import tokenize
from .parser import ParseResult, parse
from .records import field, record
from .report import Finding, InputRecord, Report
from .semantic import flatten_contract
from .spans import Diagnostic, Span

SOURCE_EXTENSIONS = (".sol",)
BYTECODE_EXTENSIONS = (".hex", ".bin")


@record
class FileOutcome:
    path: str
    digest: str = ""
    findings: list[Finding] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    error: str | None = None  # I/O or fatal per-file failure
    phase: str | None = None  # where `error` arose: "read", "lex", ...


def source_facts(result: ParseResult, file_id: str) -> SourceFacts:
    """Each contract's flat symbol table, with its merge warnings: the facts
    every run needs. A detector's first read builds the rest."""
    facts = SourceFacts(file_id, result.unit, [], list(result.diagnostics))
    for contract in result.unit.contracts:
        table = flatten_contract(result.unit, contract, facts.diagnostics)
        facts.contracts.append(ContractFacts(contract, table))
    return facts


def build_bytecode_facts(code: bytes, file_id: str) -> BytecodeFacts:
    from .evm import cfg, disasm, loops, selectors
    disassembly = disasm.disassemble(code)
    graph = cfg.build_cfg(disassembly)
    return BytecodeFacts(file_id, disassembly.code, disassembly, graph,
                         loops.detect_loops(graph),
                         selectors.extract_selectors(graph))


def file_mode(path: str, mode: str) -> str:
    if mode != "auto":
        return mode
    if path.endswith(BYTECODE_EXTENSIONS):
        return "bytecode"
    return "source"


def collect_inputs(paths: list[str], mode: str) -> list[str]:
    """Expand directories, keep a sorted, deduplicated file list."""
    files: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, _dirs, names in os.walk(path):
                for name in sorted(names):
                    if name.endswith(SOURCE_EXTENSIONS + BYTECODE_EXTENSIONS):
                        files.append(os.path.join(root, name))
        else:
            files.append(path)
    return sorted(dict.fromkeys(files))


def analyze_file(path: str, config: RunConfig) -> FileOutcome:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        return FileOutcome(path, error=f"cannot read {path}: {exc.strerror or exc}",
                           phase="read")
    return analyze_input(raw, path, config)


def analyze_input(raw: bytes, path: str, config: RunConfig) -> FileOutcome:
    """Analyze one input's bytes; ``path`` names it and picks its frontend."""
    outcome = FileOutcome(path, hashlib.sha256(raw).hexdigest())
    phase = "decode"
    try:
        if file_mode(path, config.mode) == "bytecode":
            from .evm.disasm import decode_bytecode_input
            code = decode_bytecode_input(_bytecode_input(raw, path))
            phase = "bytecode facts"
            facts = build_bytecode_facts(code, path)
            ctx = AnalysisContext(bytecode=facts, config=config.detectors)
            diagnostics = []
            if facts.cfg.out_of_budget:
                diagnostics.append(_budget_warning(path))
        else:
            text = raw.decode("utf-8")
            phase = "lex"
            tokens = tokenize(text, path)
            phase = "parse"
            parsed = parse(tokens, path)
            phase = "semantic"
            facts = source_facts(parsed, path)
            ctx = AnalysisContext(source=facts, config=config.detectors)
            diagnostics = facts.diagnostics
        phase = "detectors"
        outcome.findings = run_detectors(ctx)
        outcome.diagnostics = diagnostics + ctx.diagnostics
    except Exception as exc:  # a bad input fails its own file, not the run
        outcome.error = f"{path}: {phase} failed: {type(exc).__name__}: {exc}"
        outcome.phase = phase
    return outcome


def _budget_warning(path: str) -> Diagnostic:
    from .evm.cfg import STEP_BUDGET
    return Diagnostic("warning", "control-flow recovery stopped after "
                      f"{STEP_BUDGET} emulation steps; the CFG and "
                      "the bytecode findings are incomplete",
                      Span(path, 0, 0), 1, 1)


def _bytecode_input(raw: bytes, path: str) -> bytes | str:
    """A bytecode input's hex text, or its raw bytes when it is not hex.

    A `.hex` input must be hex text; any other input (`.bin`, or any file
    under `--mode bytecode`) may be either.
    """
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError:
        text = None
    if text is not None and _looks_like_hex_text(text):
        return text
    if not path.endswith(".hex"):
        return raw
    if text is not None and not text.strip():
        return ""  # an empty .hex file holds no code
    from .evm.disasm import BytecodeError
    raise BytecodeError("a .hex input must hold hex text")


# exactly the characters an unprefixed hex text may hold
_HEX_TEXT = re.compile(r"[0-9a-fA-F \t\r\n]+")


def _looks_like_hex_text(text: str) -> bool:
    body = text.strip()
    if body[:2].lower() == "0x":
        return True
    return _HEX_TEXT.fullmatch(body) is not None


def worker_count(jobs: int, inputs: int) -> int:
    """How many processes analyze ``inputs`` files at ``--jobs jobs``: 0
    means one per CPU this process may run on, and there is never more than
    one per input."""
    if jobs == 0:
        jobs = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
    return min(jobs, inputs)


def analyze_paths(paths: list[str], config: RunConfig) -> tuple[Report, list[FileOutcome]]:
    files = collect_inputs(paths, config.mode)
    if any(file_mode(path, config.mode) == "bytecode" for path in files):
        # the EVM frontend, loaded here once rather than once per worker
        from .detectors import bytecode  # noqa: F401
        from .evm import loops, selectors  # noqa: F401
    workers = worker_count(config.jobs, len(files))
    outcomes: list[FileOutcome]
    if workers <= 1 or not hasattr(os, "fork"):
        outcomes = [analyze_file(path, config) for path in files]
    else:
        from .workers import map_forked
        outcomes = map_forked(lambda path: analyze_file(path, config), files,
                              workers, [_size(path) for path in files],
                              _worker_failure)
    findings: list[Finding] = []
    inputs: list[InputRecord] = []
    for outcome in outcomes:
        findings.extend(outcome.findings)
        if outcome.error is None:
            inputs.append(InputRecord(outcome.path, outcome.digest))
    report = Report(inputs, findings)
    return report, outcomes


def _size(path: str) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0  # analyze_file records why it cannot read the file


def _worker_failure(path: str, why: str) -> FileOutcome:
    return FileOutcome(path, error=f"{path}: worker failed: the process "
                                   f"analyzing it {why}", phase="worker")
