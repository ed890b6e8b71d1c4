from __future__ import annotations

import importlib.util
import os
import random
import sys

import pytest

from soldefect.analyzer import FileOutcome, analyze_input
from soldefect.config import RunConfig
from soldefect.keccak import keccak256
from soldefect.lexer import tokenize
from soldefect.parser import ParseResult, parse
from soldefect.report import Report

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "corpus", "listings")

# 200 nested parentheses exceed the parser's nesting limit
DEEP_CONTRACT = ("contract Deep {\n    function f() returns (uint) {\n"
                 "        return " + "(" * 200 + "1" + ")" * 200 + ";\n    }\n}\n")


@pytest.fixture(scope="session")
def corpus_dir() -> str:
    return os.path.abspath(CORPUS_DIR)


def parse_source(source_text: str, file_id: str) -> ParseResult:
    """Lex and parse a source text; a lexer error raises."""
    return parse(tokenize(source_text, file_id), file_id)


def has_errors(result: ParseResult) -> bool:
    """Whether parsing reported a syntax error."""
    return any(d.severity == "error" for d in result.diagnostics)


def keccak256_hex(data: bytes) -> str:
    return keccak256(data).hex()


def function_selector(signature: str) -> bytes:
    """First 4 bytes of keccak256 of a canonical function signature."""
    return keccak256(signature.encode("ascii"))[:4]


def bench_module(name: str):
    """The module ``bench/<name>.py``, imported without writing bytecode
    under bench/."""
    path = os.path.join(os.path.dirname(__file__), "..", "bench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    saved = sys.modules.get(name)
    sys.modules[name] = module  # dataclasses look their module up
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        if saved is None:
            del sys.modules[name]
        else:
            sys.modules[name] = saved
    return module


def read_listing(name: str) -> str:
    with open(os.path.join(CORPUS_DIR, name), "r", encoding="utf-8") as fh:
        return fh.read()


LISTINGS = ("listing1.sol", "listing2.sol", "listing3.sol", "listing4.sol")
MUTATIONS = ("delete", "duplicate", "brace", "semicolon")


def mutate(text: str, mutation: str, start: int, width: int) -> str:
    end = min(start + width, len(text))
    if mutation == "delete":
        return text[:start] + text[end:]
    if mutation == "duplicate":
        return text[:end] + text[start:end] + text[end:]
    return text[:start] + ("}" if mutation == "brace" else ";") + text[start:]


def span_contains(outer, inner) -> bool:
    """Whether span ``inner`` lies within span ``outer``."""
    return (outer.file_id == inner.file_id and outer.offset <= inner.offset
            and inner.offset + inner.length <= outer.offset + outer.length)


def seeded_mutants(seed: int = 20191, per_listing: int = 300):
    """A fixed set of mutated listings: (listing, mutation, text), the four
    mutations in turn, each a 1-40 character span at a random offset."""
    rng = random.Random(seed)
    for name in LISTINGS:
        text = read_listing(name)
        for k in range(per_listing):
            mutation = MUTATIONS[k % len(MUTATIONS)]
            yield name, mutation, mutate(text, mutation, rng.randrange(len(text)),
                                         rng.randint(1, 40))


def clean_outcome(raw: bytes, name: str, config=None) -> FileOutcome:
    """Analyze one input as the CLI would; a per-file error or an error
    diagnostic (a parse error, a detector that raised) fails the caller."""
    outcome = analyze_input(raw, name, config or RunConfig())
    if outcome.error is not None:
        raise AssertionError(outcome.error)
    errors = [str(d) for d in outcome.diagnostics if d.severity == "error"]
    if errors:
        raise AssertionError("; ".join(errors))
    return outcome


def findings_for(source: str, config=None) -> list:
    """Analyze a source snippet and return its findings, sorted."""
    outcome = clean_outcome(source.encode("utf-8"), "snippet.sol", config)
    return Report([], outcome.findings).findings


def bytecode_findings(code: bytes, config=None) -> list:
    """Analyze bytecode as the hex text a `.hex` file holds."""
    return clean_outcome(("0x" + code.hex()).encode(), "probe.hex", config).findings


def hits(source: str, config=None) -> set[tuple[str, int]]:
    """(detector id, line) pairs for a snippet."""
    return {(f.detector, f.line) for f in findings_for(source, config)}


def detectors_fired(source: str, config=None) -> set[str]:
    return {f.detector for f in findings_for(source, config)}


def no_child_left() -> bool:
    """No child process of this one is left, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False
