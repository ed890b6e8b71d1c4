"""Findings snapshot: refactors of the facts, the detectors or the renderers
must leave the rendered JSON and SARIF reports byte-identical.

Three corpora. The source corpus is 40 synthetic 80-function contracts plus
the golden listings. The mixed corpus holds the hand-assembled bytecode
programs of `asm.py` as `.hex` files and one contract whose balance `!=`
check and unconditioned `tx.origin` only the strict configuration flags.
The inheritance corpus holds contracts that reach the bodies, modifiers and
state of their bases: a payable chain, a circuit breaker declared in a base,
an override, a diamond and a repeated contract name.
Each hash is the sha256 of the JSON or SARIF report with the corpus
directory prefix removed from every path, so it does not depend on where the
temporary directory lives.

A third hash pins the EVM frontend's facts for the `asm.py` programs:
blocks, dominators, emulation events, loops and selectors.

A fourth pins the parser's trees, every node with its span, over the golden
listings, a few synthetic contracts and the 1,200 seeded mutants, so a
refactor of the parser or its recovery cannot change a tree unseen.

A fifth pins every diagnostic and per-file error over the same inputs, as
`analyze_input` reports them: the positions of syntax errors, of lexer
errors and of warnings, and the words of each.
"""

from __future__ import annotations

import glob
import hashlib
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import soldefect

from soldefect.analyzer import analyze_input, analyze_paths
from soldefect.config import DetectorConfig, RunConfig
from soldefect.evm.cfg import build_cfg
from soldefect.evm.loops import detect_loops
from soldefect.evm.selectors import extract_selectors
from soldefect.lexer import LexerError
from soldefect.report import filter_by_impact, render
from soldefect.spans import position
from asm import (BALANCE_EQ, CALL_BODY, PUSH20_LITERAL, counted_loop,
                 dispatcher, storage_bound_loop)
from conftest import (CORPUS_DIR, LISTINGS, parse_source, read_listing,
                      seeded_mutants)
from synth import generate_contract_file, write_corpus

SNAPSHOTS = {
    "default": "2ac9ce13800db88b27ddf479a2243a3cac3b8a649368ca396507faea772c8dfc",
    "strict": "2ac9ce13800db88b27ddf479a2243a3cac3b8a649368ca396507faea772c8dfc",
}

MIXED_SNAPSHOTS = {
    "default": "27edb5ca389ccc39cf9550b2dc17c278a54994f8507e84a2fd17bbe015c7a616",
    "strict": "c0f28e995e945e45eb0126313986aa648d32facccf14e56b6c68dc28629cef90",
}

SARIF_SNAPSHOTS = {
    ("source", "default"): "3eee03d764545f57d466d6cd5d13641d955a7e4de4e0dc04ab55b5aec6b51970",
    ("source", "strict"): "3eee03d764545f57d466d6cd5d13641d955a7e4de4e0dc04ab55b5aec6b51970",
    ("mixed", "default"): "c026be36b5ca383bbb788fe15031669c86519fdfdb8ba6811bb2535e952bb579",
    ("mixed", "strict"): "adad4ba2795ddcf88cacddc8b66ee41cca855b749b245ebf2c0056669890b753",
    ("inheritance", "default"): "cde4a25fb577418ee5a844c5a5da01cd2e9e00c28d13555d50fd53c9780dd94f",
    ("inheritance", "strict"): "40dac5be151916c242698225306ada57b0de607cb2117f40ffd65ddaa356c1b5",
}

INHERITANCE_SNAPSHOTS = {
    "default": "68d6695f37c207a29a85658922741e44cdd0930f0ba930c9e1d443c8f32dc56a",
    "strict": "3cd533027c73756ddffda2eecc943ea67713be75ef60701f8e96c13fa4846238",
}

EVM_FACTS_SNAPSHOT = "f62fa8ff2c58d7f9e07bb6f7900b4886bd683e4721f1ccdaeecc245a1a94b0ed"

DIAGNOSTICS_SNAPSHOT = "d453c08a4c906a614142149493f0cf455dc9ac56280410590e4e0337f3d575be"

TREE_SNAPSHOT = "3e7749c3408194ed223d895d137614a7a31c296b0dd23c440a5cdc9b3b23dec0"

# transfer(address,uint256) and balanceOf(address): a partial ERC-20
TRANSFER, BALANCE_OF = 0xa9059cbb, 0x70a08231

MIXED_PROGRAMS = {
    "nested_call.hex": storage_bound_loop(CALL_BODY),
    "counted_loop.hex": counted_loop(5, CALL_BODY),
    "dispatcher.hex": dispatcher({TRANSFER: "t1", BALANCE_OF: "t2"}),
    "balance_eq.hex": BALANCE_EQ,
    "push20.hex": PUSH20_LITERAL,
}

EVM_PROGRAMS = {
    "counted_loop": counted_loop(5),
    "counted_call_loop": counted_loop(5, CALL_BODY),
    "storage_call_loop": storage_bound_loop(CALL_BODY),
    "dispatcher_2": dispatcher({0x11111111: "one", 0x22222222: "two"}),
    "dispatcher_20": dispatcher({0x10000000 + i: f"f{i}" for i in range(20)},
                                CALL_BODY),
    "partial_erc20": dispatcher({TRANSFER: "t1", BALANCE_OF: "t2"}),
    "balance_eq": BALANCE_EQ,
    "push20": PUSH20_LITERAL,
}

STRICT_ONLY_SOURCE = """contract Vault {
    address owner;
    function sweep() public {
        if (this.balance != 0) { owner.transfer(this.balance); }
    }
    function origin() public returns (address) {
        address who = tx.origin;
        return who;
    }
}
"""

INHERITANCE_SOURCES = {
    # a payable chain: the way out of the ether is declared in a base
    "chain.sol": """pragma solidity ^0.4.24;
contract Bank {
    address owner;
    function withdraw() public { owner.transfer(this.balance); }
}
contract Vault is Bank {
    function deposit() public payable { }
}
contract Safe is Vault {
    function top() public payable { deposit(); }
}
contract Doomed {
    function kill() public { selfdestruct(msg.sender); }
}
contract Tomb is Doomed {
    function() public payable { }
}
contract Pot {
    function put() public payable { }
}
contract Jar is Pot {
    function add() public payable { put(); }
}
""",
    # an owner-gated circuit breaker, and the modifier that gates it, in a base
    "pausable.sol": """pragma solidity ^0.4.24;
contract Pausable {
    address owner;
    bool paused;
    address constant ADMIN = 0xDCaD000000000000000000000000000005D1d3aD;
    modifier onlyOwner() { require(msg.sender == owner); _; }
    function pause() public onlyOwner { paused = true; }
    function guard() public { require(!paused); }
}
contract Kiosk is Pausable {
    function() public payable { }
}
contract Shop is Pausable {
    byte[] receipts;
    function buy() public payable { require(!paused); }
    function close() public onlyOwner { paused = true; }
}
contract Stall is Shop {
    function sell(uint price) public payable onlyOwner returns (uint) { return price; }
}
""",
    # an override, and a diamond over the same base
    "diamond.sol": """pragma solidity ^0.4.24;
contract Top {
    address owner;
    function pay() public payable { }
    function drain() public { owner.send(this.balance); }
    function sweep() public { if (this.balance != 0) { owner.transfer(this.balance); } }
}
contract Left is Top {
    function drain() public { }
}
contract Right is Top {
    function pay() public payable { owner.transfer(msg.value); }
}
contract Bottom is Left, Right {
    function spare(uint x) public returns (uint) { uint y = x; return 1; }
}
""",
    # an unbounded loop over base state, and a public array-parameter
    # function that only a derived contract calls
    "registry.sol": """pragma solidity ^0.4.24;
contract Registry {
    address[] members;
    uint[] amounts;
    function sum(uint[] xs) public returns (uint) {
        uint total = 0;
        for (uint i = 0; i < xs.length; i++) { total += xs[i]; }
        return total;
    }
}
contract Payout is Registry {
    function pay() public {
        for (uint i = 0; i < members.length; i++) { members[i].transfer(amounts[i]); }
    }
    function total() public returns (uint) { return sum(amounts); }
}
""",
    # a repeated contract name: a base resolves to the last of its name
    "repeated.sol": """pragma solidity ^0.4.24;
contract Token {
    function mint() public payable { }
}
contract Token {
    address owner;
    function mint() public payable { }
    function burn() public { selfdestruct(owner); }
}
contract Coin is Token {
    function give() public payable { }
}
""",
}

CONFIGS = {
    "default": DetectorConfig(),
    "strict": DetectorConfig(strict_balance_neq=True,
                             strict_tx_origin_all_uses=True),
}


@pytest.fixture(scope="module")
def snapshot_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("snapshot") / "corpus"
    root.mkdir()
    write_corpus(root, 40, functions_per_contract=80, seed=7)
    listings = root / "listings"
    listings.mkdir()
    for path in sorted(glob.glob(os.path.join(CORPUS_DIR, "*.sol"))):
        shutil.copy(path, listings)
    return root


@pytest.fixture(scope="module")
def mixed_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("snapshot") / "mixed"
    root.mkdir()
    for name, code in MIXED_PROGRAMS.items():
        (root / name).write_text("0x" + code.hex() + "\n", encoding="ascii")
    (root / "strict.sol").write_text(STRICT_ONLY_SOURCE, encoding="utf-8")
    return root


@pytest.fixture(scope="module")
def inheritance_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("snapshot") / "inheritance"
    root.mkdir()
    for name, text in INHERITANCE_SOURCES.items():
        (root / name).write_text(text, encoding="utf-8")
    return root


@pytest.fixture(scope="module")
def reports():
    """The report of each (corpus, configuration), analyzed once for every
    format that renders it."""
    return {}


def snapshot_hash(root, name: str, reports: dict, format: str = "json") -> str:
    key = (str(root), name)
    if key not in reports:
        report, outcomes = analyze_paths(
            [str(root)], RunConfig(jobs=1, detectors=CONFIGS[name]))
        assert all(o.error is None for o in outcomes)
        reports[key] = report
    rendered = render(reports[key], format).replace(
        (str(root) + os.sep).encode("utf-8"), b"")
    return hashlib.sha256(rendered).hexdigest()


@pytest.mark.parametrize("name", sorted(SNAPSHOTS))
def test_findings_snapshot(snapshot_corpus, reports, name):
    assert snapshot_hash(snapshot_corpus, name, reports) == SNAPSHOTS[name]


@pytest.mark.parametrize("name", sorted(MIXED_SNAPSHOTS))
def test_mixed_findings_snapshot(mixed_corpus, reports, name):
    assert snapshot_hash(mixed_corpus, name, reports) == MIXED_SNAPSHOTS[name]


@pytest.mark.parametrize("name", sorted(INHERITANCE_SNAPSHOTS))
def test_inheritance_findings_snapshot(inheritance_corpus, reports, name):
    assert snapshot_hash(inheritance_corpus, name, reports) == \
        INHERITANCE_SNAPSHOTS[name]


@pytest.mark.parametrize("corpus,name", sorted(SARIF_SNAPSHOTS),
                         ids=lambda value: value)
def test_sarif_snapshot(request, reports, corpus, name):
    root = request.getfixturevalue(
        {"source": "snapshot_corpus", "mixed": "mixed_corpus",
         "inheritance": "inheritance_corpus"}[corpus])
    assert snapshot_hash(root, name, reports, "sarif") == \
        SARIF_SNAPSHOTS[corpus, name]


def test_report_bytes_do_not_depend_on_the_hash_seed(mixed_corpus):
    # in-process and forked runs share one hash seed; fresh interpreters
    # with different seeds would expose set or dict order reaching the report
    src = os.path.dirname(os.path.dirname(os.path.abspath(soldefect.__file__)))
    command = [sys.executable, "-m", "soldefect.cli", "analyze", "--format",
               "json", "--jobs", "1", os.path.abspath(CORPUS_DIR),
               str(mixed_corpus)]
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        run = subprocess.run(command, env=env, capture_output=True, check=False)
        assert run.returncode == 1, run.stderr.decode()  # 1 = findings present
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]


@pytest.fixture(scope="module")
def bench_tracing():
    """bench/tracing.py, the benchmark's traced copy of the per-file
    pipeline, imported without writing bytecode under bench/."""
    path = os.path.join(os.path.dirname(__file__), "..", "bench", "tracing.py")
    spec = importlib.util.spec_from_file_location("tracing", path)
    module = importlib.util.module_from_spec(spec)
    saved = sys.modules.get("tracing")
    sys.modules["tracing"] = module  # dataclasses look their module up
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        if saved is None:
            del sys.modules["tracing"]
        else:
            sys.modules["tracing"] = saved
    return module


@pytest.mark.parametrize("format", ["json", "sarif"])
@pytest.mark.parametrize("corpus", ["listings", "mixed", "inheritance"])
def test_bench_traced_pass_renders_the_serial_report(request, bench_tracing,
                                                      corpus, format):
    # the benchmark calls each layer itself, so a change to a call it makes
    # breaks the benchmark, not the program: its report must stay the same
    root = CORPUS_DIR if corpus == "listings" else \
        str(request.getfixturevalue(f"{corpus}_corpus"))
    run = bench_tracing.traced_pass(root, format, bench_tracing.Tracer())
    assert run.errors == {}
    config = RunConfig(jobs=1)
    report, _outcomes = analyze_paths([root], config)
    assert run.rendered == render(filter_by_impact(report, config.min_impact),
                                  format)


def render_value(value) -> str:
    """An abstract value as text, taint tags sorted so no set order leaks."""
    kind = value[0]
    if kind == "const":
        return hex(value[1])
    if kind == "taint":
        return "taint(" + ",".join(sorted(value[1])) + ")"
    if kind == "cmp":
        _, op, pc, a, b = value
        return f"{op}@{pc}({render_value(a)},{render_value(b)})"
    if kind == "iszero":
        return f"iszero({render_value(value[1])})"
    if kind == "widened":
        return "widened"
    return "unknown"


def evm_facts(code: bytes) -> dict:
    cfg = build_cfg(code)
    return {
        "blocks": [[b.id, b.terminator, b.successors] for b in cfg.blocks.values()],
        "dominators": sorted(cfg.dominators.items()),
        "reachable": sorted(cfg.reachable()),
        "capped": sorted(cfg.capped_blocks),
        "unresolved": cfg.unresolved_jumps,
        "jumpi": [[e.block, e.pc, render_value(e.condition), e.target]
                  for e in cfg.jumpi_events],
        "loops": [[loop.header, sorted(loop.body), loop.bound]
                  for loop in detect_loops(cfg)],
        "selectors": sorted(extract_selectors(cfg).items()),
    }


def test_evm_facts_snapshot():
    facts = {name: evm_facts(code) for name, code in EVM_PROGRAMS.items()}
    blob = json.dumps(facts, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == EVM_FACTS_SNAPSHOT


def parser_inputs() -> list[str]:
    """The golden listings, five synthetic contracts and the seeded mutants."""
    texts = [read_listing(name) for name in LISTINGS]
    texts += [generate_contract_file(seed) for seed in range(1, 6)]
    texts += [text for _, _, text in seeded_mutants()]
    return texts


def test_diagnostics_snapshot():
    digest = hashlib.sha256()
    for text in parser_inputs():
        outcome = analyze_input(text.encode("utf-8"), "t.sol", RunConfig())
        for line in [str(d) for d in outcome.diagnostics] + [str(outcome.error)]:
            digest.update(line.encode("utf-8") + b"\n")
    assert digest.hexdigest() == DIAGNOSTICS_SNAPSHOT


_SPAN_REPR = re.compile(r"Span\(file_id='([^']*)', offset=(\d+), length=(\d+)\)")


def tree_text(unit) -> str:
    """``repr(unit)`` with each span written in the five-field form the
    hash was first taken over: file, line, column, offset, length."""
    def old_form(m: re.Match) -> str:
        offset = int(m[2])
        line, column = position(unit.line_starts, offset)
        return (f"Span(file_id='{m[1]}', line={line}, column={column}, "
                f"offset={offset}, length={m[3]})")
    return _SPAN_REPR.sub(old_form, repr(unit))


def test_tree_snapshot():
    digest = hashlib.sha256()
    for text in parser_inputs():
        try:
            unit = parse_source(text, "t.sol").unit
        except LexerError:
            continue  # fatal per file, before the parser runs
        digest.update(tree_text(unit).encode("utf-8") + b"\n")
    assert digest.hexdigest() == TREE_SNAPSHOT
