from __future__ import annotations

import gc
import os
import pathlib
import selectors
import signal

import pytest
from hypothesis import given, strategies as st

from soldefect import analyzer
from soldefect.analyzer import (_looks_like_hex_text, analyze_file,
                                analyze_input, analyze_paths, collect_inputs,
                                file_mode, worker_count)
from soldefect.config import RunConfig
from soldefect.report import render

from asm import (BALANCE_EQ, CALL_BODY, DEAD_CALL_INTO_LOOP, STACK_OVERFLOW,
                 counted_loop, dispatcher, storage_bound_loop)
from conftest import CORPUS_DIR, DEEP_CONTRACT, no_child_left, read_listing
from synth import generate_contract_file, write_corpus


def test_file_mode_auto_by_extension():
    assert file_mode("a.sol", "auto") == "source"
    assert file_mode("a.hex", "auto") == "bytecode"
    assert file_mode("a.bin", "auto") == "bytecode"
    assert file_mode("a.hex", "source") == "source"
    assert file_mode("a.sol", "bytecode") == "bytecode"


def test_collect_inputs_walks_and_sorts(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "b.sol").write_text("contract B{}")
    (tmp_path / "sub" / "a.sol").write_text("contract A{}")
    (tmp_path / "sub" / "code.hex").write_text("0x00")
    (tmp_path / "notes.txt").write_text("ignored")
    files = collect_inputs([str(tmp_path)], "auto")
    assert [os.path.basename(f) for f in files] == ["b.sol", "a.sol", "code.hex"]
    # explicit files are kept even without a known extension
    assert collect_inputs([str(tmp_path / "notes.txt")], "auto") \
        == [str(tmp_path / "notes.txt")]


def test_analyze_file_records_digest_and_findings(tmp_path):
    path = tmp_path / "listing3.sol"
    path.write_text(read_listing("listing3.sol"))
    outcome = analyze_file(str(path), RunConfig())
    assert outcome.error is None
    assert len(outcome.digest) == 64
    assert any(f.detector == "greedy-contract" for f in outcome.findings)


def test_analyze_file_bytecode_hex_text(tmp_path):
    path = tmp_path / "loop.hex"
    path.write_text("0x" + storage_bound_loop(CALL_BODY).hex())
    outcome = analyze_file(str(path), RunConfig())
    assert outcome.error is None
    assert {f.detector for f in outcome.findings} == {"nested-call"}


def test_analyze_file_bytecode_raw_binary(tmp_path):
    path = tmp_path / "loop.bin"
    path.write_bytes(storage_bound_loop(CALL_BODY))
    outcome = analyze_file(str(path), RunConfig())
    assert outcome.error is None
    assert {f.detector for f in outcome.findings} == {"nested-call"}


def test_hex_file_must_hold_hex_text(tmp_path):
    for name, data in [("bad.hex", b"not hex at all"),
                       ("binary.hex", storage_bound_loop(CALL_BODY)),
                       ("odd.hex", b"0x600")]:
        (tmp_path / name).write_bytes(data)
        outcome = analyze_file(str(tmp_path / name), RunConfig())
        assert outcome.error.startswith(f"{tmp_path / name}: decode failed: "
                                        "BytecodeError: ")
    # an empty .hex file holds no code; a .bin file may hold raw bytes
    (tmp_path / "empty.hex").write_bytes(b"\n")
    (tmp_path / "text.bin").write_bytes(b"not hex at all")
    for name in ("empty.hex", "text.bin"):
        assert analyze_file(str(tmp_path / name), RunConfig()).error is None


def _looks_like_hex_text_by_character(text: str) -> bool:
    """The check that ``_looks_like_hex_text`` replaced, kept as its oracle."""
    body = text.strip()
    if body[:2].lower() == "0x":
        return True
    return bool(body) and all(c in "0123456789abcdefABCDEF \t\r\n" for c in body)


# the characters that the checks accept, and whitespace that strip() takes
# but that the checks refuse inside the text
_HEX_OR_SPACE = "0123456789abcdefABCDEF \t\r\n\x0b\x0c\x1c\x85\xa0"


@given(st.sampled_from(["", "0x", "0X", " 0x", "\n0X", "x0"]),
       st.text(_HEX_OR_SPACE, max_size=40), st.integers(0, 40),
       st.one_of(st.just(""), st.characters()))
def test_hex_text_check_matches_the_character_by_character_check(
        prefix, body, at, stray):
    text = prefix + body[:at] + stray + body[at:]
    assert _looks_like_hex_text(text) == _looks_like_hex_text_by_character(text)


def test_step_budget_run_out_is_a_warning(monkeypatch):
    from soldefect.evm import cfg
    code = "0x" + counted_loop(5).hex()
    outcome = analyze_input(code.encode(), "loop.hex", RunConfig())
    assert outcome.diagnostics == []
    monkeypatch.setattr(cfg, "STEP_BUDGET", 12)
    outcome = analyze_input(code.encode(), "loop.hex", RunConfig())
    assert outcome.error is None
    [warning] = outcome.diagnostics
    assert (warning.severity, warning.span, warning.line, warning.column) \
        == ("warning", ("loop.hex", 0, 0), 1, 1)


def test_unreadable_file_reports_io_error(tmp_path):
    outcome = analyze_file(str(tmp_path / "nope.sol"), RunConfig())
    assert outcome.error is not None and "cannot read" in outcome.error


def test_serial_and_parallel_reports_equal(tmp_path):
    from synth import write_corpus
    write_corpus(tmp_path, 12)
    serial, _ = analyze_paths([str(tmp_path)], RunConfig(jobs=1))
    parallel, _ = analyze_paths([str(tmp_path)], RunConfig(jobs=4))
    assert serial == parallel


def test_a_killed_worker_costs_only_its_file(tmp_path, monkeypatch):
    # a worker that dies (here by SIGKILL, as from the OOM killer) fails the
    # file it was analyzing and nothing else; the fork passes the patch on
    for path in pathlib.Path(CORPUS_DIR).glob("*.sol"):
        (tmp_path / path.name).write_bytes(path.read_bytes())
    (tmp_path / "killer.sol").write_text("contract K { }")
    serial, serial_outcomes = analyze_paths([str(tmp_path)], RunConfig(jobs=1))
    real = analyzer.analyze_file

    def kill_on_killer(path, config):
        if path.endswith("killer.sol"):
            os.kill(os.getpid(), signal.SIGKILL)
        return real(path, config)

    monkeypatch.setattr(analyzer, "analyze_file", kill_on_killer)
    report, outcomes = analyze_paths([str(tmp_path)], RunConfig(jobs=2))
    [failed] = [o for o in outcomes if o.error is not None]
    assert failed.path == str(tmp_path / "killer.sol")
    assert failed.phase == "worker"
    assert failed.error.endswith("worker failed: the process analyzing it "
                                 "was killed by signal 9 (SIGKILL)")
    assert [o for o in outcomes if o is not failed] \
        == [o for o in serial_outcomes if o.path != failed.path]
    assert report.findings == [f for f in serial.findings if f.file != failed.path]
    assert no_child_left()


def test_an_interrupted_run_leaves_no_child(tmp_path, monkeypatch):
    # the parent kills and reaps every worker when it is interrupted
    from synth import write_corpus
    write_corpus(tmp_path, 8)

    class Interrupted(selectors.DefaultSelector):
        def select(self, timeout=None):
            raise KeyboardInterrupt

    monkeypatch.setattr(selectors, "DefaultSelector", Interrupted)
    with pytest.raises(KeyboardInterrupt):
        analyze_paths([str(tmp_path)], RunConfig(jobs=3))
    assert no_child_left()


def test_worker_count_is_the_usable_cpus_and_at_most_one_per_input(monkeypatch):
    # counted, not forked: --jobs 0 means the CPUs this process may run on
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5},
                        raising=False)
    assert worker_count(0, 100) == 3
    assert worker_count(0, 2) == 2
    assert worker_count(1000, 7) == 7
    assert worker_count(4, 100) == 4
    assert worker_count(0, 0) == 0
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert worker_count(0, 100) == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert worker_count(0, 100) == 1


def test_without_fork_jobs_run_serially(tmp_path, monkeypatch):
    from synth import write_corpus
    write_corpus(tmp_path, 4)
    serial, _ = analyze_paths([str(tmp_path)], RunConfig(jobs=1))
    monkeypatch.delattr(os, "fork")
    assert analyze_paths([str(tmp_path)], RunConfig(jobs=2))[0] == serial


def test_mixed_corpus_source_and_bytecode(tmp_path):
    (tmp_path / "a.sol").write_text(read_listing("listing2.sol"))
    (tmp_path / "b.hex").write_text("0x" + storage_bound_loop(CALL_BODY).hex())
    report, outcomes = analyze_paths([str(tmp_path)], RunConfig(jobs=1))
    assert all(o.error is None for o in outcomes)
    by_detector = {f.detector for f in report.findings}
    assert "reentrancy" in by_detector      # from the source file
    assert "nested-call" in by_detector     # from the bytecode file


@pytest.mark.parametrize("name", ["listing1.sol", "synth.sol"])
def test_findings_have_distinct_identities(name):
    # a detector that flags one line twice (a block-info read and the
    # expression around it, a condition and a modifier) reports it once
    text = (read_listing(name) if name.startswith("listing")
            else generate_contract_file(70_001, 80))
    outcome = analyze_input(text.encode("utf-8"), name, RunConfig())
    identities = [(f.detector, f.file, f.position) for f in outcome.findings]
    assert identities and len(identities) == len(set(identities))


NO_CYCLE_INPUTS = {
    **{path.name: path.read_bytes()
       for path in sorted(pathlib.Path(CORPUS_DIR).glob("*.sol"))},
    "parse_error.sol": b"contract C { function f( { } uint x; }",
    "lex_error.sol": b'contract C { string s = "oops; }',
    "deep.sol": DEEP_CONTRACT.encode("utf-8"),
    **{name + ".hex": ("0x" + code.hex()).encode("ascii") for name, code in {
        "counted_loop": counted_loop(5, CALL_BODY),
        "storage_loop": storage_bound_loop(CALL_BODY),
        "dispatcher": dispatcher({0x11111111: "one", 0x22222222: "two"}),
        "balance_eq": BALANCE_EQ,
        "stack_overflow": STACK_OVERFLOW,
        "dead_call": DEAD_CALL_INTO_LOOP,
    }.items()},
}


@pytest.mark.parametrize("name", sorted(NO_CYCLE_INPUTS))
def test_analysis_leaves_no_reference_cycles(name):
    # reference counting alone must free a file's tree and facts once it is
    # done: a cycle would keep them until the cyclic collector runs
    raw, config = NO_CYCLE_INPUTS[name], RunConfig()
    analyze_input(raw, name, config)  # lazy one-time set-up happens here
    gc.collect()
    gc.disable()
    try:
        analyze_input(raw, name, config)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_run_over_a_directory_leaves_no_reference_cycles(tmp_path):
    # the console process runs without the cyclic collector, so a whole run
    # must be freed by reference counting too: listings, a parse error, a
    # lex error, a too-deep file and bytecode, merged into one report
    for name, raw in NO_CYCLE_INPUTS.items():
        (tmp_path / name).write_bytes(raw)
    config = RunConfig(jobs=1)
    analyze_paths([str(tmp_path)], config)
    gc.collect()
    gc.disable()
    try:
        report, outcomes = analyze_paths([str(tmp_path)], config)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(outcomes) == len(NO_CYCLE_INPUTS)
    assert report.findings and any(o.error for o in outcomes)


def test_rendering_leaves_as_many_cycles_whatever_the_inputs(tmp_path):
    # json.dumps(indent=2) leaves its encoder's closures in a few cycles,
    # the same few however large the report; the text report leaves none
    counts = []
    for count in (2, 40):
        directory = tmp_path / str(count)
        directory.mkdir()
        write_corpus(directory, count)
        report, _ = analyze_paths([str(directory)], RunConfig(jobs=1))
        gc.collect()
        gc.disable()
        try:
            per_format = []
            for fmt in ("text", "json", "sarif"):
                render(report, fmt)
                per_format.append(gc.collect())
        finally:
            gc.enable()
        counts.append(per_format)
    assert counts[0] == counts[1]
    assert counts[0][0] == 0
