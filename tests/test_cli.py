from __future__ import annotations

import gc
import io
import json
import os
import subprocess
import sys

import pytest

from soldefect import cli
from soldefect.cli import FLAG_KEYS, _make_run_config, build_arg_parser, main
from soldefect.parser import MAX_NESTING

from asm import counted_loop
from conftest import DEEP_CONTRACT, read_listing
from synth import write_corpus

CLEAN_CONTRACT = """pragma solidity 0.4.25;
contract Clean {
    uint value;
    function set(uint v) { value = v; }
    function get() returns (uint) { return value; }
}
"""


@pytest.fixture()
def corpus_copy(tmp_path):
    for name in ("listing1.sol", "listing2.sol", "listing3.sol",
                 "listing4.sol", "manifest.txt"):
        (tmp_path / name).write_text(read_listing(name))
    return tmp_path


def test_analyze_clean_contract_exits_zero(tmp_path, capsys):
    path = tmp_path / "clean.sol"
    path.write_text(CLEAN_CONTRACT)
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_analyze_listing1_exits_one(corpus_copy, capsys):
    code = main(["analyze", str(corpus_copy / "listing1.sol")])
    assert code == 1
    out = capsys.readouterr().out
    assert "[transaction-state-dependency][IP1]" in out


def test_analyze_nonexistent_path_exits_three(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "ghost.sol")]) == 3


def test_all_inputs_unparseable_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.sol"
    bad.write_text('contract C { string s = "unterminated; }')
    assert main(["analyze", str(bad)]) == 2


def test_exit_code_follows_the_failed_phase_not_the_file_name(tmp_path, capsys):
    # the lex error's message holds the path, and the path reads "cannot read"
    bad = tmp_path / "cannot read.sol"
    bad.write_text('contract C { string s = "unterminated; }')
    assert main(["analyze", str(bad)]) == 2
    assert "lex failed" in capsys.readouterr().err


def test_stray_brace_is_analyzed_with_few_errors(tmp_path, capsys):
    lines = read_listing("listing2.sol").splitlines(True)
    path = tmp_path / "stray.sol"
    path.write_text("".join(lines[:3] + ["}\n"] + lines[3:]))
    assert main(["analyze", str(path)]) in (0, 1)
    err = capsys.readouterr().err
    assert 1 <= err.count("error:") <= 3


def test_parse_error_in_one_file_does_not_abort(tmp_path, capsys):
    (tmp_path / "bad.sol").write_text('contract C { string s = "oops; }')
    (tmp_path / "good.sol").write_text(read_listing("listing1.sol"))
    code = main(["analyze", str(tmp_path)])
    assert code == 1  # findings from the good file
    err = capsys.readouterr().err
    assert "unterminated string" in err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_deeply_nested_file_fails_alone(tmp_path, capsys, jobs):
    # the too-deep expression is a parse error confined to deep.sol: the
    # parser recovers, and the other file and job counts are unaffected
    (tmp_path / "deep.sol").write_text(DEEP_CONTRACT)
    (tmp_path / "listing2.sol").write_text(read_listing("listing2.sol"))
    runs = {}
    for n in sorted({"1", jobs}):
        code = main(["analyze", str(tmp_path), "--format", "json", "--jobs", n])
        assert code == 1  # findings from listing2
        runs[n] = capsys.readouterr()
    assert runs[jobs] == runs["1"]
    captured = runs[jobs]
    assert captured.err == (f"soldefect: {tmp_path / 'deep.sol'}:3:{16 + MAX_NESTING}: "
                            f"error: nesting deeper than {MAX_NESTING} levels\n")
    data = json.loads(captured.out)
    assert [os.path.basename(i["path"]) for i in data["inputs"]] == \
        ["deep.sol", "listing2.sol"]
    assert any(f["detector"] == "reentrancy" for f in data["findings"])

    # alone it is analyzed, not failed; with its return statement dropped,
    # f() is reported as missing one
    assert main(["analyze", str(tmp_path / "deep.sol"), "--format", "json",
                 "--jobs", jobs]) == 1
    findings = json.loads(capsys.readouterr().out)["findings"]
    assert {f["detector"] for f in findings} == {"missing-return-statement",
                                                  "unspecified-compiler-version"}


def test_hex_file_that_is_not_hex_fails_alone(tmp_path, capsys):
    (tmp_path / "bad.hex").write_text("not hex at all")
    (tmp_path / "listing2.sol").write_text(read_listing("listing2.sol"))
    assert main(["analyze", str(tmp_path), "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert f"soldefect: {tmp_path / 'bad.hex'}: decode failed: BytecodeError" \
        in captured.err
    data = json.loads(captured.out)
    assert [os.path.basename(i["path"]) for i in data["inputs"]] == ["listing2.sol"]

    assert main(["analyze", str(tmp_path / "bad.hex")]) == 2


def test_min_impact_filter(corpus_copy, capsys):
    main(["analyze", str(corpus_copy / "listing1.sol"), "--min-impact", "IP1",
          "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert [f["detector"] for f in data["findings"]] == \
        ["transaction-state-dependency"]


def test_disable_flag(corpus_copy, capsys):
    main(["analyze", str(corpus_copy / "listing1.sol"),
          "--disable", "hard-code-address", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert all(f["detector"] != "hard-code-address" for f in data["findings"])


def test_unknown_detector_id_is_usage_error(corpus_copy, capsys):
    assert main(["analyze", str(corpus_copy / "listing1.sol"),
                 "--disable", "bogus"]) == 2


def test_output_file(corpus_copy, tmp_path):
    out_path = tmp_path / "report.json"
    main(["analyze", str(corpus_copy / "listing3.sol"),
          "--format", "json", "--output", str(out_path)])
    data = json.loads(out_path.read_text())
    assert data["tool"] == "soldefect"


@pytest.mark.parametrize("command", [["analyze", "{dir}"],
                                     ["score", "--manifest", "{dir}/manifest.txt"]],
                         ids=["analyze", "score"])
def test_unwritable_output_is_an_io_error(corpus_copy, tmp_path, capsys, command):
    missing = tmp_path / "no" / "such" / "dir" / "x.json"
    argv = [arg.format(dir=corpus_copy) for arg in command]
    assert main(argv + ["--output", str(missing)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"soldefect: [Errno 2] No such file or directory: '{missing}'"]


def test_directory_without_inputs_exits_three(tmp_path, capsys):
    (tmp_path / "notes.txt").write_text("no contracts here\n")
    assert main(["analyze", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "soldefect: no inputs found\n"


def test_config_file(corpus_copy, tmp_path, capsys):
    config = tmp_path / "soldefect.ini"
    config.write_text("format = json\ndisable = unspecified-compiler-version\n")
    main(["analyze", str(corpus_copy / "listing3.sol"), "--config", str(config)])
    data = json.loads(capsys.readouterr().out)
    assert all(f["detector"] != "unspecified-compiler-version"
               for f in data["findings"])


def test_flag_overrides_config(corpus_copy, tmp_path, capsys):
    config = tmp_path / "soldefect.ini"
    config.write_text("format = json\n")
    main(["analyze", str(corpus_copy / "listing3.sol"),
          "--config", str(config), "--format", "text"])
    out = capsys.readouterr().out
    assert "finding(s)" in out  # text footer, not JSON


def test_config_enable_accepts_a_d_code(corpus_copy, tmp_path, capsys):
    config = tmp_path / "soldefect.ini"
    config.write_text("format = json\nenable = D07\n")
    assert main(["analyze", str(corpus_copy), "--config", str(config)]) == 1
    from_config = capsys.readouterr().out
    assert [(os.path.basename(f["file"]), f["detector"])
            for f in json.loads(from_config)["findings"]] == \
        [("listing2.sol", "reentrancy")]
    assert main(["analyze", str(corpus_copy), "--format", "json",
                 "--enable", "D07"]) == 1
    assert capsys.readouterr().out == from_config


# (command, flags, config key, the value the flags give, another value)
FLAG_CASES = [
    (["analyze", "x.sol"], ["--format", "json"], "format", "json", "sarif"),
    (["analyze", "x.sol"], ["--min-impact", "IP2"], "min_impact", "IP2", "IP4"),
    (["analyze", "x.sol"], ["--mode", "bytecode"], "mode", "bytecode", "source"),
    (["analyze", "x.sol"], ["--jobs", "3"], "jobs", "3", "1"),
    (["score", "--manifest", "m.txt"], ["--enable", "D07", "--enable", "D08,D10"],
     "enable", "D07, D08, D10", "reentrancy"),
    (["score", "--manifest", "m.txt"], ["--disable", "D01,unused-statement"],
     "disable", "D01, unused-statement", "D20"),
    (["fetch", "0x0"], ["--api-base", "https://a.example/api"],
     "fetch.api_base_url", "https://a.example/api", "https://b.example/api"),
    (["fetch", "0x0"], ["--cache-dir", "cache"], "fetch.cache_dir", "cache",
     "elsewhere"),
]


def _run_config(argv):
    return _make_run_config(build_arg_parser().parse_args(argv))


def test_flag_cases_cover_every_flag_key():
    assert {case[2] for case in FLAG_CASES} == set(FLAG_KEYS.values())


@pytest.mark.parametrize("command,flags,key,value,other", FLAG_CASES,
                         ids=[case[2] for case in FLAG_CASES])
def test_a_flag_applies_as_its_config_key(tmp_path, command, flags, key, value,
                                          other):
    same, differing = tmp_path / "same.ini", tmp_path / "other.ini"
    same.write_text(f"{key} = {value}\n")
    differing.write_text(f"{key} = {other}\n")
    from_flags = _run_config(command + flags)
    assert from_flags == _run_config(command + ["--config", str(same)])
    assert from_flags != _run_config(command + ["--config", str(differing)])
    # the flag wins over the file
    assert from_flags == _run_config(command + ["--config", str(differing)]
                                     + flags)


def test_score_reports_the_diagnostics_analyze_reports(tmp_path, capsys):
    (tmp_path / "bad.sol").write_text(
        "contract C { uint x; function f() { x = ; } }\n")
    (tmp_path / "manifest.txt").write_text("")
    main(["analyze", str(tmp_path)])
    errors = [line for line in capsys.readouterr().err.splitlines()
              if ": error: " in line]
    assert errors == [f"soldefect: {tmp_path / 'bad.sol'}:1:41: error: "
                      "unexpected ';' in expression"]
    main(["score", "--manifest", str(tmp_path / "manifest.txt")])
    assert capsys.readouterr().err.splitlines() == errors


def test_bad_config_is_usage_error(corpus_copy, tmp_path):
    config = tmp_path / "bad.ini"
    config.write_text("nonsense_key = 1\n")
    assert main(["analyze", str(corpus_copy / "listing3.sol"),
                 "--config", str(config)]) == 2


def test_score_golden_corpus_exits_zero(corpus_copy, capsys):
    code = main(["score", "--manifest", str(corpus_copy / "manifest.txt")])
    assert code == 0
    assert "overall (micro)" in capsys.readouterr().out


def test_score_extra_expectation_exits_one(corpus_copy, capsys):
    manifest = corpus_copy / "manifest.txt"
    manifest.write_text(manifest.read_text()
                        + "listing4.sol:1:reentrancy\n")
    assert main(["score", "--manifest", str(manifest)]) == 1


def test_score_missing_manifest_exits_two(tmp_path, capsys):
    assert main(["score", "--manifest", str(tmp_path / "none.txt")]) == 2


def test_score_json_format(corpus_copy, capsys):
    main(["score", "--manifest", str(corpus_copy / "manifest.txt"),
          "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert data["overall"]["precision"] == 1.0
    assert data["overall"]["recall"] == 1.0


@pytest.mark.parametrize("flags", [["--format", "sarif"], ["--min-impact", "IP1"]],
                         ids=["sarif", "min-impact"])
def test_score_rejects_flags_it_cannot_honour(corpus_copy, capsys, flags):
    # a score card has no SARIF form, and score scores every label
    assert main(["score", "--manifest", str(corpus_copy / "manifest.txt"),
                 *flags]) == 2
    assert capsys.readouterr().out == ""


def test_score_rejects_a_sarif_format_from_its_config_file(corpus_copy, tmp_path,
                                                          capsys):
    config = tmp_path / "score.ini"
    config.write_text("format = sarif\n")
    manifest = str(corpus_copy / "manifest.txt")
    assert main(["score", "--manifest", manifest, "--config", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "format = sarif" in err
    # the flag overrides the file, as for analyze
    assert main(["score", "--manifest", manifest, "--config", str(config),
                 "--format", "json"]) == 0


def test_score_scores_every_label_whatever_the_config_min_impact(
        corpus_copy, tmp_path, capsys):
    # min_impact is an analyze key: a score card counts all 21 labels
    config = tmp_path / "score.ini"
    config.write_text("min_impact = IP1\nformat = json\n")
    assert main(["score", "--manifest", str(corpus_copy / "manifest.txt"),
                 "--config", str(config)]) == 0
    overall = json.loads(capsys.readouterr().out)["overall"]
    assert (overall["tp"], overall["fp"], overall["fn"]) == (21, 0, 0)


def test_negative_jobs_is_a_usage_error(corpus_copy, tmp_path, capsys):
    config = tmp_path / "jobs.ini"
    config.write_text("jobs = -3\n")
    listing = str(corpus_copy / "listing3.sol")
    assert main(["analyze", listing, "--jobs", "-3"]) == 2
    assert main(["analyze", listing, "--config", str(config)]) == 2
    assert capsys.readouterr().err.count("jobs: expected 0 or more, got -3") == 2
    assert main(["analyze", listing, "--jobs", "0", "--format", "json"]) == 1


def test_detectors_catalog(capsys):
    assert main(["detectors"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 20


def test_detectors_catalog_json(capsys):
    main(["detectors", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert len(data) == 20
    categories = {}
    for entry in data:
        categories[entry["category"]] = categories.get(entry["category"], 0) + 1
    assert categories == {"security": 9, "availability": 4, "performance": 3,
                          "maintainability": 2, "reusability": 2}


def test_detectors_catalog_frontends(capsys):
    # a detector has the bytecode frontend exactly when it has a bytecode
    # implementation; the rest are source-only
    main(["detectors", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    both = [entry["code"] for entry in data
            if entry["frontends"] == ["bytecode", "source"]]
    assert both == ["D03", "D08", "D10", "D17"]
    assert all(entry["frontends"] == ["source"] for entry in data
               if entry["code"] not in both)


def test_bytecode_mode_by_extension(tmp_path, capsys):
    import sys
    sys.path.insert(0, os.path.dirname(__file__))
    from asm import storage_bound_loop, CALL_BODY
    hex_path = tmp_path / "probe.hex"
    hex_path.write_text("0x" + storage_bound_loop(CALL_BODY).hex())
    code = main(["analyze", str(hex_path), "--format", "json"])
    assert code == 1
    data = json.loads(capsys.readouterr().out)
    assert data["findings"][0]["detector"] == "nested-call"
    assert data["findings"][0]["pc"] is not None
    assert data["findings"][0]["line"] is None


@pytest.mark.parametrize("fmt", ["json", "sarif"])
def test_step_budget_warning_goes_to_stderr_only(tmp_path, capsys,
                                                 monkeypatch, fmt):
    from soldefect.evm import cfg
    path = tmp_path / "loop.hex"
    path.write_text("0x" + counted_loop(5).hex())
    assert main(["analyze", str(path), "--format", fmt]) == 0
    full = capsys.readouterr()
    assert full.err == ""
    monkeypatch.setattr(cfg, "STEP_BUDGET", 12)
    assert main(["analyze", str(path), "--format", fmt]) == 0
    cut = capsys.readouterr()
    assert cut.err == (f"soldefect: {path}:1:1: warning: control-flow recovery "
                       "stopped after 12 emulation steps; the CFG and the "
                       "bytecode findings are incomplete\n")
    assert cut.out == full.out  # the report does not carry the warning


def test_fetch_malformed_address_exits_two(capsys):
    assert main(["fetch", "0x1234", "--api-base", "https://example.invalid"]) == 2


def test_usage_error_exits_two(capsys):
    assert main(["analyze"]) == 2


def test_analyze_never_touches_the_network(corpus_copy, monkeypatch):
    import socket

    def explode(*args, **kwargs):
        raise AssertionError("network access during analyze")

    monkeypatch.setattr(socket.socket, "connect", explode)
    monkeypatch.setattr(socket, "create_connection", explode)
    assert main(["analyze", str(corpus_copy / "listing4.sol")]) == 0


# -- the console path: a fresh ``python -m soldefect.cli`` process ------------

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def _cli_process(args, stdout=subprocess.PIPE, command=("-m", "soldefect.cli")):
    """Run the CLI in a fresh interpreter. Its stdout is block-buffered, as
    it is in a pipe, so what reaches the pipe is what it flushed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *command, *map(str, args)],
                          stdout=stdout, stderr=subprocess.PIPE, env=env,
                          timeout=120)


@pytest.fixture()
def noisy_corpus(corpus_copy):
    # the listings, a lexer error, 40 parse errors, a too-deep file and a
    # hex file that is not hex: findings on stdout, diagnostics on stderr
    (corpus_copy / "crlf.sol").write_bytes(
        b'contract C {\r\n  string s = "abc;\r\n}\r\n')
    for k in range(40):
        (corpus_copy / f"perr{k:02}.sol").write_text(
            f"contract P{k} {{\n  function f() {{ x = ; }}\n}}\n")
    (corpus_copy / "deep.sol").write_text(DEEP_CONTRACT)
    (corpus_copy / "bad.hex").write_text("not hex at all")
    return corpus_copy


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("fmt", ["json", "sarif"])
def test_console_run_delivers_the_whole_report_and_every_diagnostic(
        noisy_corpus, tmp_path, capsys, jobs, fmt):
    args = ["analyze", noisy_corpus, "--format", fmt, "--jobs", jobs]
    assert main(list(map(str, args))) == 1
    expected = capsys.readouterr()
    assert expected.err.count("\n") == 43  # 1 lex, 40 + 1 parse, 1 decode

    piped = _cli_process(args)
    assert piped.returncode == 1
    assert piped.stdout.decode() == expected.out
    assert piped.stderr.decode() == expected.err
    assert json.loads(piped.stdout)

    out_path = tmp_path / f"report.{fmt}"
    written = _cli_process(args + ["--output", out_path])
    assert written.returncode == 1
    assert written.stdout == b""
    assert out_path.read_text() == expected.out
    assert written.stderr.decode() == expected.err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_console_run_exit_codes(tmp_path, corpus_copy, jobs):
    (tmp_path / "clean.sol").write_text(CLEAN_CONTRACT)
    (tmp_path / "bad.sol").write_text('contract C { string s = "unterminated; }')
    for path, code in ((tmp_path / "clean.sol", 0),
                       (corpus_copy / "listing1.sol", 1),
                       (tmp_path / "bad.sol", 2),
                       (tmp_path / "ghost.sol", 3)):
        proc = _cli_process(["analyze", path, "--jobs", jobs])
        assert proc.returncode == code, (path, proc.stderr)
    assert _cli_process(["analyze"]).returncode == 2
    # the catalog is printed, not written and flushed as a report is; its
    # 20 lines wait in stdout's buffer until the exit flush
    catalog = _cli_process(["detectors"])
    assert catalog.returncode == 0
    assert len(catalog.stdout.decode().splitlines()) == 20


def test_console_run_to_a_closed_pipe_exits_as_python_does(tmp_path):
    # the text and JSON catalogs, and a report larger than a pipe holds
    # (91 KB), each to a pipe closed before the process starts: the write
    # fails, and the process ends as one whose exit flush failed, with one
    # line on stderr and no traceback
    write_corpus(tmp_path, 10)
    for args in (["detectors"], ["detectors", "--format", "json"],
                 ["analyze", tmp_path, "--format", "json", "--jobs", "1"]):
        runs = []
        for command in (("-m", "soldefect.cli"),
                        ("-c", "import sys, soldefect.cli as c; sys.exit(c.main())")):
            read_fd, write_fd = os.pipe()
            os.close(read_fd)
            try:
                runs.append(_cli_process(args, stdout=write_fd, command=command))
            finally:
                os.close(write_fd)
        assert [run.returncode for run in runs] == [120, 120], args
        assert runs[0].stderr == runs[1].stderr
        assert b"BrokenPipeError" in runs[0].stderr
        assert b"Traceback" not in runs[0].stderr


def test_a_closed_stdout_is_reported_once(monkeypatch, capsys):
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    with open(write_fd, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        assert cli._emit(b"x" * 100_000, None, cli.EXIT_FINDINGS) == 120
        print("more")  # what follows goes to the null device
        stdout.flush()
    assert capsys.readouterr().err == (
        "soldefect: stdout: BrokenPipeError: [Errno 32] Broken pipe\n")


def test_console_run_in_process(monkeypatch):
    # run() turns the cycle collector off, runs main() and ends through
    # os._exit with its code; when the final flush fails, through sys.exit
    calls = []
    monkeypatch.setattr(cli, "main", lambda: 1)
    monkeypatch.setattr(gc, "disable", lambda: calls.append("collector off"))
    monkeypatch.setattr(os, "_exit", calls.append)
    cli.run()
    assert calls == ["collector off", 1]

    class ClosedPipe(io.StringIO):
        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    with pytest.raises(SystemExit) as exited:
        cli.run()
    assert exited.value.code == 1
    assert calls == ["collector off", 1, "collector off"]


def test_console_run_reports_an_internal_error(monkeypatch, capsys):
    # an exception out of main() is soldefect's own fault: exit 4, with the
    # traceback and then one line naming it, not the 1 of findings present
    def broken(args, config):
        raise RuntimeError("no such state")

    calls = []
    monkeypatch.setattr(cli, "cmd_detectors", broken)
    monkeypatch.setattr(sys, "argv", ["soldefect", "detectors"])
    monkeypatch.setattr(gc, "disable", lambda: None)
    monkeypatch.setattr(os, "_exit", calls.append)
    cli.run()
    assert calls == [cli.EXIT_INTERNAL] == [4]
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):")
    assert err.splitlines()[-2:] == [
        "RuntimeError: no such state",
        "soldefect: internal error: RuntimeError: no such state"]
    with pytest.raises(RuntimeError):  # main() called from Python raises
        main(["detectors"])


@pytest.mark.parametrize("columns", [None, "60", "0", "wide"])
def test_help_wraps_as_argparse_alone_wraps_it(monkeypatch, capsys, columns):
    # the parsers find their width without loading shutil, as shutil finds
    # it: COLUMNS, else stdout's terminal, else 80 columns
    import argparse
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    texts = []
    for formatter in (cli._HelpFormatter, argparse.HelpFormatter):
        monkeypatch.setattr(cli, "_HelpFormatter", formatter)
        for args in (["--help"], ["analyze", "--help"], ["score", "--help"],
                     ["analyze"]):
            with pytest.raises(SystemExit):
                build_arg_parser().parse_args(args)
        texts.append(capsys.readouterr())
    assert texts[0] == texts[1]
    assert "usage: soldefect analyze" in texts[0].err


def test_console_run_turns_the_cycle_collector_off():
    # analysis builds no reference cycles (tests/test_analyzer.py pins it),
    # so the console process runs main() without the cyclic collector; an
    # importer of the CLI keeps it
    probe = ("import gc, soldefect.cli as cli\n"
             "cli.main = lambda: print(gc.isenabled()) or 0\n"
             "print(gc.isenabled())\n"
             "cli.run()\n")
    proc = _cli_process([], command=("-c", probe))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [b"True", b"False"]
