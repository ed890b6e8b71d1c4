"""The analysis path needs nothing outside the standard library: with
`requests` unimportable the CLI still analyzes, scores and lists, the
fetch tests still pass, importing the CLI loads no HTTP code and none of
the modules that only some runs need, a command that does not analyze loads
no analysis, a source-only run no EVM frontend, and a parallel run loads
each module once, in the parent; no run loads a process pool, and an
integer literal loads no `fractions`."""

from __future__ import annotations

import json
import os
import subprocess
import sys

from asm import counted_loop
from conftest import CORPUS_DIR

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(TESTS, "..", "src")

BLOCK_REQUESTS = 'import sys; sys.modules["requests"] = None\n'

RUN_CLI = BLOCK_REQUESTS + '''import json, os
import soldefect.cli
loaded = [m for m in ("soldefect.fetch", "urllib.request", "http.client")
          if m in sys.modules]
listings, out = sys.argv[1], sys.argv[2]
codes = [
    soldefect.cli.main(["analyze", listings, "--jobs", "1", "--format", "json",
                        "--output", os.path.join(out, "report.json")]),
    soldefect.cli.main(["score", "--manifest",
                        os.path.join(listings, "manifest.txt"), "--jobs", "1",
                        "--output", os.path.join(out, "score.txt")]),
    soldefect.cli.main(["detectors", "--format", "json"]),
]
print(json.dumps({"loaded": loaded, "codes": codes}), file=sys.stderr)
'''

RUN_FETCH_TESTS = BLOCK_REQUESTS + '''import pytest
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]]))
'''


def _python(code: str, *args: str, flags: tuple[str, ...] = ()
            ) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *flags, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)


def test_cli_runs_without_requests_and_loads_no_http(tmp_path):
    proc = _python(RUN_CLI, os.path.abspath(CORPUS_DIR), str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stderr.splitlines()[-1])
    assert result["loaded"] == []
    assert result["codes"] == [1, 0, 0]  # findings, perfect score, catalog
    assert len(json.loads(proc.stdout)) == 20
    assert json.loads((tmp_path / "report.json").read_text())["findings"]
    assert "precision" in (tmp_path / "score.txt").read_text()


def test_fetch_tests_pass_without_requests():
    proc = _python(RUN_FETCH_TESTS, os.path.join(TESTS, "test_fetch.py"),
                   os.path.join(TESTS, "test_fetch_http.py"))
    assert proc.returncode == 0, proc.stdout + proc.stderr


POOL_MODULES = "('concurrent.futures', 'multiprocessing')"


def test_cli_import_loads_no_process_pool():
    # every CLI start pays for what importing the CLI loads, and no run
    # needs a process pool (see the next test)
    proc = _python("import sys, soldefect.cli\n"
                   f"print([m for m in {POOL_MODULES} if m in sys.modules])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_parallel_run_loads_no_process_pool(tmp_path):
    # --jobs above 1 forks its own workers (soldefect/workers.py), so a
    # parallel run does not import concurrent.futures or multiprocessing
    proc = _python("import sys, soldefect.cli\n"
                   "code = soldefect.cli.main(['analyze', *sys.argv[1:3], "
                   "'--jobs', '2', '--output', sys.argv[3]])\n"
                   f"print(code, [m for m in {POOL_MODULES} if m in sys.modules])",
                   os.path.join(CORPUS_DIR, "listing1.sol"),
                   os.path.join(CORPUS_DIR, "listing2.sol"),
                   str(tmp_path / "report.txt"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1 []"  # findings present, no pool modules
    assert "reentrancy" in (tmp_path / "report.txt").read_text()


# modules every CLI start would pay for but none needs: dataclasses (and the
# inspect it loads), typing and fractions, the scorer, which loads with a
# score run, hashlib with OpenSSL, which loads with the analyzer, and
# shutil (with bz2, lzma and fnmatch), which argparse's formatter loads to
# find the terminal's width
NOT_AT_START = ("dataclasses", "inspect", "typing", "fractions",
                "soldefect.corpus", "hashlib", "_hashlib", "shutil", "bz2",
                "lzma", "fnmatch")


def test_cli_start_loads_only_what_every_run_needs():
    proc = _python("import sys, soldefect.cli\n"
                   "soldefect.cli.build_arg_parser()\n"
                   "print(*sys.modules)", flags=("-S",))
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert [m for m in NOT_AT_START if m in loaded] == []


# what a run loads, printed after its exit code on stderr's last line
MODULES_OF_RUN = """import sys, soldefect.cli
code = soldefect.cli.main(sys.argv[1:])
print(code, *sys.modules, file=sys.stderr)
"""

# the modules that only a command that analyzes needs
ANALYSIS = ("soldefect.analyzer", "soldefect.parser", "soldefect.detectors",
            "soldefect.evm")


def _modules_of_run(*args: str) -> tuple[int, list[str]]:
    proc = _python(MODULES_OF_RUN, *args)
    code, *loaded = proc.stderr.splitlines()[-1].split()
    return int(code), loaded


def test_commands_that_do_not_analyze_load_no_analysis():
    for args, expected in ((["--help"], 0), (["detectors"], 0),
                           (["detectors", "--format", "json"], 0),
                           (["fetch", "not-an-address"], 2),
                           (["analyze", "--min-impact", "IP9", "x.sol"], 2)):
        code, loaded = _modules_of_run(*args)
        assert code == expected, args
        assert [m for m in loaded if m.startswith(ANALYSIS)] == [], args


def test_a_source_only_run_loads_no_evm(tmp_path):
    code, loaded = _modules_of_run(
        "analyze", os.path.join(CORPUS_DIR, "listing1.sol"), "--jobs", "1",
        "--output", str(tmp_path / "report.txt"))
    assert code == 1  # findings, among them listing1's hard-coded addresses
    assert "soldefect.detectors.security" in loaded
    assert [m for m in loaded if m.startswith("soldefect.evm")
            or m == "soldefect.detectors.bytecode"] == []
    assert "hard-code-address" in (tmp_path / "report.txt").read_text()


def test_a_parallel_run_loads_each_module_once(tmp_path):
    # the EVM frontend and OpenSSL's hashlib load in the parent, before the
    # first fork, so no worker imports a module of its own: under
    # -X importtime each module is imported once, by the parent
    hexfile = tmp_path / "loop.hex"
    hexfile.write_text("0x" + counted_loop(5).hex())
    args = ["analyze", os.path.join(CORPUS_DIR, "listing1.sol"), str(hexfile),
            "--jobs", "2", "--output", str(tmp_path / "report.txt")]
    code, loaded = _modules_of_run(*args)
    assert code == 1
    assert {"soldefect.evm.cfg", "soldefect.detectors.bytecode", "hashlib",
            "_hashlib"} <= set(loaded)
    proc = _python(MODULES_OF_RUN, *args, flags=("-S", "-X", "importtime"))
    imported = [line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:") and "|" in line]
    assert "soldefect.evm.cfg" in imported and "_hashlib" in imported
    assert len(imported) == len(set(imported)), sorted(
        {m for m in imported if imported.count(m) > 1})


INFER_LITERALS = '''import sys, soldefect.cli
code = soldefect.cli.main(["analyze", sys.argv[1], "--jobs", "1",
                           "--format", "json", "--output", sys.argv[2]])
print(code, "fractions" in sys.modules, "decimal" in sys.modules)
'''


def test_integer_literals_load_no_fractions(tmp_path):
    # the loop bound 300 is inferred (D04 compares it with uint8), and an
    # integer spelling needs only int(); a decimal point needs fractions
    for spelling, loaded in (("300", "False False"), ("300.0", "True True")):
        path = tmp_path / "ints.sol"
        path.write_text("contract C {\n    uint x = 0010 ether;\n    function f() "
                        f"{{ for (uint8 i = 0; i < {spelling}; i++) {{ }} }}\n}}\n")
        report = tmp_path / "report.json"
        proc = _python(INFER_LITERALS, str(path), str(report))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1", *loaded.split()]
        assert "unmatched-type-assignment" in report.read_text()
