"""The analysis path needs nothing outside the standard library: with
`requests` unimportable the CLI still analyzes, scores and lists, the
fetch tests still pass, importing the CLI loads no HTTP code and none of
the modules that only some runs need, and no run loads a process pool."""

from __future__ import annotations

import json
import os
import subprocess
import sys

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
# inspect it loads), typing and fractions, and the scorer, which loads with a
# score run
NOT_AT_START = ("dataclasses", "inspect", "typing", "fractions",
                "soldefect.corpus")


def test_cli_start_loads_only_what_every_run_needs():
    proc = _python("import sys, soldefect.cli\n"
                   "soldefect.cli.build_arg_parser()\n"
                   "print(*sys.modules)", flags=("-S",))
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert [m for m in NOT_AT_START if m in loaded] == []
