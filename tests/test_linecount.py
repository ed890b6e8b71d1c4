"""The line ledger's tool (``linecount.py``) on a package of one module: a
line that never ran must be in the ledger, an entry for a line that runs or
is gone fails, and what a forked child runs counts."""

from __future__ import annotations

import importlib.util
import os

import pytest

from linecount import (LEDGER, SRC, LineCount, compare, executable_lines,
                       missed, read_ledger)

MODULE = """\
def taken(x):
    if x:
        return 1
    return 2


def in_child():
    return 3
"""

LISTED = "pkg/mod.py::taken: return 2\n    no caller passes a false x\n"


def _run_traced(package) -> dict:
    """Import the module, take one branch of ``taken`` here and call
    ``in_child`` in a forked child; the lines that did not run."""
    count = LineCount(str(package))
    count.start()
    try:
        spec = importlib.util.spec_from_file_location(
            "linecount_probe", package / "mod.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.taken(True)
        pid = os.fork()
        if pid == 0:
            try:
                module.in_child()
            finally:
                os._exit(0)
        os.waitpid(pid, 0)
    finally:
        count.stop()
    try:
        return missed(str(package), count.lines_run())
    finally:
        count.close()


def test_the_ledger_must_equal_the_lines_that_never_ran(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(MODULE)
    found = _run_traced(package)
    # in_child's lines ran in the child only
    assert found == {("pkg/mod.py", "taken", "return 2"): [4]}
    assert compare(found, read_ledger(LISTED), str(package)) == []
    assert compare(found, {}, str(package)) == [
        "pkg/mod.py:4: return 2  (not run, not in the ledger)"]
    stale = read_ledger(LISTED + "pkg/mod.py::in_child: return 3\n    a reason\n"
                        "pkg/mod.py::gone: pass\n    a reason\n")
    assert compare(found, stale, str(package)) == [
        "pkg/mod.py:0: pass  (in the ledger, but no such line)",
        "pkg/mod.py:8: return 3  (in the ledger, but it runs)"]


def test_a_line_is_named_by_the_code_objects_that_hold_it(tmp_path):
    # built from the nesting of code objects, so that the names are the same
    # on Python versions without co_qualname
    path = tmp_path / "mod.py"
    path.write_text("class C:\n    def m(self):\n        def inner():\n"
                    "            return 1\n        return inner\n")
    owners = executable_lines(str(path))
    assert (owners[4], owners[5]) == ("C.m.inner", "C.m")


def test_a_ledger_entry_needs_a_reason():
    with pytest.raises(ValueError, match="no reason given"):
        read_ledger("pkg/mod.py::taken: return 2\n")


def test_the_committed_ledger_is_short_and_names_lines_that_exist():
    with open(LEDGER, encoding="utf-8") as fh:
        ledger = read_ledger(fh.read())
    assert sum(map(len, ledger.values())) <= 20
    root = os.path.join(SRC, "soldefect")
    assert [problem for problem in compare({}, ledger, root)
            if "no such line" in problem] == []
