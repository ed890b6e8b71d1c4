"""A line ledger for ``src/soldefect``: the executable lines that Tier-1 never
runs must equal the committed ledger, ``tests/UNREACHED.txt``.

Run Tier-1 with this module as a pytest plugin, on Python 3.11 (line tables
differ between Python versions)::

    PYTHONPATH=src:tests python -m pytest -q -p linecount \\
        --deselect tests/test_scaling.py \\
        --deselect tests/test_acceptance.py::test_criterion_7_throughput

``test_scaling.py`` counts line events with a tracer of its own, and
``criterion_7`` measures throughput. Hypothesis runs derandomized, so every
traced run tries the same examples. The plugin installs its tracer before
the first conftest is loaded, and so before ``soldefect`` is imported, which
makes module bodies count. The tracer survives ``os.fork``. A forked child
ends in ``os._exit``, which skips ``atexit``, so the tracer wraps
``os._exit`` to write the child's lines to a file of its own, and the
parent merges those files at the end of the session. The session fails on a
line that never ran and is not in the ledger, and on a ledger entry whose
line ran or no longer exists.

A line is executable when ``co_lines()`` lists it for a code object compiled
from the package, module bodies included. A ledger entry names its line by
the file, the dotted name of the innermost code object that lists it, and
the line's text, so an edit elsewhere in the file leaves the entry valid::

    soldefect/path.py::qualified.name: the line's text
        why no test runs it, on one or more indented lines
"""

from __future__ import annotations

import glob
import os
import shutil
import sys
import tempfile
import threading
from collections import Counter
from types import CodeType

import pytest
from hypothesis import settings

SRC = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
LEDGER = os.path.join(os.path.dirname(__file__), "UNREACHED.txt")


def executable_lines(path: str) -> dict[int, str]:
    """Each executable line of the file at ``path`` -> the dotted name of
    the innermost code object that lists it, such as ``Class.method``, built
    from the nesting of code objects (``co_qualname`` is new in 3.11)."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    owners: dict[int, str] = {}
    todo = [(code, code.co_name)]
    while todo:  # an enclosing code object comes before those it holds
        code, name = todo.pop()
        for _start, _end, line in code.co_lines():
            if line:  # None, or 0 for a module's first instruction
                owners[line] = name
        prefix = "" if code.co_name == "<module>" else name + "."
        todo.extend((c, prefix + c.co_name) for c in code.co_consts
                    if isinstance(c, CodeType))
    return owners


class LineCount:
    """Records the lines of the files under ``root`` that run, in this
    process and in the children it forks while started."""

    def __init__(self, root: str) -> None:
        self.root = os.path.realpath(root)
        self.hits: set[tuple[str, int]] = set()
        # code object -> (its file, its lines not yet run): no lines for code
        # outside ``root``
        self._codes: dict[CodeType, tuple[str, set[int]]] = {}
        self._spool = tempfile.mkdtemp(prefix="linecount-")
        self._active = False
        os.register_at_fork(after_in_child=self._forked)

    def start(self) -> None:
        self._previous = sys.gettrace(), threading.gettrace(), os._exit
        self._active = True
        os._exit = self._exit
        threading.settrace(self._call)
        sys.settrace(self._call)

    def stop(self) -> None:
        trace, thread_trace, os._exit = self._previous
        sys.settrace(trace)
        threading.settrace(thread_trace)
        self._active = False

    def lines_run(self) -> set[tuple[str, int]]:
        """(file, line) of each line that ran here or in a child that has
        exited through ``os._exit``."""
        run = set(self.hits)
        for name in os.listdir(self._spool):
            with open(os.path.join(self._spool, name), encoding="utf-8") as fh:
                for row in fh:
                    path, line = row.rsplit("\t", 1)
                    run.add((path, int(line)))
        return run

    def close(self) -> None:
        shutil.rmtree(self._spool, ignore_errors=True)

    def _call(self, frame, event, arg):
        code = frame.f_code
        entry = self._codes.get(code)
        if entry is None:
            path = os.path.realpath(code.co_filename)
            lines = set()
            if path.startswith(self.root + os.sep):
                lines = {line for _s, _e, line in code.co_lines() if line}
            entry = self._codes[code] = (path, lines)
        if not entry[1]:
            return None
        # a call runs the function's first line, for which no line event
        # fires (a decorator's line, for a decorated function)
        return self._line(frame, "line", arg)

    def _line(self, frame, event, arg):
        if event != "line":
            return self._line
        path, unseen = self._codes[frame.f_code]
        if frame.f_lineno in unseen:
            unseen.discard(frame.f_lineno)
            self.hits.add((path, frame.f_lineno))
        return self._line if unseen else None

    def _forked(self) -> None:
        if self._active:  # the parent keeps what ran before the fork
            self.hits.clear()

    def _exit(self, status: int) -> None:
        # appended to: a pid the session reuses keeps the earlier child's lines
        with open(os.path.join(self._spool, str(os.getpid())), "a",
                  encoding="utf-8") as fh:
            fh.writelines(f"{path}\t{line}\n" for path, line in self.hits)
        self._previous[2](status)


def missed(root: str, run: set[tuple[str, int]]) -> dict[tuple, list[int]]:
    """(file relative to ``root``'s parent, qualified name, text) of each
    executable line under ``root`` that is not in ``run`` -> its lines."""
    root = os.path.realpath(root)
    found: dict[tuple, list[int]] = {}
    for path in sorted(glob.glob(os.path.join(root, "**", "*.py"), recursive=True)):
        relative = os.path.relpath(path, os.path.dirname(root))
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()
        for line, qualname in sorted(executable_lines(path).items()):
            if (path, line) not in run:
                key = (relative, qualname, text[line - 1].strip())
                found.setdefault(key, []).append(line)
    return found


def read_ledger(text: str) -> dict[tuple, list[str]]:
    """Each entry of a ledger -> its reasons, one per time it is listed."""
    entries: dict[tuple, list[str]] = {}
    key = None
    for row in text.splitlines():
        if not row.strip() or row.startswith("#"):
            continue
        if row[0].isspace():
            if key is None:
                raise ValueError(f"a reason without an entry: {row.strip()}")
            entries[key][-1] = (entries[key][-1] + " " + row.strip()).strip()
            continue
        path, _, rest = row.partition("::")
        qualname, _, line_text = rest.partition(": ")
        key = (path, qualname, line_text)
        entries.setdefault(key, []).append("")
    for key, reasons in entries.items():
        if not all(reasons):
            raise ValueError(f"{key[0]}::{key[1]}: {key[2]}: no reason given")
    return entries


def compare(found: dict[tuple, list[int]], ledger: dict[tuple, list[str]],
            root: str) -> list[str]:
    """``path:line: text`` of each missed line the ledger does not list, and
    of each ledger entry whose line ran or is gone (line 0)."""
    missing = Counter({key: len(lines) for key, lines in found.items()})
    listed = Counter({key: len(reasons) for key, reasons in ledger.items()})
    problems = []
    for key, count in (missing - listed).items():
        problems += [(key[0], line, f"{key[2]}  (not run, not in the ledger)")
                     for line in found[key][-count:]]
    base = os.path.dirname(os.path.realpath(root))
    for key, count in (listed - missing).items():
        line = _locate(os.path.join(base, key[0]), key[1], key[2])
        problems += [(key[0], line, f"{key[2]}  (in the ledger, but "
                      + ("it runs)" if line else "no such line)"))] * count
    return [f"{path}:{line}: {text}" for path, line, text in sorted(problems)]


def _locate(path: str, qualname: str, line_text: str) -> int:
    """The first executable line of ``qualname`` in ``path`` whose text is
    ``line_text``, or 0."""
    if not os.path.exists(path):
        return 0
    with open(path, encoding="utf-8") as fh:
        text = fh.read().splitlines()
    return next((line for line, owner in sorted(executable_lines(path).items())
                 if owner == qualname and text[line - 1].strip() == line_text), 0)


_COUNT = pytest.StashKey[LineCount]()


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    # the same examples in every traced run, so that no line counts as run
    # only when a random example happens to reach it
    settings.register_profile("linecount", derandomize=True)
    settings.load_profile("linecount")
    count = early_config.stash[_COUNT] = LineCount(os.path.join(SRC, "soldefect"))
    count.start()


def pytest_sessionfinish(session, exitstatus):
    count = session.config.stash[_COUNT]
    count.stop()
    root = os.path.join(SRC, "soldefect")
    with open(LEDGER, encoding="utf-8") as fh:
        ledger = read_ledger(fh.read())
    problems = compare(missed(root, count.lines_run()), ledger, root)
    count.close()
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    reporter.write_line("")  # ends the progress line
    if problems:
        reporter.write_sep("=", "line ledger: tests/UNREACHED.txt differs", red=True)
        for problem in problems:
            reporter.write_line(problem)
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
    else:
        reporter.write_line(f"line ledger: every line of src/soldefect runs, "
                            f"but the {sum(map(len, ledger.values()))} in "
                            f"tests/UNREACHED.txt")
