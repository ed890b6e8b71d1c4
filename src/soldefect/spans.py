"""Source positions shared by tokens, AST nodes, findings and diagnostics.

A span holds `str` indices (code points); its line and column are worked out
from the file's line starts only where a finding or diagnostic is written.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from itertools import accumulate

from .records import record

# The half-open range [offset, offset + length) of `str` indices in a file.
# A tuple, so it is immutable and hashable and cheap to build: the parser
# makes one per node.
Span = namedtuple("Span", ("file_id", "offset", "length"))

# Span(...) runs the namedtuple's generated __new__, a Python function; this
# builds the same Span from a tuple of its fields in half the time.
new_span = tuple.__new__


def join_spans(first: Span, last: Span) -> Span:
    """Smallest span covering both arguments (same file)."""
    return new_span(Span, (first.file_id, first.offset,
                           last.offset + last.length - first.offset))


def line_starts(text: str) -> list[int]:
    """The offset at which each line of ``text`` starts. A line ends after
    each `\\n`, so CRLF ends one line and a lone `\\r` none."""
    return list(accumulate([len(line) + 1 for line in text.split("\n")[:-1]],
                           initial=0))


def position(starts: list[int], offset: int) -> tuple[int, int]:
    """The 1-based line and column of ``offset`` in the text whose line
    starts are ``starts``; the column counts code points."""
    line = bisect_right(starts, offset)
    return line, offset - starts[line - 1] + 1


@record(slots=True, frozen=True)
class Diagnostic:
    """A non-fatal problem (syntax error, unsupported construct, ...) with
    its line and column, worked out in the process that made it."""

    severity: str  # "error" | "warning"
    message: str
    span: Span
    line: int
    column: int

    def __str__(self) -> str:
        return (f"{self.span.file_id}:{self.line}:{self.column}: "
                f"{self.severity}: {self.message}")
