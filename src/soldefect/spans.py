"""Source positions shared by tokens, AST nodes, findings and diagnostics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


class Span(NamedTuple):
    """A half-open byte range in one input, plus its 1-based line/column.

    A tuple, so it is immutable and hashable and cheap to build: the lexer
    makes one per token and the parser one per node.
    """

    file_id: str
    line: int
    column: int
    offset: int
    length: int

    def end_offset(self) -> int:
        return self.offset + self.length

    def contains(self, other: "Span") -> bool:
        return (self.file_id == other.file_id
                and self.offset <= other.offset
                and other.end_offset() <= self.end_offset())

    def __str__(self) -> str:
        return f"{self.file_id}:{self.line}:{self.column}"


# Span(...) runs NamedTuple's generated __new__, a Python function; this
# builds the same Span from a tuple of its fields in half the time. The
# lexer and join_spans make one Span per token and one per AST node.
new_span = tuple.__new__


def join_spans(first: Span, last: Span) -> Span:
    """Smallest span covering both arguments (same file)."""
    return new_span(Span, (first.file_id, first.line, first.column, first.offset,
                           last.offset + last.length - first.offset))


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """A non-fatal problem (syntax error, unsupported construct, ...)."""

    severity: str  # "error" | "warning"
    message: str
    span: Span

    def __str__(self) -> str:
        return f"{self.span}: {self.severity}: {self.message}"
