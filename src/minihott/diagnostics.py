"""Diagnostics, source spans and the kernel's exceptions, shared by the
parser, resolver, checker and CLI."""

from __future__ import annotations

from .records import record


@record
class Span:
    start: int
    end: int


@record
class Diagnostic:
    severity: str  # "error" | "warning"
    code: str
    message: str
    span: Span

    def format(self, filename: str = "<input>") -> str:
        return f"{filename}:{self.span.start}-{self.span.end}: {self.severity} [{self.code}] {self.message}"

    def to_json(self) -> dict:
        return {
            "severity": self.severity,
            "code": self.code,
            "message": self.message,
            "span": [self.span.start, self.span.end],
        }


class CheckFailure(Exception):
    """Raised internally by the checker; always carries a Diagnostic, and
    the name of the file it is in once that is known."""

    def __init__(self, diagnostic: Diagnostic, file: str = "<input>"):
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic
        self.file = file


class KernelBug(Exception):
    """Internal invariant violation (ill-scoped term reached eval)."""
