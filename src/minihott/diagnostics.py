"""Diagnostics and source spans shared by the parser, resolver and checker."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Span:
    start: int
    end: int

    @staticmethod
    def point(pos: int) -> "Span":
        return Span(pos, pos)

    def merge(self, other: "Span") -> "Span":
        return Span(min(self.start, other.start), max(self.end, other.end))


@dataclass(frozen=True, slots=True)
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
    """Raised internally by the checker; always carries a Diagnostic."""

    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic

