"""Diagnostics, source spans, the kernel's exceptions and the report
format, shared by the parser, resolver, checker, oracle and CLI.

A report (`docs/report-schema.json`) is the `CheckReport` of a file, or of
the oracle's pseudo-file `<oracle>`, with a `DeclReport` per declaration
or suite.  `oracle` builds its reports here too: this module loads no
kernel module."""

from __future__ import annotations

from .records import record


@record
class Span:
    start: int
    end: int


@record
class Diagnostic:
    """An error: every diagnostic rejects its declaration or its file."""

    code: str
    message: str
    span: Span

    def format(self, filename: str = "<input>") -> str:
        return f"{filename}:{self.span.start}-{self.span.end}: error [{self.code}] {self.message}"

    def to_json(self) -> dict:
        return {
            "severity": "error",
            "code": self.code,
            "message": self.message,
            "span": [self.span.start, self.span.end],
        }


class DeclReport:
    """The verdict on one declaration, or on one oracle suite (`cases` is
    set): rejected exactly when it carries a diagnostic."""

    __slots__ = ("name", "kind", "ms", "source_ref", "diagnostic", "cases")

    def __init__(
        self,
        name: str,
        kind: str,
        ms: float,
        source_ref: str,
        diagnostic: Diagnostic | None = None,
        cases: int | None = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.ms = ms
        self.source_ref = source_ref
        self.diagnostic = diagnostic
        self.cases = cases

    @property
    def status(self) -> str:
        return "accepted" if self.diagnostic is None else "rejected"

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "kind": self.kind,
            "status": self.status,
            "ref": self.source_ref,
            "ms": round(self.ms, 3),
        }
        if self.cases is not None:
            out["cases"] = self.cases
        if self.diagnostic is not None:
            out["diagnostic"] = self.diagnostic.to_json()
        return out


class CheckReport:
    """The verdicts on one file's declarations, and the file's wall time
    (`ms`): lex, parse, resolve and check; for `<oracle>`, the verdicts
    on its suites and the sum of their times."""

    __slots__ = ("file", "declarations", "ms")

    def __init__(self, file: str = "<input>") -> None:
        self.file = file
        self.declarations: list[DeclReport] = []
        self.ms = 0.0

    @property
    def accepted(self) -> int:
        return len(self.declarations) - self.rejected

    @property
    def rejected(self) -> int:
        return sum(1 for d in self.declarations if d.diagnostic is not None)

    @property
    def ok(self) -> bool:
        return self.rejected == 0

    def to_json(self) -> dict:
        """The report as JSON, with the `DeclReport`s themselves as its
        declarations, for a writer that converts each when it reaches it
        (`cli.print_json`)."""
        return {
            "file": self.file,
            "declarations": self.declarations,
            "totals": {"accepted": self.accepted, "rejected": self.rejected, "ms": round(self.ms, 3)},
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
