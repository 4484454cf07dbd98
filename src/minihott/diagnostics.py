"""Diagnostics, source spans, the kernel's exceptions and the report
format, shared by the parser, resolver, checker, oracle and CLI.

A report (`docs/report-schema.json`) is the `CheckReport` of a file, or of
the oracle's pseudo-file `<oracle>`, with a `DeclReport` per declaration
or suite.  `oracle` builds its reports here too: this module loads no
kernel module.  Each record writes its JSON text as `json.dumps(...,
ensure_ascii=False, indent=2)` would at the given indent (a newline and
the enclosing line's spaces), without loading the `json` package."""

from __future__ import annotations

from _json import encode_basestring

from .records import record

WRITE_BATCH = 256  # declarations per piece `CheckReport.write` passes on


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

    def json_text(self, indent: str) -> str:
        i = indent + "  "
        return (
            f'{{{i}"severity": "error",{i}"code": {encode_basestring(self.code)},'
            f'{i}"message": {encode_basestring(self.message)},'
            f'{i}"span": [{i}  {self.span.start},{i}  {self.span.end}{i}]{indent}}}'
        )


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

    def json_text(self, indent: str) -> str:
        i = indent + "  "
        text = (
            f'{{{i}"name": {encode_basestring(self.name)},{i}"kind": {encode_basestring(self.kind)},'
            f'{i}"status": "{self.status}",{i}"ref": {encode_basestring(self.source_ref)},'
            f'{i}"ms": {round(self.ms, 3)!r}'
        )
        if self.cases is not None:
            text += f',{i}"cases": {self.cases}'
        if self.diagnostic is not None:
            text += f',{i}"diagnostic": {self.diagnostic.json_text(i)}'
        return text + indent + "}"


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

    def write(self, write, indent: str = "\n") -> None:
        """Pass the report's JSON text to `write`, a piece per
        `WRITE_BATCH` declarations, so that a large report is never held
        as one string."""
        i, ii = indent + "  ", indent + "    "
        write(f'{{{i}"file": {encode_basestring(self.file)},{i}"declarations": ')
        decls, sep = self.declarations, "["
        for start in range(0, len(decls), WRITE_BATCH):
            write(sep + ii + f",{ii}".join(d.json_text(ii) for d in decls[start : start + WRITE_BATCH]))
            sep = ","
        write(
            f'{i + "]" if decls else "[]"},{i}"totals": {{{ii}"accepted": {self.accepted},'
            f'{ii}"rejected": {self.rejected},{ii}"ms": {round(self.ms, 3)!r}{i}}}{indent}}}'
        )


class CheckFailure(Exception):
    """Raised internally by the checker; always carries a Diagnostic, and
    the name of the file it is in once that is known."""

    def __init__(self, diagnostic: Diagnostic, file: str = "<input>"):
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic
        self.file = file


class KernelBug(Exception):
    """Internal invariant violation (ill-scoped term reached eval)."""
