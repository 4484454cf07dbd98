"""End-to-end driving: (name, source) pairs -> parse -> resolve global
names -> check, one file after another against one growing `Globals`.

Resolution and checking are interleaved per declaration so that a
rejected declaration leaves no binding behind: later declarations that
mention it fail with an unbound-identifier diagnostic instead of
silently building on a rejected proof.
"""

from __future__ import annotations

import gc
import sys
import threading
import time
from collections.abc import Iterable

from .checker import Checker
from .diagnostics import CheckFailure, Diagnostic
from .globals import Config, Globals
from .parser import parse_module
from .printer import RESERVED_NAME
from .resolver import Resolver


class DeclReport:
    __slots__ = ("name", "kind", "status", "ms", "source_ref", "diagnostic")

    def __init__(
        self, name: str, kind: str, status: str, ms: float, source_ref: str, diagnostic: Diagnostic | None = None
    ) -> None:
        self.name = name
        self.kind = kind
        self.status = status  # "accepted" | "rejected"
        self.ms = ms
        self.source_ref = source_ref
        self.diagnostic = diagnostic

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "kind": self.kind,
            "status": self.status,
            "ref": self.source_ref,
            "ms": round(self.ms, 3),
        }
        if self.diagnostic is not None:
            out["diagnostic"] = self.diagnostic.to_json()
        return out


class CheckReport:
    """The verdicts on one file's declarations, and the file's wall time
    (`ms`): lex, parse, resolve and check."""

    __slots__ = ("file", "declarations", "ms")

    def __init__(self, file: str = "<input>") -> None:
        self.file = file
        self.declarations: list[DeclReport] = []
        self.ms = 0.0

    @property
    def accepted(self) -> int:
        return sum(1 for d in self.declarations if d.status == "accepted")

    @property
    def rejected(self) -> int:
        return sum(1 for d in self.declarations if d.status == "rejected")

    @property
    def ok(self) -> bool:
        return self.rejected == 0

    def to_json(self) -> dict:
        return {
            "file": self.file,
            "declarations": [d.to_json() for d in self.declarations],
            "totals": {
                "accepted": self.accepted,
                "rejected": self.rejected,
                "ms": round(self.ms, 3),
            },
        }


def check_files(
    sources: Iterable[tuple[str, str]], config: Config | None = None
) -> tuple[list[CheckReport], Globals]:
    """Check `(name, source)` pairs in order against one shared global
    environment; return a report per file and the environment.  `sources`
    is read one pair at a time, so a lazily read file is read only once
    the files before it are checked."""
    glob = Globals(config)
    return [_check_file(name, source, glob) for name, source in sources], glob


def _check_file(file: str, source: str, glob: Globals) -> CheckReport:
    """Parse, resolve and check one file against (and extending) `glob`."""
    start = time.perf_counter()
    try:
        module = parse_module(source)
    except CheckFailure as exc:
        raise CheckFailure(exc.diagnostic, file) from None
    report = CheckReport(file)
    checker = Checker(glob)
    resolver = Resolver(glob)
    seen = set(glob.entries)
    for decl, pending in zip(module.decls, module.pending):
        decl_start = time.perf_counter()
        try:
            if decl.name in seen:
                raise CheckFailure(Diagnostic("duplicate-name", f"duplicate declaration {decl.name!r}", decl.span))
            if RESERVED_NAME.match(decl.name):
                raise CheckFailure(
                    Diagnostic(
                        "reserved-name",
                        f"{decl.name!r} is reserved for printer-invented binders",
                        decl.span,
                    )
                )
            resolver.resolve(pending)
            checker.check_declaration(decl)
        except CheckFailure as exc:
            status, diagnostic = "rejected", exc.diagnostic
        else:
            status, diagnostic = "accepted", None
            seen.add(decl.name)
        ms = (time.perf_counter() - decl_start) * 1000
        report.declarations.append(DeclReport(decl.name, decl.kind, status, ms, decl.source_ref, diagnostic))
    report.ms = (time.perf_counter() - start) * 1000
    return report


_STACK_SIZE_LOCK = threading.Lock()
_STACK_MB = 512


def run_deep(fn):
    """Run `fn` on a thread with a large stack, a raised recursion limit and
    the cyclic garbage collector off; return its result or raise its error.

    Normalization of large proof terms recurses structurally; CPython's
    default limits are far too small for the deepest corpus terms.  The
    kernel creates no reference cycles (tests/test_kernel.py checks this;
    a reference links only to an earlier declaration), so a collection
    would free nothing, yet it would walk every live value.  The caller's
    thread stack size, recursion limit and collector state are restored
    when `fn` returns or raises; a nested call leaves the collector off.
    """
    out: dict = {}

    def wrapped():
        old_limit = sys.getrecursionlimit()
        gc_was_enabled = gc.isenabled()
        sys.setrecursionlimit(200_000)
        gc.disable()
        try:
            out["value"] = fn()
        except BaseException as exc:  # re-raised on the caller's thread
            out["error"] = exc
        finally:
            sys.setrecursionlimit(old_limit)
            if gc_was_enabled:
                gc.enable()

    # The stack size is process-wide; the lock keeps a nested call, which
    # can start before this `finally` runs, from saving the raised size.
    with _STACK_SIZE_LOCK:
        old_stack = threading.stack_size(_STACK_MB * 1024 * 1024)
        try:
            thread = threading.Thread(target=wrapped)
            thread.start()
        finally:
            threading.stack_size(old_stack)
    thread.join()
    if "error" in out:
        raise out["error"]
    return out["value"]
