"""End-to-end driving: source text -> parse -> resolve global names -> check.

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

from .checker import Checker, CheckReport, DeclReport
from .decls import Declaration
from .diagnostics import CheckFailure, Diagnostic
from .globals import Config, Globals
from .parser import parse_module
from .printer import RESERVED_NAME
from .resolver import Resolver


class FileResult:
    """Outcome of running one source file through the pipeline."""

    __slots__ = ("report", "pragmas", "declarations")

    def __init__(self, report: CheckReport, pragmas: list[str]) -> None:
        self.report = report
        self.pragmas = pragmas
        self.declarations: list[Declaration] = []

    @property
    def ok(self) -> bool:
        return self.report.ok


def check_source(source: str, glob: Globals, file: str = "<input>") -> FileResult:
    """Parse, resolve and check one file against (and extending) `glob`."""
    try:
        module = parse_module(source)
    except CheckFailure as exc:
        raise CheckFailure(exc.diagnostic, file) from None
    result = FileResult(CheckReport(file), module.pragmas)
    checker = Checker(glob)
    resolver = Resolver(glob)
    seen = set(glob.entries)
    for decl, pending in zip(module.decls, module.pending):
        start = time.perf_counter()
        try:
            if decl.name in seen:
                raise CheckFailure(
                    Diagnostic(
                        "error", "duplicate-name", f"duplicate declaration {decl.name!r}", decl.span
                    )
                )
            if RESERVED_NAME.match(decl.name):
                raise CheckFailure(
                    Diagnostic(
                        "error",
                        "reserved-name",
                        f"{decl.name!r} is reserved for printer-invented binders",
                        decl.span,
                    )
                )
            resolver.resolve(pending)
            checker.check_declaration(decl)
        except CheckFailure as exc:
            ms = (time.perf_counter() - start) * 1000
            result.report.declarations.append(
                DeclReport(decl.name, decl.kind, "rejected", ms, decl.source_ref, exc.diagnostic)
            )
        else:
            ms = (time.perf_counter() - start) * 1000
            result.declarations.append(decl)
            result.report.declarations.append(
                DeclReport(decl.name, decl.kind, "accepted", ms, decl.source_ref)
            )
            seen.add(decl.name)
    return result


def check_files(
    paths: list[str], config: Config | None = None, glob: Globals | None = None
) -> tuple[list[FileResult], Globals]:
    """Check files in order against one shared global environment."""
    if glob is None:
        glob = Globals(config or Config())
    results = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        results.append(check_source(source, glob, file=path))
    return results, glob


_STACK_SIZE_LOCK = threading.Lock()


def run_deep(fn, stack_mb: int = 512):
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
        old_stack = threading.stack_size(stack_mb * 1024 * 1024)
        try:
            thread = threading.Thread(target=wrapped)
            thread.start()
        finally:
            threading.stack_size(old_stack)
    thread.join()
    if "error" in out:
        raise out["error"]
    return out["value"]
