"""End-to-end driving: (name, source) pairs -> parse -> resolve global
names -> check, one file after another against one growing `Globals`.

Parsing and checking alternate per lexed chunk: each time the parser
must lex the next chunk of a file, the declarations it has parsed are
resolved and checked, inside the one `parse_module` call per file, so a
file's whole parse tree is never held.  A lex or parse error still ends
the run, after the declarations of the chunks before it are checked.
Only the parser decides where a declaration ends, what it holds and
what its text alone rejects; the duplicate-name check, which depends on
earlier verdicts, is the one made here.

Resolution and checking are interleaved per declaration so that a
rejected declaration leaves no binding behind: later declarations that
mention it fail with an unbound-identifier diagnostic instead of
silently building on a rejected proof.

The verdicts of each file are a `CheckReport` of `DeclReport`s, the
report format that `diagnostics` defines for `check` and `oracle` alike.

A run can stop after a named declaration (`normalize` does): since a
reference names only an earlier declaration, nothing after it can change
its verdict or its value.
"""

from __future__ import annotations

import gc
import sys
import threading
import time
from collections.abc import Iterable

from . import conversion
from .checker import Checker
from .diagnostics import CheckFailure, CheckReport, DeclReport, Diagnostic
from .globals import Config, Globals
from .parser import Declaration, parse_module
from .resolver import Resolver


class _Stop(Exception):
    """Raised once the declaration a run stops after is checked."""


def check_files(
    sources: Iterable[tuple[str, str]], config: Config | None = None, stop_after: str | None = None
) -> tuple[list[CheckReport], Globals]:
    """Check `(name, source)` pairs in order against one shared global
    environment; return a report per file and the environment.  `sources`
    is read one pair at a time, so a lazily read file is read only once
    the files before it are checked.  η for Σ (`conversion.eta_sigma`) is
    set from the config for the run and restored after.

    Given `stop_after`, the run ends once the first declaration of that
    name is checked: it is the last one reported, the rest of its file is
    lexed (its chunk parsed) but not checked, and no later pair is read
    from `sources`."""
    glob = Globals(config)
    outer, conversion.eta_sigma = conversion.eta_sigma, glob.config.eta_sigma
    reports: list[CheckReport] = []
    try:
        for name, source in sources:
            report = _check_file(name, source, glob, stop_after)
            reports.append(report)
            if report.declarations and report.declarations[-1].name == stop_after:
                break
        return reports, glob
    finally:
        conversion.eta_sigma = outer


def _check_file(file: str, source: str, glob: Globals, stop_after: str | None) -> CheckReport:
    """Parse, resolve and check one file against (and extending) `glob`,
    each batch of declarations as the parser hands it on, up to the
    declaration named `stop_after` if it is in the file."""
    start = time.perf_counter()
    report = CheckReport(file)
    append = report.declarations.append
    checker = Checker(glob)
    resolver = Resolver(glob)
    seen = set(glob.entries)

    def check(decls: list[Declaration], pending: list[list]) -> None:
        for decl, checks in zip(decls, pending):
            decl_start = time.perf_counter()
            try:
                if decl.name in seen:
                    raise CheckFailure(Diagnostic("duplicate-name", f"duplicate declaration {decl.name!r}", decl.span))
                resolver.resolve(checks)
                checker.check_declaration(decl)
            except CheckFailure as exc:
                diagnostic = exc.diagnostic
            else:
                diagnostic = None
                seen.add(decl.name)
            ms = (time.perf_counter() - decl_start) * 1000
            append(DeclReport(decl.name, decl.kind, ms, decl.source_ref, diagnostic))
            if decl.name == stop_after:
                raise _Stop

    try:
        parse_module(source, check)
    except CheckFailure as exc:  # a lex or parse error: checking catches its own
        raise CheckFailure(exc.diagnostic, file) from None
    except _Stop:  # `parse_module` lexed the rest of the file first
        pass
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
