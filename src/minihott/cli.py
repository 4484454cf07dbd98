"""Command-line entry point: check, normalize, gen, oracle.

Exit codes (frozen): 0 = everything accepted / all suites pass,
1 = logical rejection (a declaration or suite failed),
2 = environmental, usage or internal error (missing file, parse error,
bad flag, exhausted stack or memory, kernel invariant broken).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys
from typing import TYPE_CHECKING, NoReturn

from .diagnostics import CheckFailure, KernelBug

if TYPE_CHECKING:
    from .evaluate import quote
    from .globals import Config
    from .pipeline import check_files, run_deep
    from .printer import print_term

MAX_LEVEL_ENV = "MINIHOTT_MAX_LEVEL"

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minihott",
        description="A small dependent type checker with a generated proof corpus and a finite-model oracle.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="type-check .hott files in order")
    check.add_argument("files", nargs="+")
    _kernel_flags(check)

    norm = sub.add_parser("normalize", help="print the normal form of a named definition")
    norm.add_argument("files", nargs="+")
    norm.add_argument("--name", required=True)
    _kernel_flags(norm)

    gen = sub.add_parser("gen", help="write the generated corpus to disk")
    gen.add_argument("--level", type=int, required=True)
    gen.add_argument("--out", default=os.path.join("corpus", "generated"))

    orc = sub.add_parser("oracle", help="run finite-model verification suites")
    orc.add_argument("--suite", action="append", default=None)
    orc.add_argument("--bound", type=int, default=None)

    return parser


def _kernel_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--no-eta-sigma", dest="eta_sigma", action="store_false", default=True)
    parser.add_argument("--max-level", type=int, default=None)


# The kernel's entry points, bound as module globals by `_load_kernel` on the
# first `check` or `normalize`: `gen` and `oracle` never import the kernel.
_KERNEL_NAMES = ("quote", "print_term", "check_files", "run_deep")


def _load_kernel() -> None:
    """Bind the kernel's entry points in this module, keeping any binding
    that is already there: a caller may have replaced one with a wrapper
    (perfbench/traced_cli.py does) before the command runs."""
    from .evaluate import quote
    from .pipeline import check_files, run_deep
    from .printer import print_term

    bindings = globals()
    for name, value in zip(_KERNEL_NAMES, (quote, print_term, check_files, run_deep)):
        bindings.setdefault(name, value)


def __getattr__(name: str):
    # PEP 562: reading `cli.quote` and the like from outside loads the kernel.
    if name in _KERNEL_NAMES:
        _load_kernel()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _config(args: argparse.Namespace) -> Config:
    from .globals import DEFAULT_MAX_LEVEL, Config

    max_level = getattr(args, "max_level", None)
    if max_level is None:
        max_level = int(os.environ.get(MAX_LEVEL_ENV, DEFAULT_MAX_LEVEL))
    return Config(max_level=max_level, eta_sigma=getattr(args, "eta_sigma", True))


def _read_files(paths: list[str]):
    """(path, text) of each file, read only when the driver reaches it."""
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            yield path, handle.read()


def cmd_check(args: argparse.Namespace) -> int:
    _load_kernel()
    config = _config(args)
    reports, _ = run_deep(lambda: check_files(_read_files(args.files), config))
    if args.format == "json":
        print(json.dumps({"reports": [r.to_json() for r in reports]}, ensure_ascii=False, indent=2))
    else:
        for report in reports:
            for decl in report.declarations:
                line = f"{report.file}: {decl.status:8s} {decl.kind} {decl.name} ({decl.ms:.1f} ms)"
                print(line)
                if decl.diagnostic is not None:
                    print(f"  {decl.diagnostic.format(report.file)}")
        accepted = sum(r.accepted for r in reports)
        rejected = sum(r.rejected for r in reports)
        print(f"checked {len(reports)} file(s): {accepted} accepted, {rejected} rejected")
    return EXIT_OK if all(r.ok for r in reports) else EXIT_REJECTED


def cmd_normalize(args: argparse.Namespace) -> int:
    _load_kernel()
    config = _config(args)

    def run():
        reports, glob = check_files(_read_files(args.files), config)
        if not all(r.ok for r in reports):
            return None, None, reports
        entry = glob.lookup(args.name)
        if entry is None or entry.kind != "def":
            return None, glob, reports
        return print_term(quote(0, entry.value)), glob, reports

    normal, glob, reports = run_deep(run)
    if glob is None:
        for report in reports:
            for decl in report.declarations:
                if decl.diagnostic is not None:
                    print(decl.diagnostic.format(report.file), file=sys.stderr)
        return EXIT_REJECTED
    if normal is None:
        print(f"error: no definition named {args.name!r} in the checked files", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        print(json.dumps({"name": args.name, "normal_form": normal}, ensure_ascii=False))
    else:
        print(normal)
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    from .corpus import manifest

    written = manifest.write_corpus(args.out, args.level)
    if args.format == "json":
        print(json.dumps({"out": args.out, "written": written}, ensure_ascii=False, indent=2))
    else:
        for rel in written:
            print(os.path.join(args.out, rel))
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    from . import oracle

    bound = oracle.DEFAULT_BOUND if args.bound is None else args.bound
    reports = oracle.run_suites(args.suite, bound)
    if args.format == "json":
        print(json.dumps(oracle.reports_to_json(reports), ensure_ascii=False, indent=2))
    else:
        for report in reports:
            status = "pass" if report.ok else "FAIL"
            print(f"{status} {report.suite}: {report.cases} cases ({report.ms:.1f} ms)")
            for witness in report.counterexamples:
                print(f"  counterexample: {witness}")
    return EXIT_OK if all(r.ok for r in reports) else EXIT_REJECTED


COMMANDS = {
    "check": cmd_check,
    "normalize": cmd_normalize,
    "gen": cmd_gen,
    "oracle": cmd_oracle,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return COMMANDS[args.command](args)
    except CheckFailure as exc:
        return _error(exc.diagnostic.format(exc.file))
    except (RecursionError, MemoryError, KernelBug) as exc:
        # The checker ran out of stack or memory, or broke an invariant:
        # no verdict on the input, so not a rejection.
        return _error(f"internal error: {type(exc).__name__}: {exc}")
    except (OSError, ValueError, KeyError) as exc:
        return _error(exc)


def _error(message) -> int:
    """Write one `error:` line to stderr, if it can be written, and return
    the usage exit code: a closed or broken stderr must not turn a usage
    or environment error into a traceback or another exit code."""
    if sys.stderr is not None:  # None when started with the descriptor closed
        with contextlib.suppress(OSError):
            print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def console_main() -> NoReturn:
    """Run `main` as the whole process: the `minihott` command and
    `python -m minihott` both start here.

    The cyclic garbage collector stays off from here to the exit: the
    kernel creates no reference cycles (tests/test_kernel.py checks
    this) and argparse leaves a few hundred at most, so a collection
    would only walk the live values.  The process ends with `os._exit`
    once the output is flushed: the operating system takes the memory
    back at once, where the interpreter's own exit would free every
    value and term one at a time.

    A flush that fails (say, a closed pipe) exits 2, with an `error:`
    line unless `main` already exited 2 with one, as it does when a write
    failed while the command ran.
    """
    gc.disable()
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when started with the descriptor closed
                stream.flush()
    except OSError as exc:
        if code != EXIT_USAGE:
            code = _error(exc)
    os._exit(code)


if __name__ == "__main__":
    console_main()
