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
from json.encoder import encode_basestring
from typing import TYPE_CHECKING, NoReturn

from .diagnostics import CheckFailure

if TYPE_CHECKING:
    from .evaluate import quote
    from .globals import Config
    from .pipeline import check_files, run_deep
    from .printer import print_term

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

    max_level = DEFAULT_MAX_LEVEL if args.max_level is None else args.max_level
    if max_level < 0:
        raise ValueError(f"--max-level must be at least 0, not {max_level}")
    return Config(max_level=max_level, eta_sigma=args.eta_sigma)


# `print_json` prints this many of `_json_pieces`' pieces at a time.
PRINT_PIECES = 512


def print_json(value) -> None:
    """`print(json.dumps(value, ensure_ascii=False, indent=2))`, printed in
    pieces as the walk makes them, so that a large report is never held as
    one string."""
    pieces: list[str] = []
    append = pieces.append

    def put(piece: str) -> None:
        append(piece)
        if len(pieces) == PRINT_PIECES:
            print("".join(pieces), end="")
            pieces.clear()

    _json_pieces(value, "\n", put)
    print("".join(pieces))


def _json_pieces(value, indent: str, put) -> None:
    """Pass `json.dumps(value, ensure_ascii=False, indent=2)` to `put` in
    pieces of at most a line, for the JSON values of a report, in about
    half the time of `json.dumps`, which drops its C encoder given `indent`.
    An object with a `to_json` method, such as a file's `CheckReport` and
    each of its `DeclReport`s, is converted when the walk reaches it."""
    cls = value.__class__
    if cls is dict and value:
        inner = indent + "  "
        sep = "{" + inner
        for k, v in value.items():
            if (v.__class__ is dict or v.__class__ is list) and v:
                put(f"{sep}{encode_basestring(k)}: ")
                _json_pieces(v, inner, put)
            else:
                put(f"{sep}{encode_basestring(k)}: {_json_scalar(v)}")
            sep = "," + inner
        put(indent + "}")
    elif cls is list and value:
        inner = indent + "  "
        sep = "[" + inner
        for v in value:
            put(sep)
            _json_pieces(v, inner, put)
            sep = "," + inner
        put(indent + "]")
    elif hasattr(value, "to_json"):
        _json_pieces(value.to_json(), indent, put)
    else:
        put(_json_scalar(value))


# The JSON text of each constant a report holds; NaN, which equals nothing,
# is tested apart.
_JSON_CONSTANTS = {None: "null", True: "true", False: "false", float("inf"): "Infinity", float("-inf"): "-Infinity"}


def _json_scalar(value) -> str:
    """The JSON text of a string, number, constant, `{}` or `[]`."""
    cls = value.__class__
    if cls is str:
        return encode_basestring(value)
    if cls is int or (cls is float and value - value == 0):  # an int or a finite float
        return repr(value)
    if cls is dict or cls is list:
        return "{}" if cls is dict else "[]"
    return "NaN" if value != value else _JSON_CONSTANTS[value]


def _read_files(paths: list[str]):
    """(path, text) of each file, read only when the driver reaches it."""
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            try:
                text = handle.read()
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: {exc}") from None
        yield path, text


def cmd_check(args: argparse.Namespace) -> int:
    _load_kernel()
    config = _config(args)
    reports, _ = run_deep(lambda: check_files(_read_files(args.files), config))
    if args.format == "json":
        print_json({"reports": reports})
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
        print_json({"out": args.out, "written": written})
    else:
        for rel in written:
            print(os.path.join(args.out, rel))
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    from . import oracle

    bound = oracle.DEFAULT_BOUND if args.bound is None else args.bound
    report = oracle.run_suites(args.suite, bound)
    if args.format == "json":
        print_json(report)
    else:
        for suite in report.declarations:
            status = "pass" if suite.ok else "FAIL"
            print(f"{status} {suite.name}: {suite.cases} cases ({suite.ms:.1f} ms)")
            for witness in suite.counterexamples:
                print(f"  counterexample: {witness}")
    return EXIT_OK if report.ok else EXIT_REJECTED


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
    except (OSError, ValueError, KeyError) as exc:
        return _error(exc)
    except Exception as exc:
        # Out of stack or memory, a broken kernel invariant or any other
        # failure: no verdict on the input, so not a rejection.
        return _error(f"internal error: {type(exc).__name__}: {exc}")


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
