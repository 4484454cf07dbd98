"""Command-line entry point: check, normalize, gen, oracle.

Exit codes (frozen): 0 = everything accepted / all suites pass,
1 = logical rejection (a declaration or suite failed),
2 = environmental, usage or internal error (missing file, parse error,
bad flag, exhausted stack or memory, kernel invariant broken).
"""

from __future__ import annotations

import contextlib
import gc
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, NoReturn

from .diagnostics import CheckFailure, encode_basestring

if TYPE_CHECKING:
    from .evaluate import quote
    from .globals import Config
    from .pipeline import check_files, run_deep
    from .printer import print_term

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_USAGE = 2

USAGE = """\
usage: minihott [--format {text,json}] COMMAND ...

  check FILE... [--no-eta-sigma] [--max-level N]    type-check files in order
  normalize FILE... --name NAME [--no-eta-sigma] [--max-level N]
                                                    print a definition's normal form
  gen --level N [--out DIR]                         write the corpus (to corpus/generated)
  oracle [--suite NAME]... [--bound N]              run the finite-model suites

--no-eta-sigma turns off definitional extensionality for pairs, and
--max-level sets the universe ceiling (8 by default).  An option's value
is the next argument or follows `=`.  -h or --help prints this text.
"""

# The options of the command line, before the command (key None) and of
# each command: flag -> (attribute, how its value is read).  `None` reads
# no value and sets the attribute to False; `list` appends the value; a
# tuple lists the values allowed.
_KERNEL_OPTIONS = {"--no-eta-sigma": ("eta_sigma", None), "--max-level": ("max_level", int)}
OPTIONS = {
    None: {"--format": ("format", ("text", "json"))},
    "check": _KERNEL_OPTIONS,
    "normalize": {**_KERNEL_OPTIONS, "--name": ("name", str)},
    "gen": {"--level": ("level", int), "--out": ("out", str)},
    "oracle": {"--suite": ("suite", list), "--bound": ("bound", int)},
}
DEFAULTS = {
    "format": "text", "eta_sigma": True, "max_level": None, "name": None,
    "level": None, "out": os.path.join("corpus", "generated"), "suite": None, "bound": None,
}
# What each command must be given: `files`, its arguments, or an option.
REQUIRED = {"check": ("files",), "normalize": ("files", "name"), "gen": ("level",), "oracle": ()}


def parse_args(argv: list[str]) -> SimpleNamespace | None:
    """The command line `argv` as attributes (`command`, `files` and each
    option's); None for `-h`/`--help`.  A usage error raises `ValueError`."""
    values = {**DEFAULTS, "files": []}
    command, options = None, OPTIONS[None]
    items = iter(argv)
    for item in items:
        if item in ("-h", "--help"):
            return None
        if not item.startswith("-"):
            if command is None:
                if item not in COMMANDS:
                    raise ValueError(f"unknown command {item!r}: give one of {', '.join(COMMANDS)}")
                command, options = item, OPTIONS[item]
            elif "files" in REQUIRED[command]:
                values["files"].append(item)
            else:
                raise ValueError(f"{command} takes no argument {item!r}")
            continue
        flag, given, value = item.partition("=")
        if flag not in options:
            raise ValueError(f"unknown option {flag!r}" + (f" of {command}" if command else " before the command"))
        attr, read = options[flag]
        if read is None:
            if given:
                raise ValueError(f"option {flag} takes no value")
            values[attr] = False
            continue
        if not given:
            value = next(items, None)
            if value is None or value.startswith("--"):
                raise ValueError(f"option {flag} needs a value")
        if read is int:
            try:
                value = int(value)
            except ValueError:
                raise ValueError(f"option {flag} needs an integer, not {value!r}") from None
        elif read is list:
            value = [*(values[attr] or ()), value]
        elif read is not str and value not in read:
            raise ValueError(f"option {flag} must be one of {', '.join(read)}, not {value!r}")
        values[attr] = value
    if command is None:
        raise ValueError(f"no command: give one of {', '.join(COMMANDS)}")
    for need in REQUIRED[command]:
        if values[need] in (None, []):
            raise ValueError(f"{command} needs {'a file' if need == 'files' else '--' + need}")
    return SimpleNamespace(command=command, **values)


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


def _config(args: SimpleNamespace) -> Config:
    from .globals import DEFAULT_MAX_LEVEL, Config

    max_level = DEFAULT_MAX_LEVEL if args.max_level is None else args.max_level
    if max_level < 0:
        raise ValueError(f"--max-level must be at least 0, not {max_level}")
    return Config(max_level=max_level, eta_sigma=args.eta_sigma)


def _read_files(paths: list[str]):
    """(path, text) of each file, less a leading byte-order mark, read when the driver reaches it."""
    for path in paths:
        # The mark is dropped after decoding, so that a decode error names its byte's offset in the file.
        with open(path, encoding="utf-8") as handle:
            try:
                text = handle.read().removeprefix("\ufeff")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: {exc}") from None
        yield path, text


def cmd_check(args: SimpleNamespace) -> int:
    _load_kernel()
    config = _config(args)
    reports, _ = run_deep(lambda: check_files(_read_files(args.files), config))
    if args.format == "json":
        write = sys.stdout.write
        write('{\n  "reports": [')
        for n, report in enumerate(reports):
            write(",\n    " if n else "\n    ")
            report.write(write, "\n    ")
        write("\n  ]\n}\n" if reports else "]\n}\n")
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


def cmd_normalize(args: SimpleNamespace) -> int:
    _load_kernel()
    config = _config(args)

    def run():
        # Nothing after the first declaration named NAME can change it, so
        # the check stops there; each later file is still read, so that one
        # that cannot be read or decoded is an error as under `check`.
        files = _read_files(args.files)
        reports, glob = check_files(files, config, stop_after=args.name)
        for _ in files:
            pass
        entry = glob.lookup(args.name)
        if entry is None or entry.kind != "def" or not all(r.ok for r in reports):
            return None, reports
        return print_term(quote(0, entry.value)), reports

    normal, reports = run_deep(run)
    if not all(r.ok for r in reports):
        for report in reports:
            for decl in report.declarations:
                if decl.diagnostic is not None:
                    print(decl.diagnostic.format(report.file), file=sys.stderr)
        return EXIT_REJECTED
    if normal is None:
        # the check stopped at the first declaration named NAME, if there is one
        named = [decl.kind for decl in reports[-1].declarations[-1:] if decl.name == args.name]
        if named:
            message = f"{args.name!r} is {'an axiom' if named[0] == 'axiom' else 'a goal'}, not a definition"
        else:
            message = f"no definition named {args.name!r} in the checked files"
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        print(f'{{"name": {encode_basestring(args.name)}, "normal_form": {encode_basestring(normal)}}}')
    else:
        print(normal)
    return EXIT_OK


def cmd_gen(args: SimpleNamespace) -> int:
    from .corpus import manifest

    written = manifest.write_corpus(args.out, args.level)
    if args.format == "json":
        paths = ",".join(f"\n    {encode_basestring(rel)}" for rel in written)
        paths = f"[{paths}\n  ]" if written else "[]"
        print(f'{{\n  "out": {encode_basestring(args.out)},\n  "written": {paths}\n}}')
    else:
        for rel in written:
            print(os.path.join(args.out, rel))
    return EXIT_OK


def cmd_oracle(args: SimpleNamespace) -> int:
    from . import oracle

    bound = oracle.DEFAULT_BOUND if args.bound is None else args.bound
    report = oracle.run_suites(args.suite, bound)
    if args.format == "json":
        report.write(sys.stdout.write)
        print()
    else:
        for suite in report.declarations:
            status = "pass" if suite.ok else "FAIL"
            print(f"{status} {suite.name}: {suite.cases} cases ({suite.ms:.1f} ms)")
            for witness in suite.counterexamples:
                print(f"  counterexample: {witness}")
    return EXIT_OK if report.ok else EXIT_REJECTED


COMMANDS = {"check": cmd_check, "normalize": cmd_normalize, "gen": cmd_gen, "oracle": cmd_oracle}


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            print(USAGE, end="")
            return EXIT_OK
        return COMMANDS[args.command](args)
    except CheckFailure as exc:
        return _error(exc.diagnostic.format(exc.file))
    except (OSError, ValueError) as exc:
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
    this), so a collection would only walk the live values.  The process
    ends with `os._exit` once the output is flushed: the operating system
    takes the memory back at once, where the interpreter's own exit would
    free every value and term one at a time.

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
