"""Run the minihott CLI with a span recorded at each layer boundary.

Usage: python traced_cli.py TRACE_OUT.json MINIHOTT_ARGS...

The wrappers are installed from here, around the calls into each layer, so
the program's own sources stay untouched:

- the kernel as the checker calls it: `checker.subtype`, `checker.conv`,
  `checker.evaluate`, `checker.quote` (and `cli.quote` for `normalize`);
- `printer.print_term` (and its `cli` binding);
- `pipeline.parse_module` and `parser.tokenize`;
- `Resolver.resolve` (outermost call only) and `Checker.check_declaration`;
- every function in `oracle.SUITES`;
- `corpus.manifest.emit_corpus` and `corpus.build.HottFile.render`;
- the command's own work (`cli.run_deep`, `write_corpus`, `run_suites`),
  so that the time `main` spends outside it can be reported.

Spans stay in memory; when the command returns, their totals, the
per-declaration times, the GC time and the sizes of the process-global memo
tables are written to TRACE_OUT as JSON, and the command's exit code is
passed on.
"""

from __future__ import annotations

import gc
import json
import sys
import time

perf = time.perf_counter
_t0 = perf()
import minihott.cli as cli  # noqa: E402  (the import is what is being timed)

IMPORT_S = perf() - _t0

# One span: [name, start, end, parent index, note]. The CLI runs one thread at
# a time (the main thread waits in `run_deep`'s join), so one stack suffices.
spans: list[list] = []
stack = [-1]


def wrap(name, fn, note=None, outermost=False):
    def wrapper(*args, **kwargs):
        if outermost and spans and stack[-1] >= 0 and spans[stack[-1]][0] == name:
            return fn(*args, **kwargs)
        index = len(spans)
        record = [name, perf(), 0.0, stack[-1], None]
        spans.append(record)
        stack.append(index)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            stack.pop()
            record[2] = perf()
            if note is not None:
                record[4] = note(args, result)

    return wrapper


def install() -> None:
    from minihott import checker, oracle, pipeline, parser, printer, resolver
    from minihott.corpus import build, manifest

    def verdict(args, result):
        return result

    def length(args, result):
        return None if result is None else len(result)

    for attr in ("subtype", "conv"):
        setattr(checker, attr, wrap(attr, getattr(checker, attr), verdict))
    for attr in ("evaluate", "quote"):
        setattr(checker, attr, wrap(attr, getattr(checker, attr)))
    cli.quote = wrap("quote", cli.quote)
    printer.print_term = wrap("print_term", printer.print_term, length)
    cli.print_term = wrap("print_term", cli.print_term, length)
    pipeline.parse_module = wrap("parse_module", pipeline.parse_module)
    parser.tokenize = wrap("tokenize", parser.tokenize, length)
    resolver.Resolver.resolve = wrap("resolve", resolver.Resolver.resolve, outermost=True)
    checker.Checker.check_declaration = wrap(
        "check_declaration", checker.Checker.check_declaration, lambda args, result: args[1].name
    )
    for suite, fn in list(oracle.SUITES.items()):
        oracle.SUITES[suite] = wrap(f"oracle.{suite}", fn, lambda args, result: result.cases)
    manifest.emit_corpus = wrap("emit_corpus", manifest.emit_corpus)
    build.HottFile.render = wrap("render", build.HottFile.render)
    cli.run_deep = wrap("work", cli.run_deep)
    manifest.write_corpus = wrap("work", manifest.write_corpus)
    oracle.run_suites = wrap("work", oracle.run_suites)


gc_time = [0.0, 0, 0.0]  # total seconds, collections, start of the current one


def on_gc(phase: str, info: dict) -> None:
    if phase == "start":
        gc_time[2] = perf()
    else:
        gc_time[0] += perf() - gc_time[2]
        gc_time[1] += 1


def table_size(module: str, attr: str):
    """Entries in a process-global memo table, or None once it no longer exists."""
    table = getattr(sys.modules.get(module), attr, None)
    return None if table is None else len(table)


def summarize() -> dict:
    child_time: dict[int, float] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    false: dict[str, int] = {}
    noted: dict[str, int] = {}
    decls = []
    for index, (name, start, end, parent, note) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time.get(index, 0.0)
        calls[name] = calls.get(name, 0) + 1
        if note is False:
            false[name] = false.get(name, 0) + 1
        elif isinstance(note, int) and not isinstance(note, bool):
            noted[name] = noted.get(name, 0) + note
        if name == "check_declaration":
            decls.append([note, (end - start) * 1000])
    return {
        "total_s": total,
        "self_s": self_time,
        "calls": calls,
        "false": false,
        "noted": noted,
        "decls": decls,
        "import_s": IMPORT_S,
        "gc_s": gc_time[0],
        "gc_collections": gc_time[1],
        "tables": {
            "conversion.memo_entries": table_size("minihott.conversion", "_memo"),
            "conversion.app_memo_entries": table_size("minihott.conversion", "_app_memo"),
            "evaluate.memo_entries": table_size("minihott.evaluate", "_memo"),
            "values.env_intern_entries": table_size("minihott.values", "_ENV_INTERN"),
        },
        "spans": spans,
    }


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    install()
    gc.callbacks.append(on_gc)
    main_fn = wrap("main", cli.main)
    try:
        code = main_fn(argv)
    finally:
        gc.callbacks.remove(on_gc)
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(summarize(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
