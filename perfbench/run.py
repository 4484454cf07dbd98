"""The minihott benchmark: the real CLI, one fresh child process at a time.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py          # every workload, untraced and traced

Each op runs `python -m minihott ...` from this checkout's `src/` in a new
interpreter. The kernel's memo tables are process-global, so a second check
in one process would reuse the first one's results. Ops run in a closed loop
with a single client: the next op starts when the previous one has exited.
The checker is single-threaded, so one child at a time fits a 2-core machine.
Every child runs under a wall-time limit and an address-space limit; an op
that exceeds either, crashes, exits with an unexpected code or prints an
output that differs from its reference is a failed op.

A shared host can run the same code up to 1.8x slower for tens of seconds at
a time, on one core and not the other. So the benchmark pins itself and its
children to one CPU, and while a child runs a thread of the benchmark times
a fixed piece of Python work (the probe) on that CPU every 50 ms. Every
end-to-end time is reported in reference seconds: the measured time divided
by the host's slowdown, the mean probe time over PROBE_REF_S. The measured
(raw) times and the slowdowns are printed and recorded too.

With `--trace 0` the run measures end-to-end metrics. With `--trace 1` it
runs the workload's first op untraced, then traced through `traced_cli.py`
at least twice, and reports per-layer metrics; the traced counts must repeat
exactly. Metric names, units and the reason for each workload come from
BENCHMARK.json. The last line of standard output is one JSON object; the
full record of each run is written under perfbench/.work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import synth

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
CORPUS = ROOT / "corpus" / "generated"
EXPECTED_NORMAL_FORMS = BENCH / "expected" / "normal_forms.json"

perf = time.perf_counter
NPROC = len(os.sched_getaffinity(0))  # before pin_to_one_cpu narrows it

MEMORY_LIMIT = 4 << 30  # bytes of address space per child; the corpus check peaks near 0.75 GB RSS
PROBE_INTERVAL_S = 0.05
# The probe's time on an uncontended core of a 2 GHz Xeon VM (Python 3.11):
# a time in reference seconds is what that core would have measured.
PROBE_REF_S = 245e-6
RUN_DEADLINE_S = 165  # no child outlives this point of a run, so every run exits within 180 s
SETUP_REPS = 25
NORMALIZE_PREFIX_FILES = 13  # prelude, generic and level 0: the 220 level-0 definitions
NORMALIZE_DRAWS = 8
NORMALIZE_ROUNDS = 3
ORACLE_CASES = {
    "enumeration": 35,
    "groupoid-laws": 14186,
    "path-container": 73,
    "transport-conjugation": 686,
    "commutation-witnesses": 5,
    "sigma-loop-cardinality": 6,
}
COUNT_UNITS = ("count", "bytes")
LIMITS_S = {"corpus": 120.0, "synth": 60.0, "normalize": 12.0, "tools": 30.0}

# Not workloads: each would turn every run into the limit. Owned by ROADMAP item 4.
KNOWN_DEFECTS = [
    "check of `def n : Nat := 200000` ends in an uncaught RecursionError, exit 1",
    "`oracle --bound 6` runs for more than 5 minutes",
    "10 of the 220 level-0 definitions did not normalize within 8 s when recorded; "
    "`normalize` ops on them are failed ops (no recorded normal form)",
]


# --- the host's speed ------------------------------------------------------


def probe_work() -> None:
    counts: dict[tuple, int] = {}
    for i in range(1500):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1


def probe_s() -> float:
    """Time one probe; a first untimed pass refills the caches the child evicted."""
    probe_work()
    start = perf()
    probe_work()
    return perf() - start


def probe_while(done: threading.Event, samples: list[float]) -> None:
    while True:
        samples.append(probe_s())
        if done.wait(PROBE_INTERVAL_S):
            return


def pin_to_one_cpu() -> None:
    """Run this process, its probe and its children on one CPU, so that the
    probe measures the core the child runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


# --- one child process ---------------------------------------------------


@dataclass
class Exit:
    code: int | None  # None when the child was killed at its time limit
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes
    slowdown: float  # mean probe time while the child ran, over PROBE_REF_S


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("MINIHOTT_MAX_LEVEL", None)
    return env


def limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def spawn(argv: list[str], timeout_s: float) -> Exit:
    """Run one child to completion or to `timeout_s`; resources from wait4,
    the host's slowdown from the probe."""
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    samples: list[float] = []
    done = threading.Event()
    prober = threading.Thread(target=probe_while, args=(done, samples))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=out, stderr=err, preexec_fn=limit_memory,
        )
        pidfd = os.pidfd_open(proc.pid)
        try:
            prober.start()
            killed = not select.select([pidfd], [], [], max(timeout_s, 0.0))[0]
            if killed:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            os.close(pidfd)
            done.set()
            prober.join()
        wall = perf() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(
        None if killed else proc.returncode,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024,
        out_path.read_bytes(),
        err_path.read_bytes(),
        statistics.fmean(samples) / PROBE_REF_S,
    )


# --- ops -------------------------------------------------------------------

Verify = Callable[[int, bytes], "str | None"]  # (exit code, stdout) -> failure reason


@dataclass
class Command:
    argv: list[str]  # arguments to `minihott`
    limit_s: float
    verify: Verify
    before: Callable[[], None] | None = None  # untimed preparation, e.g. emptying an output dir


@dataclass
class Op:
    label: str
    commands: list[Command]
    known_defect: bool = False  # failing is expected at the seed commit


@dataclass
class Sample:
    label: str
    wall_s: float = 0.0  # reference seconds
    cpu_s: float = 0.0  # reference seconds
    raw_wall_s: float = 0.0
    raw_cpu_s: float = 0.0
    rss_mb: float = 0.0
    failure: str | None = None
    known_defect: bool = False
    traces: list[dict] = field(default_factory=list)


def run_op(op: Op, deadline: float, traced: bool) -> Sample:
    sample = Sample(op.label, known_defect=op.known_defect)
    trace_path = WORK / "trace.json"
    for command in op.commands:
        if command.before is not None:
            command.before()
        if traced:
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(trace_path), *command.argv]
        else:
            argv = [sys.executable, "-m", "minihott", *command.argv]
        limit = min(command.limit_s, deadline - perf())
        result = spawn(argv, limit)
        sample.wall_s += result.wall_s / result.slowdown
        sample.cpu_s += result.cpu_s / result.slowdown
        sample.raw_wall_s += result.wall_s
        sample.raw_cpu_s += result.cpu_s
        sample.rss_mb = max(sample.rss_mb, result.rss_mb)
        what = f"{op.label}: minihott {' '.join(command.argv[:2])}"
        if result.code is None:
            sample.failure = f"{what}: no exit within {limit:.1f} s"
        else:
            reason = command.verify(result.code, result.stdout)
            if reason is not None:
                tail = result.stderr.decode(errors="replace").strip().splitlines()[-1:]
                sample.failure = f"{what}: {reason}" + (f" ({tail[0]})" if tail else "")
        if sample.failure is not None:
            break
        if traced:
            sample.traces.append(json.loads(trace_path.read_text()))
    return sample


def verify_check(expected: list[list]) -> Verify:
    """`--format json check` must give exactly `expected` [file, name, status, code]."""
    want_code = 0 if all(status == "accepted" for _, _, status, _ in expected) else 1

    def verify(code: int, stdout: bytes) -> str | None:
        if code != want_code:
            return f"exit code {code}, expected {want_code}"
        try:
            reports = json.loads(stdout)["reports"]
            got = [
                [r["file"], d["name"], d["status"], d.get("diagnostic", {}).get("code")]
                for r in reports
                for d in r["declarations"]
            ]
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable report: {exc!r}"
        for want, have in zip(expected, got):
            if want != have:
                return f"expected {want}, got {have}"
        if len(got) != len(expected):
            return f"{len(got)} declarations reported, expected {len(expected)}"
        return None

    return verify


# --- workloads: each writes its inputs and expected outputs and returns rounds
# of ops; a run repeats whole rounds until its time is up ---


def manifest() -> dict:
    return json.loads((CORPUS / "manifest.json").read_text(encoding="utf-8"))


def corpus_files(files: list[dict]) -> list[str]:
    return [f"corpus/generated/{f['path']}" for f in files]


def expected_accepted(files: list[dict]) -> list[list]:
    return [
        [f"corpus/generated/{f['path']}", d["name"], "accepted", None]
        for f in files
        for d in f["declarations"]
    ]


def write_json(path: Path, value) -> None:
    path.write_text(json.dumps(value, indent=1) + "\n", encoding="utf-8")


def prepare_corpus(seed: int, work: Path) -> list[list[Op]]:
    files = manifest()["files"]
    expected = expected_accepted(files)
    write_json(work / "expected.json", expected)
    argv = ["--format", "json", "check", *corpus_files(files)]
    return [[Op("corpus", [Command(argv, LIMITS_S["corpus"], verify_check(expected))])]]


def prepare_synth(seed: int, work: Path) -> list[list[Op]]:
    source, verdicts = synth.program(seed)
    path = work / f"synth-{seed}.hott"
    path.write_text(source, encoding="utf-8")
    rel = str(path.relative_to(ROOT))
    expected = [[rel, name, status, code] for name, status, code in verdicts]
    write_json(work / "expected.json", expected)
    argv = ["--format", "json", "check", rel]
    return [[Op(f"synth-{seed}", [Command(argv, LIMITS_S["synth"], verify_check(expected))])]]


def verify_normal_form(record: dict | None) -> Verify:
    def verify(code: int, stdout: bytes) -> str | None:
        if record is None:
            return "no recorded normal form to compare with (known defect)"
        if code != 0:
            return f"exit code {code}, expected 0"
        text = stdout[:-1] if stdout.endswith(b"\n") else stdout
        if len(text) != record["bytes"] or hashlib.sha256(text).hexdigest() != record["sha256"]:
            return f"normal form of {len(text)} bytes differs from the recorded one"
        return None

    return verify


def normalize_inputs() -> tuple[list[str], list[str]]:
    """(the files through level 0, their definitions in manifest order)."""
    files = manifest()["files"][:NORMALIZE_PREFIX_FILES]
    defs = [d["name"] for f in files for d in f["declarations"] if d["kind"] == "def"]
    return corpus_files(files), defs


def normalize_sample(seed: int, defs: list[str], recorded: dict) -> list[list[str]]:
    """Rounds of basePoint0, one definition drawn by `seed` from those with no
    recorded normal form, and NORMALIZE_DRAWS from those with one.

    Every round holds the same number of non-terminating ops, so a run's
    failure share does not hinge on which definitions the seed drew.
    """
    rng = random.Random(seed)
    done = [d for d in defs if recorded.get(d)]
    stuck = [d for d in defs if not recorded.get(d)]
    return [
        ["basePoint0"] + rng.sample(stuck, min(1, len(stuck))) + rng.sample(done, NORMALIZE_DRAWS)
        for _ in range(NORMALIZE_ROUNDS)
    ]


def prepare_normalize(seed: int, work: Path) -> list[list[Op]]:
    files, defs = normalize_inputs()
    recorded = json.loads(EXPECTED_NORMAL_FORMS.read_text(encoding="utf-8"))
    rounds = normalize_sample(seed, defs, recorded)
    write_json(work / "expected.json", [[[name, recorded.get(name)] for name in names] for names in rounds])
    return [
        [
            Op(
                name,
                [Command(["normalize", *files, "--name", name], LIMITS_S["normalize"],
                         verify_normal_form(recorded.get(name)))],
                known_defect=recorded.get(name) is None,
            )
            for name in names
        ]
        for names in rounds
    ]


def verify_gen(out_dir: Path, reference: dict[str, bytes]) -> Verify:
    def verify(code: int, stdout: bytes) -> str | None:
        if code != 0:
            return f"exit code {code}, expected 0"
        written = {str(p.relative_to(out_dir)): p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}
        if written.keys() != reference.keys():
            return f"wrote {sorted(written.keys() ^ reference.keys())} unlike the checked-in corpus"
        differing = [rel for rel in reference if written[rel] != reference[rel]]
        return f"{differing} differ from the checked-in corpus" if differing else None

    return verify


def verify_oracle(code: int, stdout: bytes) -> str | None:
    if code != 0:
        return f"exit code {code}, expected 0"
    try:
        suites = json.loads(stdout)["declarations"]
        got = {s["name"]: (s["status"], s["cases"]) for s in suites}
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
    want = {name: ("accepted", cases) for name, cases in ORACLE_CASES.items()}
    return None if got == want else f"suites {got}, expected {want}"


def prepare_tools(seed: int, work: Path) -> list[list[Op]]:
    reference = {
        str(p.relative_to(CORPUS)): p.read_bytes() for p in CORPUS.rglob("*") if p.is_file()
    }
    first = manifest()["files"][:1]
    expected = expected_accepted(first)
    write_json(work / "expected.json", {"check": expected, "oracle_cases": ORACLE_CASES})
    out_dir = work / "gen"
    gen_argv = ["gen", "--level", "2", "--out", str(out_dir.relative_to(ROOT))]
    limit = LIMITS_S["tools"]
    return [[
        Op("tools", [
            Command(gen_argv, limit, verify_gen(out_dir, reference),
                    before=lambda: shutil.rmtree(out_dir, ignore_errors=True)),
            Command(["--format", "json", "oracle"], limit, verify_oracle),
            Command(["--format", "json", "check", *corpus_files(first)], limit, verify_check(expected)),
        ])
    ]]


WORKLOADS = {
    "corpus": prepare_corpus,
    "synth": prepare_synth,
    "normalize": prepare_normalize,
    "tools": prepare_tools,
}


# --- metrics ---------------------------------------------------------------


def layer_metrics(traces: list[dict]) -> dict:
    """Per-layer metrics of one op from its commands' trace summaries."""

    def add(key: str, name: str):
        return sum(t[key].get(name, 0) for t in traces)

    def table(name: str):
        sizes = [t["tables"][name] for t in traces if t["tables"][name] is not None]
        return sum(sizes) if sizes else None

    decls = [decl for t in traces for decl in t["decls"]]  # [name, ms]
    decl_ms = [ms for _, ms in decls]
    slowest = max(decls, key=lambda d: d[1], default=[None, 0.0])
    metrics = {
        "parser.tokens": add("noted", "tokenize"),
        "parser.lex_s": add("total_s", "tokenize"),
        "parser.parse_s": add("self_s", "parse_module"),
        "resolver.resolve_s": add("total_s", "resolve"),
        "checker.decls": add("calls", "check_declaration"),
        "checker.self_s": add("self_s", "check_declaration"),
        "checker.decl_p50_ms": statistics.median(decl_ms) if decl_ms else 0.0,
        "checker.decl_max_ms": slowest[1],
        "conversion.calls": add("calls", "subtype") + add("calls", "conv"),
        "conversion.false": add("false", "subtype") + add("false", "conv"),
        "conversion.s": add("total_s", "subtype") + add("total_s", "conv"),
        "conversion.memo_entries": table("conversion.memo_entries"),
        "conversion.app_memo_entries": table("conversion.app_memo_entries"),
        "evaluate.calls": add("calls", "evaluate"),
        "evaluate.s": add("total_s", "evaluate"),
        "evaluate.memo_entries": table("evaluate.memo_entries"),
        "values.env_intern_entries": table("values.env_intern_entries"),
        "evaluate.quote_s": add("total_s", "quote"),
        "printer.print_s": add("total_s", "print_term"),
        "printer.bytes": add("noted", "print_term"),
        "gc.s": sum(t["gc_s"] for t in traces),
        "gc.collections": sum(t["gc_collections"] for t in traces),
        "oracle.cases": sum(
            n for t in traces for name, n in t["noted"].items() if name.startswith("oracle.")
        ),
        "corpus.emit_s": add("total_s", "emit_corpus"),
        "corpus.render_s": add("total_s", "render"),
        "cli.import_s": sum(t["import_s"] for t in traces),
        "cli.report_s": add("total_s", "main") - add("total_s", "work"),
    }
    for suite in ORACLE_CASES:
        metrics[f"oracle.{suite}_s"] = add("total_s", f"oracle.{suite}")
    spans = {}
    for t in traces:
        for name, seconds in t["total_s"].items():
            spans[name] = spans.get(name, 0.0) + seconds
    return {"metrics": metrics, "slowest_decl": slowest[0], "span_total_s": spans}


def end_to_end(samples: list[Sample], setup_s: float) -> dict:
    return {
        "wall_s": statistics.median([s.wall_s for s in samples]),
        "cpu_s": statistics.median([s.cpu_s for s in samples]),
        "peak_rss_mb": statistics.median([s.rss_mb for s in samples]),
        "ok_frac": sum(s.failure is None for s in samples) / len(samples),
        "setup_s": setup_s,
    }


def environment(seed: int) -> dict:
    sources = sorted((ROOT / "src" / "minihott").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None  # a checkout made without git history records only the source digest
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "seed": seed,
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": NPROC,
        "cpus": sorted(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
    }


# --- one run ---------------------------------------------------------------


def run(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = perf()
    deadline = started + RUN_DEADLINE_S
    env = environment(seed)
    work = WORK / workload
    work.mkdir(parents=True, exist_ok=True)
    setup_times = []
    probes = []
    for _ in range(SETUP_REPS):
        probes.append(probe_s())
        start = perf()
        rounds = WORKLOADS[workload](seed, work)
        setup_times.append(perf() - start)
    setup_s = statistics.median(setup_times) / (statistics.median(probes) / PROBE_REF_S)  # reference seconds

    samples: list[Sample] = []
    untraced: list[Sample] = []
    traced: list[Sample] = []
    if not trace:
        for ops in itertools.cycle(rounds):
            if samples and perf() - started >= seconds:
                break
            samples.extend(run_op(op, deadline, traced=False) for op in ops)
    else:
        for with_trace in itertools.chain([False, True, True], itertools.cycle([False, True])):
            if len(traced) >= 2 and perf() - started >= seconds:
                break
            sample = run_op(rounds[0][0], deadline, traced=with_trace)
            (traced if with_trace else untraced).append(sample)
            samples.append(sample)

    failures = [s for s in samples if s.failure is not None]
    problems = [s.failure for s in failures if not s.known_defect]
    record = {
        "workload": workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload),
        "trace": trace,
        "seconds": seconds,
        "environment": env,
        "known_defects": KNOWN_DEFECTS,
        "setup_runs_s": setup_times,
        "setup_probes_s": probes,
        "samples": [
            {"op": s.label, "wall_s": s.wall_s, "cpu_s": s.cpu_s, "raw_wall_s": s.raw_wall_s,
             "raw_cpu_s": s.raw_cpu_s, "rss_mb": s.rss_mb, "failure": s.failure, "traced": bool(s.traces)}
            for s in samples
        ],
    }
    if not trace:
        values = end_to_end(samples, setup_s)
        declared = spec["end_to_end"]
    else:
        layers = [layer_metrics(s.traces) for s in traced if s.failure is None]
        if len(layers) < 2:
            problems.append("fewer than two traced ops completed")
            values = {m["name"]: None for m in spec["per_layer"]}
        else:
            # Counts must repeat exactly; times are medians over the traced ops.
            count_names = [m["name"] for m in spec["per_layer"] if m["unit"] in COUNT_UNITS]
            counts = [{name: layer["metrics"][name] for name in count_names} for layer in layers]
            values = {
                name: statistics.median([layer["metrics"][name] for layer in layers])
                for name in layers[0]["metrics"] if name not in counts[0]
            }
            values.update(counts[0])
            values["trace.overhead_s"] = (
                statistics.median([s.cpu_s for s in traced]) - statistics.median([s.cpu_s for s in untraced])
            )
            if any(c != counts[0] for c in counts):
                problems.append(f"traced counts differ between ops: {counts}")
            record["slowest_decl"] = layers[0]["slowest_decl"]
            record["span_total_s"] = layers[0]["span_total_s"]
        declared = spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    record.update(metrics=metrics, problems=problems, failed=len(failures), attempted=len(samples))
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    write_json(results / f"{workload}-seed{seed}-trace{int(trace)}.json", record)

    print(f"# {workload} (seed {seed}, {'traced' if trace else 'untraced'}): {record['why']}")
    print(f"# python {env['python']}, commit {env['commit']}, nproc {env['nproc']}, "
          f"load {env['loadavg_at_start'][0]:.2f}, src lines {env['src_lines']}")
    print(f"# {len(samples)} ops, {len(failures)} failed "
          f"(fail_frac {len(failures) / len(samples):.4f}), wall-time sample count {len(samples)}")
    raw_wall = statistics.median([s.raw_wall_s for s in samples])
    raw_cpu = statistics.median([s.raw_cpu_s for s in samples])
    slowdown = statistics.median([s.raw_wall_s / s.wall_s for s in samples])
    print(f"# times in reference seconds; as measured: median wall {raw_wall:.4f} s, cpu {raw_cpu:.4f} s; "
          f"median host slowdown {slowdown:.3f}")
    for name, metric in metrics.items():
        print(f"{workload} {name} = {metric['value']} {metric['unit']}")
    if "span_total_s" in record:
        spans = ", ".join(f"{name} {sec:.3f} s" for name, sec in record["span_total_s"].items())
        print(f"# slowest declaration: {record['slowest_decl']}; span totals of one traced op: {spans}")
    for problem in problems:
        print(f"# problem: {problem}")
    return {"correct": not problems, "attempted": len(samples), "failed": len(failures), "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload (default: every workload, untraced then traced)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in (ROOT / "BENCHMARK.json", ROOT / "src" / "minihott" / "cli.py", CORPUS / "manifest.json",
                   EXPECTED_NORMAL_FORMS):
        if not needed.is_file():
            print(f"perfbench: {needed.relative_to(ROOT)} is missing; run from a full checkout of minihott",
                  file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    WORK.mkdir(exist_ok=True)
    pin_to_one_cpu()

    if args.workload is not None:
        result = run(spec, args.workload, args.seed, seconds, bool(args.trace))
        print(json.dumps(result))
        return 0
    correct = True
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run(spec, workload, args.seed, seconds, trace)
            print(json.dumps(result))
            correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
