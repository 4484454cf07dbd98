"""Command-line interface: exit codes, output formats, generation
idempotence, and the report-schema contract."""

import contextlib
import gc
import hashlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
from unittest import mock

import jsonschema
import pytest
from conftest import (
    FURTHER_DECLS,
    KILLERS,
    PARSE_THEN_LEX_ERROR,
    SCHEMA,
    STRAY_PAREN,
    UNCLOSED_GROUPS,
    synth_program,
    without_ms,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from test_kernel import NORMAL_FORM_FILES, normal_forms
from test_resolve_errors import CASES as RESOLVE_CASES

from minihott import cli, conversion
from minihott.cli import EXIT_OK, EXIT_REJECTED, EXIT_USAGE, main
from minihott.diagnostics import WRITE_BATCH, CheckFailure, CheckReport, DeclReport, Diagnostic, Span
from minihott.globals import DEFAULT_MAX_LEVEL, Config
from minihott.pipeline import check_files

ROOT = pathlib.Path(__file__).resolve().parent.parent

GOOD = "def idTwo : Two -> Two\n  := fun b => b\n"
BAD = "goal wrong : Id Two zero2 one2\n  := refl zero2\n"
PARSE_ERROR = "def broken : Unit :=\n"


def write(tmp_path, name, text) -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# --- exit codes ---


def test_check_success_exits_zero(tmp_path, capsys):
    assert main(["check", write(tmp_path, "good.hott", GOOD)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "accepted" in out and "idTwo" in out


def test_check_rejection_exits_one(tmp_path, capsys):
    assert main(["check", write(tmp_path, "bad.hott", BAD)]) == EXIT_REJECTED
    assert "rejected" in capsys.readouterr().out


def test_parse_error_exits_two(tmp_path, capsys):
    assert main(["check", write(tmp_path, "broken.hott", PARSE_ERROR)]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_missing_file_exits_two(tmp_path, capsys):
    assert main(["check", str(tmp_path / "absent.hott")]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("code,text", [("lex", "def a : Unit := $\n"), ("parse", PARSE_ERROR)])
def test_lex_and_parse_errors_name_the_file(tmp_path, capsys, code, text):
    good = write(tmp_path, "good.hott", GOOD)
    bad = write(tmp_path, f"{code}.hott", text)
    assert main(["check", good, bad]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:") and f"error [{code}]" in err
    assert err.count("\n") == 1


# A rejected declaration, then chunks of accepted ones, then a parse error;
# and as many chunks more, ending in a lex error.
CHUNKS_OF_DECLS = "".join(f"def d{i} : Nat -> Nat := fun n => suc n\n" for i in range(400))
CHECKED_THEN_PARSE_ERROR = "def wrong : Nat := star\n" + CHUNKS_OF_DECLS + "def broken : Nat := )\n"
LATE_LEX_ERROR = CHUNKS_OF_DECLS.replace("def d", "def e") + "def z : Nat := $\n"


@pytest.mark.parametrize("late", ["", LATE_LEX_ERROR], ids=["parse-error", "lex-error-after"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_an_error_after_checked_declarations_is_the_only_output(tmp_path, capsys, monkeypatch, late, fmt):
    """The declarations of the chunks before a parse error are checked
    before it is raised, yet the run ends with that error alone and exit
    2; a lex error later in the file is the one reported instead."""
    from minihott import parser
    from minihott.checker import Checker

    checked = []
    check_declaration = Checker.check_declaration

    def recording(self, decl):
        checked.append(decl.name)
        return check_declaration(self, decl)

    monkeypatch.setattr(Checker, "check_declaration", recording)
    source = CHECKED_THEN_PARSE_ERROR + late
    assert len(CHUNKS_OF_DECLS) > 2 * parser.CHUNK
    path = write(tmp_path, "late.hott", source)
    assert main(["--format", fmt, "check", path]) == EXIT_USAGE
    out, err = capsys.readouterr()
    if late:
        at = source.index("$")
        assert err == f"error: {path}:{at}-{at}: error [lex] unexpected character '$'\n"
    else:
        at = source.index(")")
        assert err == f"error: {path}:{at}-{at + 1}: error [parse] expected a term, found ')'\n"
    assert out == ""
    assert checked[:2] == ["wrong", "d0"]
    assert "broken" not in checked


@pytest.mark.parametrize("command", ["check", "normalize"])
def test_a_file_that_is_not_utf8_names_itself(tmp_path, capsys, command):
    good = write(tmp_path, "good.hott", GOOD)
    bad = tmp_path / "bad.hott"
    bad.write_bytes(b"\xff" + GOOD.encode())
    names = ["--name", "idTwo"] if command == "normalize" else []
    assert main([command, good, str(bad), *names]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position 0")
    assert err.count("\n") == 1


def test_a_leading_byte_order_mark_is_not_part_of_the_source(tmp_path, capsys):
    """A file that starts with a UTF-8 byte-order mark reports as its copy
    without one, the rejection's span included, and a decode error in it
    names the byte's offset in the file, mark included."""
    plain = write(tmp_path, "plain.hott", GOOD + BAD)
    marked = tmp_path / "marked.hott"
    marked.write_bytes(b"\xef\xbb\xbf" + (GOOD + BAD).encode())
    reports = []
    for path in (plain, str(marked)):
        code, payload = check_json(["check", path], capsys)
        assert code == EXIT_REJECTED
        [report] = without_ms(payload)["reports"]
        assert report.pop("file") == path
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["declarations"][1]["diagnostic"]["span"] is not None
    undecodable = tmp_path / "undecodable.hott"
    undecodable.write_bytes(b"\xef\xbb\xbfdef a : Nat := 0\n\xff")
    assert main(["check", str(undecodable)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: {undecodable}: 'utf-8' codec can't decode byte 0xff in position 20: invalid start byte\n"
    )


def test_exhausted_stack_is_an_internal_error_without_traceback(tmp_path):
    # A unary numeral this large recurses past the raised recursion limit.
    path = write(tmp_path, "big.hott", "def n : Nat := 200000\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "minihott", "check", path],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == EXIT_USAGE
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: internal error: RecursionError")
    assert done.stderr.count("\n") == 1


def test_any_other_exception_is_an_internal_error_without_traceback(tmp_path, monkeypatch, capsys):
    def fails(fn):
        raise SystemError("error return without exception set")

    monkeypatch.setattr(cli, "run_deep", fails)
    assert main(["check", write(tmp_path, "good.hott", GOOD)]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: internal error: SystemError: error return without exception set\n"


def test_unknown_flag_exits_two(capsys):
    assert main(["check", "--bogus-flag", "x.hott"]) == EXIT_USAGE
    assert capsys.readouterr() == ("", "error: unknown option '--bogus-flag' of check\n")


def test_missing_subcommand_exits_two(capsys):
    assert main([]) == EXIT_USAGE
    assert capsys.readouterr() == ("", "error: no command: give one of check, normalize, gen, oracle\n")


def test_a_kernel_key_error_is_an_internal_error(tmp_path, monkeypatch, capsys):
    # Only a usage or environment error is reported bare: a `KeyError`
    # escaping the kernel is a bug.
    def fails(fn):
        raise KeyError("frame")

    monkeypatch.setattr(cli, "run_deep", fails)
    assert main(["check", write(tmp_path, "good.hott", GOOD)]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: internal error: KeyError: 'frame'\n"


@pytest.mark.parametrize("args", [["-h"], ["--help"], ["check", "-h"], ["--format", "json", "oracle", "--help"]])
def test_help_prints_the_usage_and_exits_zero(capsys, args):
    assert main(args) == EXIT_OK
    out, err = capsys.readouterr()
    assert (out, err) == (cli.USAGE, "")
    assert out.startswith("usage: minihott [--format {text,json}] COMMAND ...\n")
    assert f"ceiling ({DEFAULT_MAX_LEVEL} by default)" in out


USAGE_ERRORS = {
    "no command after an option": (["--format", "json"], "no command: give one of check, normalize, gen, oracle"),
    "unknown command": (["verify", "x.hott"], "unknown command 'verify': give one of check, normalize, gen, oracle"),
    "abbreviated flag": (["--form", "json", "oracle"], "unknown option '--form' before the command"),
    "abbreviated command flag": (["check", "--no-eta", "x.hott"], "unknown option '--no-eta' of check"),
    "global flag after the command": (["oracle", "--format", "json"], "unknown option '--format' of oracle"),
    "missing value": (["oracle", "--bound"], "option --bound needs a value"),
    "option for a value": (["normalize", "x.hott", "--name", "--no-eta-sigma"], "option --name needs a value"),
    "non-integer": (["gen", "--level", "two"], "option --level needs an integer, not 'two'"),
    "non-integer after =": (["check", "--max-level=1.5", "x.hott"], "option --max-level needs an integer, not '1.5'"),
    "bad choice": (["--format", "yaml", "oracle"], "option --format must be one of text, json, not 'yaml'"),
    "value to a switch": (["check", "--no-eta-sigma=no", "x.hott"], "option --no-eta-sigma takes no value"),
    "no file": (["check", "--max-level", "3"], "check needs a file"),
    "no name": (["normalize", "x.hott"], "normalize needs --name"),
    "no level": (["gen", "--out", "x"], "gen needs --level"),
    "stray argument": (["oracle", "enumeration"], "oracle takes no argument 'enumeration'"),
}


@pytest.mark.parametrize("args,message", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_a_usage_error_is_one_error_line_and_exit_two(capsys, args, message):
    assert main(args) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_an_option_value_follows_as_the_next_argument_or_after_equals(tmp_path, capsys):
    path = write(tmp_path, "good.hott", GOOD)
    spellings = [
        ["--format", "json", "normalize", path, "--name", "idTwo", "--max-level", "2", "--no-eta-sigma"],
        ["--format=json", "normalize", "--name=idTwo", "--max-level=2", "--no-eta-sigma", path],
    ]
    outputs = []
    for args in spellings:
        assert main(args) == EXIT_OK
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] == ('{"name": "idTwo", "normal_form": "fun x0 => x0"}\n', "")


# --- JSON output and the schema contract ---


def check_json(args, capsys):
    code = main(["--format", "json", *args])
    return code, json.loads(capsys.readouterr().out)


def test_check_json_reports_validate_against_schema(tmp_path, capsys):
    path = write(tmp_path, "mixed.hott", GOOD + BAD)
    code, payload = check_json(["check", path], capsys)
    assert code == EXIT_REJECTED
    assert len(payload["reports"]) == 1
    for report in payload["reports"]:
        jsonschema.validate(report, SCHEMA)
    [report] = payload["reports"]
    assert report["totals"] == {
        "accepted": 1,
        "rejected": 1,
        "ms": report["totals"]["ms"],
    }
    statuses = {d["name"]: d["status"] for d in report["declarations"]}
    assert statuses == {"idTwo": "accepted", "wrong": "rejected"}


@pytest.mark.parametrize("note", ["--@", "--!", "--@ \t"])
def test_a_blank_note_ends_at_its_line(tmp_path, capsys, note):
    """A `--@` or `--!` with nothing after it has empty text; the
    declaration on the next line is checked, not taken as the note."""
    path = write(tmp_path, "blank-note.hott", f"{note}\ndef a : U1 := U0")
    code, payload = check_json(["check", path], capsys)
    assert code == EXIT_OK
    [report] = payload["reports"]
    assert [(d["name"], d["status"]) for d in report["declarations"]] == [("a", "accepted")]


def test_oracle_json_validates_against_schema(capsys):
    code, payload = check_json(["oracle", "--suite", "enumeration"], capsys)
    assert code == EXIT_OK
    jsonschema.validate(payload, SCHEMA)
    assert payload["file"] == "<oracle>"


def test_corpus_reports_validate_against_schema(tmp_path, capsys):
    corpus = ROOT / "corpus" / "generated"
    files = [
        str(corpus / "prelude" / "01-path-algebra.hott"),
        str(corpus / "prelude" / "02-pair-paths.hott"),
    ]
    code, payload = check_json(["check", *files], capsys)
    assert code == EXIT_OK
    for report in payload["reports"]:
        jsonschema.validate(report, SCHEMA)
    # and the benchmark's synth program, a tenth of it rejected
    code, payload = check_json(["check", write(tmp_path, "synth-1.hott", synth_program(1))], capsys)
    assert code == EXIT_REJECTED
    [report] = payload["reports"]
    jsonschema.validate(report, SCHEMA)
    assert 0 < report["totals"]["rejected"] < report["totals"]["accepted"]


def test_schema_ties_the_diagnostic_to_the_status_and_cases_to_the_oracle(tmp_path, capsys):
    """A declaration carries a diagnostic exactly when it is rejected, and
    `cases` exactly when it is an oracle suite."""
    _, payload = check_json(["check", write(tmp_path, "mixed.hott", GOOD + BAD)], capsys)
    [report] = payload["reports"]
    accepted, rejected = report["declarations"]
    _, oracle_report = check_json(["oracle", "--suite", "enumeration"], capsys)
    [suite] = oracle_report["declarations"]

    def valid(decl) -> bool:
        return jsonschema.Draft202012Validator(SCHEMA).is_valid({**report, "declarations": [decl]})

    assert valid(accepted) and valid(rejected) and valid(suite)
    assert not valid({k: v for k, v in rejected.items() if k != "diagnostic"})
    assert not valid({**accepted, "diagnostic": rejected["diagnostic"]})
    assert not valid({k: v for k, v in suite.items() if k != "cases"})
    assert not valid({**accepted, "cases": 1})


# --- the JSON writer ---

JSON_STRINGS = st.text() | st.sampled_from(["", '"', "\\", '\\"', "\x00\x1f\x7f\n\t", "é∀ 𝔘", "\u2028\ufeff"])
MS = st.floats(min_value=0.0, max_value=1e17) | st.sampled_from([0.0, 1.5e-07, 0.0005, 1e16])
SPANS = st.builds(Span, st.integers(0, 2**40), st.integers(0, 2**40))
DECLS = st.builds(
    DeclReport,
    JSON_STRINGS,
    JSON_STRINGS,
    MS,
    JSON_STRINGS,
    st.none() | st.builds(Diagnostic, JSON_STRINGS, JSON_STRINGS, SPANS),
    st.none() | st.integers(0, 2**40),
)


@st.composite
def check_reports(draw) -> CheckReport:
    report = CheckReport(draw(JSON_STRINGS))
    report.declarations = draw(st.lists(DECLS, max_size=5))
    report.ms = draw(MS)
    return report


def expected_json(report: CheckReport) -> dict:
    """The report's JSON value, built field by field from the schema."""
    decls = []
    for decl in report.declarations:
        value = {
            "name": decl.name,
            "kind": decl.kind,
            "status": "accepted" if decl.diagnostic is None else "rejected",
            "ref": decl.source_ref,
            "ms": round(decl.ms, 3),
        }
        if decl.cases is not None:
            value["cases"] = decl.cases
        if decl.diagnostic is not None:
            d = decl.diagnostic
            value["diagnostic"] = {
                "severity": "error", "code": d.code, "message": d.message, "span": [d.span.start, d.span.end]
            }
        decls.append(value)
    rejected = sum(decl.diagnostic is not None for decl in report.declarations)
    totals = {"accepted": len(decls) - rejected, "rejected": rejected, "ms": round(report.ms, 3)}
    return {"file": report.file, "declarations": decls, "totals": totals}


def dumps(value) -> str:
    return json.dumps(value, ensure_ascii=False, indent=2)


@settings(max_examples=300, deadline=None)
@given(check_reports(), st.integers(0, 3))
def test_a_report_writes_what_json_dumps_writes(report, depth):
    # A small batch, so that the declarations span several writes.
    indent = "\n" + "  " * depth
    pieces = []
    with mock.patch("minihott.diagnostics.WRITE_BATCH", 2):
        report.write(pieces.append, indent)
    assert "".join(pieces) == dumps(expected_json(report)).replace("\n", indent)
    assert len(pieces) == 2 + (len(report.declarations) + 1) // 2


@settings(max_examples=100, deadline=None)
@given(st.lists(check_reports(), max_size=3))
def test_check_writes_what_json_dumps_writes(reports):
    checked = mock.patch.object(cli, "run_deep", lambda fn: (reports, None))
    with checked, contextlib.redirect_stdout(io.StringIO()) as out:
        main(["--format", "json", "check", "unread.hott"])
    assert out.getvalue() == dumps({"reports": [expected_json(report) for report in reports]}) + "\n"


def test_reports_are_written_as_json_dumps_writes_them(tmp_path, capsys):
    corpus = ROOT / "corpus" / "generated"
    manifest = json.loads((corpus / "manifest.json").read_text())
    synth = [write(tmp_path, f"synth-{seed}.hott", synth_program(seed)) for seed in (1, 2, 3)]
    runs = [
        ["check", *(str(corpus / f["path"]) for f in manifest["files"])],
        *(["check", path] for path in synth),
        ["oracle"],
        ["gen", "--level", "2", "--out", str(tmp_path / "gen")],
    ]
    for args in runs:
        main(["--format", "json", *args])
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), ensure_ascii=False, indent=2) + "\n", args[0]
    # `normalize` writes one line, as `json.dumps` writes without `indent`
    main(["--format", "json", "normalize", str(corpus / "prelude" / "01-path-algebra.hott"), "--name", "transportLoop"])
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), ensure_ascii=False) + "\n"


class Recorder:
    """A stand-in for `sys.stdout` that keeps each write."""

    def __init__(self) -> None:
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        if text:
            self.writes.append(text)
        return len(text)

    def flush(self) -> None:
        pass


def test_check_prints_its_json_report_in_pieces(monkeypatch, tmp_path):
    """The report is written at most `diagnostics.WRITE_BATCH` declarations
    at a time, and each declaration's text is made only when its batch is
    written, so the whole text is never held."""
    synth = write(tmp_path, "synth-1.hott", synth_program(1))
    recorder = Recorder()
    made_at: list[int] = []  # what was written when each declaration's text was made
    json_text = DeclReport.json_text

    def recording_json_text(decl, indent):
        made_at.append(sum(map(len, recorder.writes)))
        return json_text(decl, indent)

    monkeypatch.setattr(sys, "stdout", recorder)
    monkeypatch.setattr(DeclReport, "json_text", recording_json_text)
    assert main(["--format", "json", "check", *PRELUDE, synth]) == EXIT_REJECTED
    out = "".join(recorder.writes)
    assert out == json.dumps(json.loads(out), ensure_ascii=False, indent=2) + "\n"
    reports = json.loads(out)["reports"]
    batches = sum(-(-len(report["declarations"]) // WRITE_BATCH) for report in reports)
    assert len(made_at) == sum(len(report["declarations"]) for report in reports) > 2 * WRITE_BATCH
    assert max(text.count('"status": ') for text in recorder.writes) <= WRITE_BATCH
    assert made_at == sorted(made_at) and len(set(made_at)) == batches


# --- oracle command ---


def test_oracle_all_suites_pass(capsys):
    assert main(["oracle"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "pass enumeration" in out


def test_oracle_suite_subset_runs_only_selected(capsys):
    code, payload = check_json(["oracle", "--suite", "groupoid-laws"], capsys)
    assert code == EXIT_OK
    assert [d["name"] for d in payload["declarations"]] == ["groupoid-laws"]


def test_oracle_suite_named_twice_runs_once(capsys):
    twice = ["oracle", "--suite", "groupoid-laws", "--suite", "enumeration", "--suite", "groupoid-laws"]
    code, payload = check_json(twice, capsys)
    assert code == EXIT_OK
    assert [d["name"] for d in payload["declarations"]] == ["groupoid-laws", "enumeration"]
    assert main(twice) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["pass groupoid-laws", "pass enumeration"]


def test_oracle_unknown_suite_exits_two(capsys):
    assert main(["oracle", "--suite", "enumeration", "--suite", "nonexistent"]) == EXIT_USAGE
    assert capsys.readouterr() == ("", "error: unknown suite(s): nonexistent\n")


def test_oracle_excessive_bound_exits_two(capsys):
    assert main(["oracle", "--bound", "99"]) == EXIT_USAGE


@pytest.mark.parametrize("bound", ["-1", "7"])
def test_oracle_bound_outside_its_range_names_the_range(capsys, bound):
    assert main(["oracle", "--bound", bound]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: bound {bound} is outside the allowed range 0..6\n"


def test_failing_oracle_suite_through_the_cli(monkeypatch, capsys):
    """A broken composition fails `groupoid-laws`: exit 1, every witness in
    the text, the first five in the JSON report's diagnostic."""
    from test_oracle import drop_first_factor

    from minihott import oracle

    monkeypatch.setattr(oracle, "compose", drop_first_factor)
    args = ["oracle", "--suite", "groupoid-laws", "--bound", "3"]
    assert main(args) == EXIT_REJECTED
    first, *rest = capsys.readouterr().out.splitlines()
    assert first.startswith("FAIL groupoid-laws: 266 cases (")
    witnesses = oracle.check_groupoid_laws(bound=3).counterexamples
    assert len(witnesses) == 18
    assert rest == [f"  counterexample: {witness}" for witness in witnesses]

    code, payload = check_json(args, capsys)
    assert code == EXIT_REJECTED
    jsonschema.validate(payload, SCHEMA)
    assert payload["totals"]["accepted"] == 0 and payload["totals"]["rejected"] == 1
    [decl] = payload["declarations"]
    assert (decl["name"], decl["status"], decl["cases"]) == ("groupoid-laws", "rejected", 266)
    assert decl["diagnostic"] == {
        "severity": "error",
        "code": "counterexample",
        "message": "; ".join(witnesses[:5]),
        "span": [0, 0],
    }


def test_oracle_bound_defaults_to_the_oracle_default(monkeypatch, capsys):
    from minihott import oracle
    from minihott.diagnostics import CheckReport

    bounds = []
    monkeypatch.setattr(oracle, "run_suites", lambda suites, bound: bounds.append(bound) or CheckReport("<oracle>"))
    assert main(["oracle"]) == EXIT_OK
    assert main(["oracle", "--bound", "3"]) == EXIT_OK
    assert bounds == [oracle.DEFAULT_BOUND, 3]


# --- imports ---


def test_importing_the_cli_leaves_out_the_oracle_and_the_generator(tmp_path):
    # `dataclasses` imports `inspect` and compiles the methods of every
    # class at start-up: no module of the package may import it.
    probe = (
        "import sys, minihott.cli as cli\n"
        "assert callable(cli.quote) and callable(cli.print_term) and callable(cli.run_deep)\n"
        "modules = ('minihott.oracle', 'minihott.corpus.manifest', 'dataclasses')\n"
        "print(sorted(m for m in modules if m in sys.modules))\n"
        "import minihott.oracle, minihott.corpus.manifest\n"
        "print('dataclasses' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\nFalse\n"

    # The command line is parsed without `argparse`, and reports are written
    # without the `json` package, which loads its decoder too; only `gen`
    # loads `json`, to write the manifest.
    prelude = str(ROOT / "corpus" / "generated" / "prelude" / "01-path-algebra.hott")
    commands = {
        "check": ["--format", "json", "check", prelude],
        "normalize": ["--format", "json", "normalize", prelude, "--name", "transportLoop"],
        "oracle": ["--format", "json", "oracle", "--suite", "enumeration"],
        "gen": ["--format", "json", "gen", "--level", "0", "--out", str(tmp_path / "gen")],
    }
    loaded = {}
    for command, argv in commands.items():
        probe = (
            "import contextlib, io, sys\n"
            "from minihott.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main({argv!r})\n"
            "print(code, sorted(m for m in ('argparse', 'json') if m in sys.modules))"
        )
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
        loaded[command] = done.stdout
    assert loaded == {"check": "0 []\n", "normalize": "0 []\n", "oracle": "0 []\n", "gen": "0 ['json']\n"}


KERNEL_MODULES = tuple(
    f"minihott.{name}"
    for name in (
        "evaluate", "values", "terms", "checker", "conversion",
        "pipeline", "parser", "printer", "resolver", "globals",
    )
)


def run_probe(probe: str) -> list:
    """Run `probe` in a fresh interpreter; it prints a JSON value last."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_gen_and_oracle_load_no_kernel(tmp_path):
    probe = (
        "import json, sys\n"
        "import minihott.cli as cli\n"
        f"kernel = {KERNEL_MODULES!r}\n"
        "loaded = lambda: sorted(m for m in kernel if m in sys.modules)\n"
        "seen = [loaded()]\n"
        "assert cli.main(['oracle', '--suite', 'enumeration']) == 0\n"
        "seen.append(loaded())\n"
        f"assert cli.main(['gen', '--level', '0', '--out', {str(tmp_path / 'gen')!r}]) == 0\n"
        "seen.append(loaded())\n"
        "cli.quote  # reading a kernel entry point loads the kernel\n"
        "seen.append(loaded())\n"
        "print(json.dumps(seen))"
    )
    assert run_probe(probe) == [[], [], [], sorted(KERNEL_MODULES)]


def test_rebound_kernel_entry_points_route_every_call(tmp_path):
    # What perfbench/traced_cli.py does: wrap `cli.quote`, `cli.print_term`
    # and `cli.run_deep` before `main` runs; loading the kernel on the first
    # command must keep the wrappers.
    path = write(tmp_path, "good.hott", GOOD)
    probe = (
        "import json\n"
        "import minihott.cli as cli\n"
        "calls = []\n"
        "def spy(name, real):\n"
        "    def wrapper(*args, **kwargs):\n"
        "        calls.append(name)\n"
        "        return real(*args, **kwargs)\n"
        "    return wrapper\n"
        "for name in ('quote', 'print_term', 'run_deep'):\n"
        "    setattr(cli, name, spy(name, getattr(cli, name)))\n"
        f"codes = [cli.main(['normalize', {path!r}, '--name', 'idTwo']),\n"
        f"         cli.main(['check', {path!r}])]\n"
        "print(json.dumps([codes, calls]))"
    )
    codes, calls = run_probe(probe)
    assert codes == [EXIT_OK, EXIT_OK]
    assert calls == ["run_deep", "quote", "print_term", "run_deep"]


def test_benchmark_tracer_finds_every_layer_it_wraps(tmp_path):
    # perfbench/traced_cli.py wraps the layers by module and function name;
    # a name it uses that has gone fails every traced run of the benchmark.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    path = "corpus/generated/prelude/01-path-algebra.hott"
    commands = {
        "check": (["--format", "json", "check", path],
                  ("tokenize", "parse_module", "resolve", "check_declaration", "subtype", "evaluate")),
        "normalize": (["normalize", path, "--name", "transportLoopRefl"], ("quote", "print_term")),
    }
    for command, (argv, layers) in commands.items():
        trace = tmp_path / f"{command}.json"
        done = subprocess.run(
            [sys.executable, "perfbench/traced_cli.py", str(trace), *argv],
            cwd=ROOT, capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == EXIT_OK, done.stderr
        summary = json.loads(trace.read_text())
        for layer in layers:
            assert summary["calls"].get(layer, 0) >= 1, (command, layer)
        sizes = summary["tables"].values()
        assert len(sizes) == 4 and all(type(size) is int for size in sizes), (command, summary["tables"])


# --- normalize ---


def test_normalize_prints_normal_form(tmp_path, capsys):
    source = (
        "def add : Nat -> Nat -> Nat\n"
        "  := fun n m => natElim (fun k => Nat) n (fun k ih => suc ih) m\n"
        "def four : Nat := add 2 2\n"
    )
    path = write(tmp_path, "arith.hott", source)
    assert main(["normalize", path, "--name", "four"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "4"


def test_normalize_unknown_name_exits_two(tmp_path, capsys):
    path = write(tmp_path, "good.hott", GOOD)
    assert main(["normalize", path, "--name", "missing"]) == EXIT_USAGE


def test_normalize_of_rejected_file_exits_one(tmp_path, capsys):
    path = write(tmp_path, "bad.hott", BAD)
    assert main(["normalize", path, "--name", "wrong"]) == EXIT_REJECTED


# `normalize` checks the files only up to the first declaration of the
# name: a reference names only an earlier declaration, so nothing after it
# can change its verdict or its value.

CORPUS = ROOT / "corpus" / "generated"
CORPUS_FILES = json.loads((CORPUS / "manifest.json").read_text())["files"]  # in manifest order


# Definitions from the first, a middle and the last of the benchmark's
# normalize inputs: the first and last of a file each, and `basePoint0`.
STOP_NAMES = {0: ["pathInv", "transportForthBack"], 6: ["swapTwo", "twoDistinct"], 12: ["subUniverse0", "basePoint0"]}


def test_normalize_stops_at_the_name_with_the_form_of_the_full_check(capsys):
    for i, names in STOP_NAMES.items():
        assert {d["name"] for d in CORPUS_FILES[i]["declarations"]} >= set(names)
    names = [name for names in STOP_NAMES.values() for name in names]
    paths = [str(CORPUS / f["path"]) for f in CORPUS_FILES[:NORMAL_FORM_FILES]]
    full = normal_forms(names)  # each quoted after a check of all the files
    recorded = json.loads((ROOT / "perfbench" / "expected" / "normal_forms.json").read_text(encoding="utf-8"))
    for name in names:
        assert main(["normalize", *paths, "--name", name]) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == "" and out.endswith("\n")
        text = out[:-1].encode("utf-8")
        assert {"bytes": len(text), "sha256": hashlib.sha256(text).hexdigest()} == full[name] == recorded[name]


def test_normalize_checks_nothing_after_the_name_and_parses_no_later_file(monkeypatch, capsys):
    from minihott import pipeline
    from minihott.checker import Checker

    paths = [CORPUS / f["path"] for f in CORPUS_FILES]
    assert len(paths) == 18
    names = [d["name"] for f in CORPUS_FILES[:2] for d in f["declarations"]]
    name = "sigmaPathSplit"  # the second declaration of the second file
    checked, parsed, opened = [], [], []
    check_declaration, parse_module = Checker.check_declaration, pipeline.parse_module

    def counting_check(self, decl):
        checked.append(decl.name)
        return check_declaration(self, decl)

    def counting_parse(source, emit=None):
        parsed.append(source)
        return parse_module(source, emit)

    def counting_open(path, *args, **kwargs):
        opened.append(path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(Checker, "check_declaration", counting_check)
    monkeypatch.setattr(pipeline, "parse_module", counting_parse)
    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    assert main(["normalize", *map(str, paths), "--name", name]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert checked == names[: names.index(name) + 1]
    assert parsed == [path.read_text(encoding="utf-8") for path in paths[:2]]
    assert opened == list(map(str, paths))


def test_normalize_ignores_a_rejection_after_the_name(tmp_path, capsys):
    path = write(tmp_path, "good.hott", GOOD + BAD)
    assert main(["normalize", path, "--name", "idTwo"]) == EXIT_OK
    assert capsys.readouterr() == ("fun x0 => x0\n", "")


@pytest.mark.parametrize("name", ["idTwo", "wrongAt"])
def test_normalize_reports_the_rejections_up_to_the_name(tmp_path, capsys, name):
    source = BAD + GOOD + BAD.replace("wrong", "wrongAt") + BAD.replace("wrong", "wrongAfter")
    path = write(tmp_path, "bad.hott", source)
    [report], _ = check_files([(path, source)])
    diagnostics = [decl.diagnostic.format(path) + "\n" for decl in report.declarations if decl.diagnostic]
    assert len(diagnostics) == 3
    assert main(["normalize", path, "--name", name]) == EXIT_REJECTED
    assert capsys.readouterr() == ("", "".join(diagnostics[: 1 if name == "idTwo" else 2]))


# A parse error, and a lex error, a chunk or more after a good declaration.
PARSE_ERROR_LATER = GOOD + CHUNKS_OF_DECLS + "def broken : Nat := )\n"


@pytest.mark.parametrize(
    "source,code",
    [(PARSE_ERROR_LATER, EXIT_OK), (GOOD + LATE_LEX_ERROR, EXIT_USAGE), (GOOD + PARSE_ERROR, EXIT_USAGE)],
    ids=["parse-error-in-a-later-chunk", "lex-error", "parse-error-in-the-same-chunk"],
)
def test_normalize_of_a_file_with_a_later_syntax_error(tmp_path, capsys, source, code):
    """The rest of the name's file is lexed, so a lex error anywhere in it
    still exits 2; it is parsed only up to the end of the chunk that holds
    the name, so only a parse error there does."""
    from minihott import parser

    if code == EXIT_OK:  # the parse error lies past the chunk that holds the name
        assert parser.chunk_end(source, 0) < source.index("def broken")
    path = write(tmp_path, "late.hott", source)
    assert main(["normalize", path, "--name", "idTwo"]) == code
    out, err = capsys.readouterr()
    if code == EXIT_OK:
        assert (out, err) == ("fun x0 => x0\n", "")
    else:
        assert out == "" and err.startswith(f"error: {path}:")


@pytest.mark.parametrize("text", [PARSE_ERROR, "def a : Unit := $\n", BAD])
def test_normalize_neither_parses_nor_checks_a_later_file(tmp_path, capsys, text):
    good = write(tmp_path, "good.hott", GOOD)
    later = write(tmp_path, "later.hott", text)
    assert main(["normalize", good, later, "--name", "idTwo"]) == EXIT_OK
    assert capsys.readouterr() == ("fun x0 => x0\n", "")


def test_normalize_reads_every_later_file(tmp_path, capsys):
    good = write(tmp_path, "good.hott", GOOD)
    assert main(["normalize", good, str(tmp_path / "absent.hott"), "--name", "idTwo"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "absent.hott" in err


@pytest.mark.parametrize("kind,article", [("axiom", "an"), ("goal", "a")])
def test_normalize_of_an_axiom_or_a_goal_names_its_kind(tmp_path, capsys, kind, article):
    source = {"axiom": "axiom ax : Two\n", "goal": "goal ax : Two := zero2\n"}[kind]
    path = write(tmp_path, "ax.hott", source + "def ax : Two := zero2\n")
    assert main(["normalize", path, "--name", "ax"]) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: 'ax' is {article} {kind}, not a definition\n")


# --- kernel flags and environment ---


def test_no_eta_sigma_flag_changes_acceptance(tmp_path):
    source = (
        "axiom p : U0 * U0\n"
        "goal etaPair : Id (U0 * U0) (fst p, snd p) p\n"
        "  := refl p\n"
    )
    path = write(tmp_path, "eta.hott", source)
    assert main(["check", path]) == EXIT_OK
    assert main(["check", "--no-eta-sigma", path]) == EXIT_REJECTED
    # the flag holds for its own run only
    assert main(["check", path]) == EXIT_OK
    assert conversion.eta_sigma is True


def test_a_failed_run_restores_eta_sigma(monkeypatch):
    sources = [("good.hott", GOOD), ("broken.hott", PARSE_ERROR)]
    with pytest.raises(CheckFailure):
        check_files(sources, Config(eta_sigma=False))
    assert conversion.eta_sigma is True
    # a nested run leaves the outer run's value, not the default
    monkeypatch.setattr(conversion, "eta_sigma", False)
    check_files([("good.hott", GOOD)])
    assert conversion.eta_sigma is False


def test_max_level_flag_sets_the_ceiling(tmp_path, monkeypatch, capsys):
    path = write(tmp_path, "lvl.hott", "def a : U3 := U2\n")
    assert main(["check", path]) == EXIT_OK
    assert main(["check", "--max-level", "3", path]) == EXIT_REJECTED
    assert main(["check", "--max-level", "4", path]) == EXIT_OK
    # the flag is the only way to set it
    monkeypatch.setenv("MINIHOTT_MAX_LEVEL", "2")
    assert main(["check", path]) == EXIT_OK


@pytest.mark.parametrize("command", [["check"], ["normalize", "--name", "a"]])
def test_negative_max_level_is_a_usage_error(tmp_path, capsys, command):
    path = write(tmp_path, "lvl.hott", "def a : U1 := U0\n")
    assert main([*command, "--max-level", "-1", path]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: --max-level must be at least 0, not -1\n")


# --- generation ---


def snapshot(root: pathlib.Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_gen_is_idempotent_and_byte_identical(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main(["gen", "--level", "2", "--out", str(out)]) == EXIT_OK
    first = snapshot(out)
    assert main(["gen", "--level", "2", "--out", str(out)]) == EXIT_OK
    assert snapshot(out) == first
    # a fresh directory produces the same bytes
    out2 = tmp_path / "corpus2"
    assert main(["gen", "--level", "2", "--out", str(out2)]) == EXIT_OK
    assert snapshot(out2) == first


def test_gen_matches_checked_in_corpus(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main(["gen", "--level", "2", "--out", str(out)]) == EXIT_OK
    assert snapshot(out) == snapshot(ROOT / "corpus" / "generated")


def test_gen_rejects_unsupported_level(tmp_path, capsys):
    assert main(["gen", "--level", "7", "--out", str(tmp_path / "x")]) == EXIT_USAGE


@pytest.mark.parametrize("level,expected_files", [(0, 14), (1, 17), (2, 19)])
def test_gen_level_controls_file_count(tmp_path, capsys, level, expected_files):
    out = tmp_path / f"c{level}"
    assert main(["gen", "--level", str(level), "--out", str(out)]) == EXIT_OK
    assert len(snapshot(out)) == expected_files


# --- the process: `python -m minihott` exits through `console_main` ---


def run_process(*args, **kwargs) -> subprocess.CompletedProcess:
    """`python -m minihott ARGS` with block-buffered output, as by default."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.run(
        [sys.executable, "-m", "minihott", *args], text=True, env=env, timeout=120, **kwargs
    )


PRELUDE = sorted(str(p) for p in (ROOT / "corpus" / "generated" / "prelude").glob("*.hott"))


@pytest.mark.parametrize("accepted", [True, False])
def test_json_report_written_to_a_pipe_is_complete(tmp_path, accepted):
    # The prelude's report is larger than the output buffer, BAD's smaller.
    files = PRELUDE if accepted else [write(tmp_path, "mixed.hott", GOOD + BAD)]
    done = run_process("--format", "json", "check", *files)
    assert done.returncode == (EXIT_OK if accepted else EXIT_REJECTED), done.stderr
    assert done.stderr == ""
    reports = json.loads(done.stdout)["reports"]
    assert [r["file"] for r in reports] == files
    assert all(r["totals"]["rejected"] == (0 if accepted else 1) for r in reports)


@pytest.mark.parametrize("json_format", [False, True])
def test_closed_stdout_exits_two_with_one_error_line(tmp_path, json_format):
    # Text output fits the buffer and fails at the final flush; the JSON
    # report does not, and fails while the command writes it.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        if json_format:
            done = run_process("--format", "json", "check", *PRELUDE, stdout=write_end)
        else:
            done = run_process("check", write(tmp_path, "good.hott", GOOD), stdout=write_end)
    finally:
        os.close(write_end)
    assert done.returncode == EXIT_USAGE
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


@pytest.mark.parametrize("text", [GOOD, "def a : Unit := $\n"], ids=["accepted", "lex-error"])
def test_closed_stdout_and_stderr_exit_two(tmp_path, text):
    # With the lex error, writing the error line itself fails.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = run_process("check", write(tmp_path, "in.hott", text), stdout=write_end, stderr=write_end)
    finally:
        os.close(write_end)
    assert done.returncode == EXIT_USAGE


def test_error_with_stderr_closed_at_start_exits_two_and_keeps_stdout_clean(tmp_path):
    # The interpreter then sets `sys.stderr` to None, and `print(file=None)`
    # would write the error line to stdout.
    lex_error = write(tmp_path, "lex.hott", "def a : Unit := $\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        ["sh", "-c", 'exec "$@" 2>&-', "sh", sys.executable, "-m", "minihott", "check", lex_error],
        stdout=subprocess.PIPE, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout) == (EXIT_USAGE, "")


def test_gen_through_the_process_matches_checked_in_corpus(tmp_path):
    out = tmp_path / "corpus"
    done = run_process("gen", "--level", "2", "--out", str(out))
    assert done.returncode == EXIT_OK, done.stderr
    assert snapshot(out) == snapshot(ROOT / "corpus" / "generated")


def test_both_entry_points_run_console_main():
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert 'minihott = "minihott.cli:console_main"' in pyproject
    # `python -m minihott` reaches `main` with the collector off and exits
    # with its code.
    probe = (
        "import gc, runpy, minihott.cli as cli\n"
        "cli.main = lambda: print(gc.isenabled()) or 3\n"
        "runpy.run_module('minihott', run_name='__main__')\n"
        "print('not reached')"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert (done.returncode, done.stdout, done.stderr) == (3, "False\n", "")


@pytest.mark.parametrize("enabled", [True, False])
def test_main_in_process_leaves_the_collector_as_it_found_it(tmp_path, capsys, enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["check", write(tmp_path, "good.hott", GOOD)]) == EXIT_OK
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


# --- the same reports on every supported CPython ---


def sibling_interpreters() -> list[pathlib.Path]:
    """CPython 3.10, 3.12 and 3.13 installed beside the running interpreter,
    as pyenv lays out its versions (`<root>/versions/3.12.1/bin/python`)."""
    versions = pathlib.Path(sys.base_prefix).parent
    return sorted(
        python
        for pattern in ("3.10*", "3.12*", "3.13*")
        for python in versions.glob(f"{pattern}/bin/python")
        if python.parent.parent != pathlib.Path(sys.base_prefix)
    )


def without_ms_values(text: str) -> str:
    """Printed JSON with each `ms` value written as 0."""
    return re.sub(r'"ms": [-+.e0-9]+', '"ms": 0', text)


# Run by this interpreter and each sibling, which has no pytest: each case of
# `tests/test_resolve_errors.py` (a JSON file, argv[1]) through `cli.main`
# in this one process, in a directory of its own under argv[2]; prints the
# exit code, stdout and stderr of each case as JSON.
REPLAY_CASES = """
import contextlib, io, json, os, pathlib, sys
from minihott.cli import main
outputs = {}
for i, (name, files) in enumerate(json.loads(pathlib.Path(sys.argv[1]).read_text()).items()):
    os.chdir(sys.argv[2])
    os.mkdir(str(i))
    os.chdir(str(i))
    for file, text in files:
        pathlib.Path(file).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--format", "json", "check", *(file for file, _ in files)])
    outputs[name] = [code, out.getvalue(), err.getvalue()]
print(json.dumps(outputs))
"""


def test_reports_are_identical_under_sibling_interpreters(tmp_path):
    interpreters = sibling_interpreters()
    if not interpreters:
        pytest.skip("no CPython 3.10, 3.12 or 3.13 next to the running interpreter")
    synth_path = tmp_path / "synth-1.hott"
    synth_path.write_text(synth_program(1))
    # The default-`Config` killer programs, renamed apart, so that the
    # checker's other messages are compared too: synth yields only
    # `type-mismatch`.
    killers = [(source, code) for source, config, code in (p.values for p in KILLERS) if config == Config()]
    killers_path = tmp_path / "killers.hott"
    renamed = (source.replace("def bad ", f"def bad{i} ") for i, (source, _) in enumerate(killers))
    killers_path.write_text("\n".join(renamed))
    # closed constants and universes, quoted as their own values
    constants_path = tmp_path / "constants.hott"
    constants_path.write_text(
        "def k : Two -> (Nat * Unit) * U1 := fun b => ((twoElim (fun _ => Nat) 2 0 b, star), Empty -> U0)\n"
    )
    # a neutral under every kind of spine frame, quoted by the generic rule
    frames_path = tmp_path / "frames.hott"
    frames_path.write_text(
        "def frames : (f : Nat -> Nat) (q : Nat * Nat) (n : Nat) (b : Two) (e : Empty) (A : U0) (x y : A)"
        " (p : Id A x y) -> ((Nat * Nat) * (Nat * Nat)) * ((Nat * Nat) * Id A x y)"
        " := fun f q n b e A x y p => (((f n, fst q), (snd q, natElim (fun _ => Nat) 0 (fun k ih => suc ih) n)),"
        " ((twoElim (fun _ => Nat) 0 1 b, emptyElim (fun _ => Nat) e), J (fun a c r => Id A a c) (fun a => refl a) p))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def output(python, args) -> tuple[int, str, str]:
        done = subprocess.run(
            [str(python), "-m", "minihott", "--format", "json", *args],
            capture_output=True, text=True, env=env, timeout=120,
        )
        return done.returncode, done.stdout, done.stderr

    def report(python, args) -> tuple[int, str]:
        code, out, _ = output(python, args)
        return code, without_ms_values(out)

    written = ROOT / "corpus" / "generated"
    prelude = str(written / "prelude" / "01-path-algebra.hott")
    in_manifest_order = [str(written / f["path"]) for f in json.loads((written / "manifest.json").read_text())["files"]]
    runs = [
        (["check", prelude], EXIT_OK),
        # the whole corpus, the workload the checker serves
        (["check", *in_manifest_order], EXIT_OK),
        (["check", str(synth_path)], EXIT_REJECTED),
        (["check", str(killers_path)], EXIT_REJECTED),
        # without η for Σ, one declaration of 02-pair-paths is rejected
        (["check", "--no-eta-sigma", prelude, prelude.replace("01-path-algebra", "02-pair-paths")], EXIT_REJECTED),
        # a printed normal form: Pi, lambdas, J, Id and refl
        (["normalize", prelude, "--name", "transportLoop"], EXIT_OK),
        (["normalize", str(constants_path), "--name", "k"], EXIT_OK),
        (["normalize", str(frames_path), "--name", "frames"], EXIT_OK),
        # the check stops after the name: the later files are read, not checked
        (["normalize", *in_manifest_order, "--name", "basePoint0"], EXIT_OK),
        (["oracle"], EXIT_OK),
        # the Cayley table's whole rows, 1.7 M cases
        (["oracle", "--suite", "groupoid-laws", "--bound", "5"], EXIT_OK),
        (["gen", "--level", "2", "--out", str(tmp_path / "gen-json")], EXIT_OK),
    ]
    [rejected] = json.loads(report(sys.executable, ["check", str(killers_path)])[1])["reports"]
    assert [d["diagnostic"]["code"] for d in rejected["declarations"]] == [code for _, code in killers]
    normal = json.loads(report(sys.executable, ["normalize", str(constants_path), "--name", "k"])[1])["normal_form"]
    assert normal == "fun x0 => ((twoElim (fun x1 => Nat) 2 0 x0, star), Empty -> U0)"
    normal = json.loads(report(sys.executable, ["normalize", str(frames_path), "--name", "frames"])[1])["normal_form"]
    assert normal == (
        "fun x0 x1 x2 x3 x4 x5 x6 x7 x8 => (((x0 x2, fst x1), (snd x1, natElim (fun x9 => Nat) 0"
        " (fun x9 x10 => suc x10) x2)), ((twoElim (fun x9 => Nat) 0 1 x3, emptyElim (fun x9 => Nat) x4),"
        " J (fun x9 x10 x11 => Id x5 x9 x10) (fun x9 => refl x9) x8))"
    )
    for args, code in runs:
        expected = report(sys.executable, args)
        assert expected[0] == code
        for python in interpreters:
            assert report(python, args) == expected, python

    # The front end's error path: exit 2, nothing on stdout, one line on stderr.
    stray = "error [parse] expected ')', found 'def'"
    errors = [
        (PARSE_ERROR, "error [parse] expected a term"),
        (PARSE_THEN_LEX_ERROR, "error [lex] unexpected character '$'"),
        *((unclosed + STRAY_PAREN + FURTHER_DECLS, stray) for unclosed in UNCLOSED_GROUPS),
        # a parse that stops at a note, or at the end inside parentheses
        (UNCLOSED_GROUPS[0] + FURTHER_DECLS, "error [parse] expected ')', found '--@ tag0'"),
        (UNCLOSED_GROUPS[0] + "--! needs-ua\n" + FURTHER_DECLS, "error [parse] expected ')', found '--! needs-ua'"),
        ("def b : Nat := (0", "error [parse] expected ')', ':' or ','"),
    ]
    for i, (text, message) in enumerate(errors):
        args = ["check", write(tmp_path, f"error-{i}.hott", text)]
        expected = output(sys.executable, args)
        assert expected[:2] == (EXIT_USAGE, "") and expected[2].endswith(f"{message}\n")
        for python in interpreters:
            assert output(python, args) == expected, python

    # Every recorded resolve-error case, replayed in-process by one child per interpreter.
    cases_path = tmp_path / "resolve-cases.json"
    cases_path.write_text(json.dumps(RESOLVE_CASES))
    replays = []
    for i, python in enumerate([sys.executable, *interpreters]):
        replay = tmp_path / f"replay-{i}"
        replay.mkdir()
        done = subprocess.run(
            [str(python), "-c", REPLAY_CASES, str(cases_path), str(replay)],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        replays.append(json.loads(done.stdout))
    # This interpreter's outputs are the recorded ones (tests/test_resolve_errors.py).
    expected, *others = (
        {name: (code, without_ms_values(out), err) for name, (code, out, err) in replayed.items()}
        for replayed in replays
    )
    for python, replayed in zip(interpreters, others):
        assert replayed == expected, python

    # `gen --level 2` writes the checked-in corpus byte for byte.
    corpus = snapshot(written)
    for python in interpreters:
        out = tmp_path / python.parent.parent.name
        subprocess.run(
            [str(python), "-m", "minihott", "gen", "--level", "2", "--out", str(out)],
            capture_output=True, env=env, timeout=120, check=True,
        )
        assert snapshot(out) == corpus, python
