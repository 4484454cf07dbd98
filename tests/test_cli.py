"""Command-line interface: exit codes, output formats, generation
idempotence, and the report-schema contract."""

import json
import os
import pathlib
import subprocess
import sys

import jsonschema
import pytest

from minihott.cli import EXIT_OK, EXIT_REJECTED, EXIT_USAGE, MAX_LEVEL_ENV, main

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "docs" / "report-schema.json").read_text())

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


def test_unknown_flag_exits_two(capsys):
    assert main(["check", "--bogus-flag", "x.hott"]) == EXIT_USAGE


def test_missing_subcommand_exits_two(capsys):
    assert main([]) == EXIT_USAGE


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


# --- oracle command ---


def test_oracle_all_suites_pass(capsys):
    assert main(["oracle"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "pass enumeration" in out


def test_oracle_suite_subset_runs_only_selected(capsys):
    code, payload = check_json(["oracle", "--suite", "groupoid-laws"], capsys)
    assert code == EXIT_OK
    assert [d["name"] for d in payload["declarations"]] == ["groupoid-laws"]


def test_oracle_unknown_suite_exits_two(capsys):
    assert main(["oracle", "--suite", "nonexistent"]) == EXIT_USAGE


def test_oracle_excessive_bound_exits_two(capsys):
    assert main(["oracle", "--bound", "99"]) == EXIT_USAGE


def test_oracle_bound_defaults_to_the_oracle_default(monkeypatch, capsys):
    from minihott import oracle

    bounds = []
    monkeypatch.setattr(oracle, "run_suites", lambda suites, bound: bounds.append(bound) or [])
    assert main(["oracle"]) == EXIT_OK
    assert main(["oracle", "--bound", "3"]) == EXIT_OK
    assert bounds == [oracle.DEFAULT_BOUND, 3]


# --- imports ---


def test_importing_the_cli_leaves_out_the_oracle_and_the_generator():
    probe = (
        "import sys, minihott.cli as cli\n"
        "assert callable(cli.quote) and callable(cli.print_term) and callable(cli.run_deep)\n"
        "print(sorted(m for m in ('minihott.oracle', 'minihott.corpus.manifest') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


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


def test_max_level_env_var_lowers_the_ceiling(tmp_path, monkeypatch, capsys):
    path = write(tmp_path, "lvl.hott", "def a : U3 := U2\n")
    assert main(["check", path]) == EXIT_OK
    monkeypatch.setenv(MAX_LEVEL_ENV, "2")
    assert main(["check", path]) == EXIT_REJECTED
    # an explicit flag wins over the environment
    assert main(["check", "--max-level", "8", path]) == EXIT_OK


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
