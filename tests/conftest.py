import importlib.util
import json
import pathlib

import pytest

from minihott.corpus.manifest import emit_corpus
from minihott.diagnostics import CheckReport
from minihott.globals import Config, Globals
from minihott.parser import parse_module
from minihott.pipeline import check_files, run_deep
from minihott.resolver import Resolver
from minihott.terms import Term

ROOT = pathlib.Path(__file__).resolve().parent.parent

# The JSON schema of every report the CLI writes.
SCHEMA = json.loads((ROOT / "docs" / "report-schema.json").read_text())


class CorpusRun:
    """One check of the emitted corpus, with each file's wall time in its
    report.

    `prefixes` limits the run to the files whose paths start with one of
    them (all files by default), keeping manifest order.  The run's
    `Globals` is `glob`.
    """

    def __init__(self, config: Config | None = None, sources=None, prefixes=("",)):
        files = [f for f in emit_corpus(2) if f.relpath.startswith(tuple(prefixes))]
        pairs = ((f.relpath, f.render() if sources is None else sources[f.relpath]) for f in files)
        reports, self.glob = run_deep(lambda: check_files(pairs, config))
        self.files = list(zip(files, reports))  # (HottFile, CheckReport)

    def report_for(self, suffix: str):
        for f, report in self.files:
            if f.relpath.endswith(suffix):
                return report
        raise KeyError(suffix)

    def seconds_through(self, prefix_list) -> float:
        return sum(
            report.ms / 1000
            for f, report in self.files
            if any(f.relpath.startswith(p) for p in prefix_list)
        )

    def status_of(self, name: str) -> str:
        for _, report in self.files:
            for decl in report.declarations:
                if decl.name == name:
                    return decl.status
        raise KeyError(name)

    @property
    def all_ok(self) -> bool:
        return all(report.ok for _, report in self.files)


@pytest.fixture(scope="session")
def corpus_run() -> CorpusRun:
    return CorpusRun()


def check_one(source: str, config: Config | None = None):
    """Check a single standalone source string; returns its CheckReport."""
    [report], _ = run_deep(lambda: check_files([("<input>", source)], config))
    return report


def report_json(report: CheckReport):
    """The JSON value of the text `report` writes."""
    pieces = []
    report.write(pieces.append)
    return json.loads("".join(pieces))


def without_ms(value):
    """A JSON report, or the JSON a `CheckReport` writes, with every `ms`
    field left out."""
    if isinstance(value, CheckReport):
        value = report_json(value)
    if isinstance(value, dict):
        return {k: without_ms(v) for k, v in value.items() if k != "ms"}
    if isinstance(value, list):
        return [without_ms(v) for v in value]
    return value


def core_term(text: str, glob: Globals | None = None) -> Term:
    """The core term of the surface term `text`, with the names of `glob`
    as its globals and its references linked to them; a resolve error
    raises `CheckFailure`."""
    module = parse_module(f"def tmp : U0 := {text}")
    Resolver(Globals() if glob is None else glob).resolve(module.pending[0])
    return module.decls[0].body


def synth_program(seed: int, count: int | None = None) -> str:
    """The source of the benchmark's `synth` workload for `seed`, with
    `count` declarations, by default the workload's own number."""
    spec = importlib.util.spec_from_file_location("synth", ROOT / "perfbench" / "synth.py")
    synth = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(synth)
    return synth.program(seed, synth.DECLARATIONS if count is None else count)[0]


# Declarations to follow a broken one, some chunks of them.
FURTHER_DECLS = "".join(f"--@ tag{i}\ndef d{i} : Nat -> Nat := fun n => suc n\n" for i in range(400))
# A parse error in the first declaration and a lex error in the last,
# chunks apart: the lex error is the one reported.
PARSE_THEN_LEX_ERROR = "def a : Nat := )\n" + FURTHER_DECLS + "def z : Nat := $\n"
# A declaration with a group left open, a telescope's or an eliminator
# argument's, and one that follows it with a stray `)` and then `->`.
UNCLOSED_GROUPS = ["def a : (x : U0 -> x\n", "def a : Nat := natElim (x : U0) (y : Nat\n"]
STRAY_PAREN = "def b : Nat := zero) -> Nat\n"


# Each program is rejected because of the kernel rule its id names: a
# kernel that leaves that rule out of `checker` or `conversion` gives
# another verdict.
KILLERS = [
    pytest.param(
        "def bad : (A : U0) (a b : A) (p : Id A a b)"
        " -> J (fun x y q => U1) (fun x => Nat) p -> J (fun x y q => U0) (fun x => Nat) p"
        " := fun A a b p m => m",
        Config(),
        "type-mismatch",
        id="J-motive",
    ),
    pytest.param(
        "def bad : (n : Nat) -> natElim (fun _ => U1) Nat (fun k ih => Nat) n"
        " -> natElim (fun _ => U0) Nat (fun k ih => Nat) n := fun n m => m",
        Config(),
        "type-mismatch",
        id="natElim-motive",
    ),
    pytest.param(
        "def bad : (b : Two) -> twoElim (fun _ => U1) Nat Nat b"
        " -> twoElim (fun _ => U0) Nat Nat b := fun b m => m",
        Config(),
        "type-mismatch",
        id="twoElim-motive",
    ),
    pytest.param(
        "def bad : (e : Empty) -> emptyElim (fun _ => U1) e -> emptyElim (fun _ => U0) e := fun e m => m",
        Config(),
        "type-mismatch",
        id="emptyElim-motive",
    ),
    pytest.param(
        "def bad : Nat -> Nat := fun n => emptyElim (fun e => Nat) n",
        Config(),
        "type-mismatch",
        id="emptyElim-target",
    ),
    pytest.param(
        "def bad : (Nat * Nat) -> (Two * Nat) := fun p => p",
        Config(),
        "type-mismatch",
        id="sigma-domain",
    ),
    pytest.param(
        "def bad : (p : Nat * Nat) -> Id Nat (fst p) (snd p) := fun p => refl (fst p)",
        Config(),
        "endpoint-mismatch",
        id="fst-snd-frames",
    ),
    pytest.param(
        "def bad : Id (Nat * Nat) (0, 0) (0, 1) := refl (0, 0)",
        Config(eta_sigma=False),
        "endpoint-mismatch",
        id="pair-components",
    ),
    pytest.param("def bad : Nat -> Nat := fun n => n n", Config(), "not-a-function", id="app-head"),
    pytest.param(
        "def bad : Nat -> Nat := fun n => J (fun x y p => Nat) (fun x => 0) n",
        Config(),
        "not-a-path",
        id="J-path",
    ),
    pytest.param("def bad : Nat -> Nat := fun n => snd n", Config(), "not-a-pair", id="snd-of-non-pair"),
    pytest.param("def bad : Nat := fst 0", Config(), "not-a-pair", id="fst-of-non-pair"),
    pytest.param("def bad : Nat := fst (0, 0)", Config(), "cannot-infer", id="inferred-pair"),
    pytest.param("def bad : Nat := (fun x => x) 0", Config(), "cannot-infer", id="inferred-lambda"),
    pytest.param("def bad : Nat := refl 0", Config(), "type-mismatch", id="refl-against-non-Id"),
    pytest.param("def bad : Nat := fun x => x", Config(), "type-mismatch", id="lambda-against-non-pi"),
    pytest.param("def bad : Nat := (0, 0)", Config(), "type-mismatch", id="pair-against-non-sigma"),
    # The step's `ih : motive(k)` against `motive(suc k)`: two closures over
    # one body whose captured values differ, which `same_closure` must tell
    # apart (a Π codomain, a Σ component, a Π domain's codomain).
    pytest.param(
        "def bad : Nat -> Id Nat 0 0 := natElim (fun n => Nat -> Id Nat n n) (fun x => refl 0) (fun k ih => ih) 0",
        Config(),
        "type-mismatch",
        id="pi-codomain-captures",
    ),
    pytest.param(
        "def bad : Nat * Id Nat 0 0 := natElim (fun n => Nat * Id Nat n n) (0, refl 0) (fun k ih => ih) 0",
        Config(),
        "type-mismatch",
        id="sigma-component-captures",
    ),
    pytest.param(
        "def bad : (Nat -> Id Nat 0 0) -> Nat"
        " := natElim (fun n => (Nat -> Id Nat n n) -> Nat) (fun f => 0) (fun k ih => ih) 0",
        Config(),
        "type-mismatch",
        id="pi-domain-captures",
    ),
]
