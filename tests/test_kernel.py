"""Kernel units: evaluation, conversion, bidirectional checking, subtyping."""

import gc
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import threading

import pytest
from conftest import KILLERS, CorpusRun, check_one, core_term, synth_program, without_ms

from minihott import checker, cli, conversion, pipeline, printer
from minihott import evaluate as evaluation
from minihott import terms as t
from minihott import values as v
from minihott.checker import Checker, Context
from minihott.conversion import conv, subtype
from minihott.corpus.manifest import emit_corpus
from minihott.evaluate import KernelBug, apply, evaluate, normalize, project_fst, project_snd, quote, whnf
from minihott.globals import DEFAULT_MAX_LEVEL, Config, Globals
from minihott.pipeline import check_files, run_deep
from minihott.printer import print_term

ROOT = pathlib.Path(__file__).resolve().parent.parent

ADD_SOURCE = """
def add : Nat -> Nat -> Nat
  := fun n m => natElim (fun k => Nat) n (fun k ih => suc ih) m
"""

SWAP_SOURCE = """
def swap : Two -> Two
  := fun b => twoElim (fun x => Two) one2 zero2 b
"""


def eval_term(source_term: str, prelude: str = "") -> v.Value:
    """Evaluate a standalone term after checking `prelude`."""
    [report], glob = check_files([("<input>", prelude)])
    assert report.ok
    return evaluate((), core_term(source_term, glob))


def normal_text(source_term: str, prelude: str = "") -> str:
    return print_term(quote(0, eval_term(source_term, prelude)))


# --- evaluation ---


def test_swap_computes_on_constructors():
    assert normal_text("swap one2", SWAP_SOURCE) == "zero2"
    assert normal_text("swap zero2", SWAP_SOURCE) == "one2"


def test_identity_eliminator_beta_rule():
    assert normal_text("J (fun x y p => Two) (fun x => one2) (refl star)") == "one2"


def test_unary_addition_computes():
    assert normal_text("add 2 2", ADD_SOURCE) == "4"


def test_recursion_on_second_argument_is_judgmental():
    # add n 1 is suc n definitionally, even with n a variable
    source = ADD_SOURCE + (
        "goal addOneIsSuc : (n : Nat) -> Id Nat (add n 1) (suc n)\n"
        "  := fun n => refl (suc n)"
    )
    assert check_one(source).ok


def test_axioms_are_stuck():
    value = eval_term("opaque Two", "axiom opaque : U0 -> U0")
    assert isinstance(value, v.VNeutral)
    assert value.head == v.VAxiom("opaque")


def test_unbound_variable_is_a_kernel_bug():
    with pytest.raises(KernelBug, match="unbound de Bruijn index 1 at depth 1"):
        evaluate((v.fresh(0),), t.Var(1))
    with pytest.raises(KernelBug, match="unbound de Bruijn index 0 at depth 0"):
        Checker(Globals()).infer(Context(), t.Var(0))


def test_an_unlinked_reference_is_a_kernel_bug():
    with pytest.raises(KernelBug, match="reference to a was never linked"):
        evaluate((), t.Ref("a"))


def test_the_link_of_a_reference_is_not_a_field():
    first, second = t.Ref("a"), t.Ref("a")
    t.Linked.target.__set__(first, t.Zero())
    t.Linked.target.__set__(second, t.Nat())
    assert first == second and hash(first) == hash(second)
    assert repr(first) == repr(second) == "Ref(name='a')"
    with pytest.raises(AttributeError):
        first.target = t.Nat()
    assert evaluate((), first) == t.Zero()


def test_normalize_is_idempotent_on_samples():
    samples = [
        "(fun x => x) Two",
        "fst (star, one2)",
        "add 1 2",
        "fun f => fun x => f (f x)",
        "(fun x => f x) 2",  # the normal form mentions the axiom `f`
    ]
    [report], glob = check_files([("<input>", ADD_SOURCE + "axiom f : Nat -> Nat\n")])
    assert report.ok
    for text in samples:
        term = core_term(text, glob)
        once = normalize((), term)
        assert normalize((), once) == once


# --- conversion ---


def test_eta_for_functions():
    [report], glob = check_files([("<input>", "axiom f : Nat -> Nat")])
    assert report.ok
    value = evaluate((), core_term("(fun x => f x, f)", glob))
    assert conv(0, value.fst, value.snd)


def test_eta_for_pairs_default_on():
    source = (
        "axiom P : U1\n"
        "axiom p : U0 * U0\n"
        "goal etaPair : Id (U0 * U0) (fst p, snd p) p\n"
        "  := refl p"
    )
    assert check_one(source).ok


def test_eta_for_pairs_off_rejects():
    source = (
        "axiom p : U0 * U0\n"
        "goal etaPair : Id (U0 * U0) (fst p, snd p) p\n"
        "  := refl p"
    )
    result = check_one(source, Config(eta_sigma=False))
    assert not result.ok


@pytest.mark.parametrize(
    "source,verdict",
    [
        pytest.param("axiom u : Unit\ngoal unitEta : Id Unit u star\n  := refl star", None, id="refl-star"),
        pytest.param("def a : (x y : Unit) -> Id Unit x y := fun x y => refl x", None, id="refl-variables"),
        # `subtype` compares `P x` with `P y` without their type, so η for
        # Unit does not apply: a kernel change that applies it there must
        # flip this verdict on purpose.
        pytest.param(
            "def b : (P : Unit -> U0) (x y : Unit) -> P x -> P y := fun P x y p => p",
            "type-mismatch",
            id="transport-in-a-family",
        ),
    ],
)
def test_eta_for_unit(source, verdict):
    """η for `Unit` holds where `refl` is checked against an identity type
    (`_check_refl`'s typed conversion), and nowhere else."""
    decl = check_one(source).declarations[-1]
    assert (decl.diagnostic and decl.diagnostic.code) == verdict


def test_swap_not_convertible_with_identity():
    source = SWAP_SOURCE + (
        "goal bad : Id (Two -> Two) swap (fun b => b)\n"
        "  := refl swap"
    )
    result = check_one(source)
    assert result.declarations[-1].status == "rejected"


EXP2_SOURCE = """
def double : Nat -> Nat
  := fun n => natElim (fun k => Nat) 0 (fun k ih => suc (suc ih)) n

def exp2 : Nat -> Nat
  := fun n => natElim (fun k => Nat) 1 (fun k ih => double ih) n
"""


def test_equal_applications_of_a_definition_are_not_unfolded():
    # Unfolding exp2 30 would build a numeral of 2^30 successors.
    source = EXP2_SOURCE + (
        "goal exp2Refl : Id Nat (exp2 30) (exp2 30)\n"
        "  := refl (exp2 30)"
    )
    assert check_one(source).ok


def test_a_definition_on_different_arguments_is_unfolded():
    source = (
        "def isZero : Nat -> Two\n"
        "  := fun n => natElim (fun k => Two) one2 (fun k ih => zero2) n\n"
        "goal sameValue : Id Two (isZero 1) (isZero 2) := refl zero2\n"
        "goal otherValue : Id Two (isZero 0) (isZero 2) := refl one2"
    )
    statuses = [d.status for d in check_one(source).declarations]
    assert statuses == ["accepted", "accepted", "rejected"]


def test_refl_endpoint_mismatch():
    result = check_one("goal bad : Id Two zero2 one2 := refl zero2")
    assert result.declarations[-1].status == "rejected"
    assert result.declarations[-1].diagnostic.code == "endpoint-mismatch"


# --- universes and subtyping ---


def test_universe_infers_next_level():
    assert check_one("def a : U1 := U0").ok


def test_no_type_in_type():
    assert not check_one("def a : U0 := U0").ok


@pytest.mark.parametrize(
    "source",
    [
        "def bad : U0 := Nat -> U0",  # a function type lives in the larger of its universes
        "def bad : U0 := Id U0 Nat Nat",  # an identity type lives in its carrier's universe
        "def bad : Id U1 Nat Nat -> Id U0 Nat Nat := fun p => p",  # carriers are compared
    ],
)
def test_universe_levels_are_not_lowered(source):
    [decl] = check_one(source).declarations
    assert decl.diagnostic.code == "type-mismatch"


@pytest.mark.parametrize("source,config,code", KILLERS)
def test_kernel_rules_reject_their_killers(source, config, code):
    [decl] = check_one(source, config).declarations
    assert (decl.status, decl.diagnostic and decl.diagnostic.code) == ("rejected", code)


# Each program reaches a rule that the corpus does not: `refl` in inference
# position (a `J` path), and a definition's unfolding forced under a
# `natElim` or an `emptyElim` frame.
@pytest.mark.parametrize(
    "source",
    [
        pytest.param(
            "goal g : Id Nat 0 0 := J (fun x y p => Id Nat 0 0) (fun x => refl 0) (refl 1)",
            id="inferred-refl",
        ),
        pytest.param(
            "def two : Nat := 2\n"
            "goal g : Id Nat (natElim (fun _ => Nat) 0 (fun k ih => suc ih) two) 2 := refl 2",
            id="natElim-of-definition",
        ),
        pytest.param(
            "axiom void : Empty\n"
            "def alias : Empty := void\n"
            "goal g : Id Nat (emptyElim (fun _ => Nat) alias) (emptyElim (fun _ => Nat) void)\n"
            "  := refl (emptyElim (fun _ => Nat) void)",
            id="emptyElim-of-definition",
        ),
    ],
)
def test_rules_the_corpus_does_not_reach_accept(source):
    report = check_one(source)
    assert report.ok, [d.diagnostic for d in report.declarations]


def test_cumulativity_for_base_types():
    assert check_one("def a : U3 := Two").ok


def test_cumulativity_strictly_upward():
    assert not check_one("def a : U1 := U2").ok


def test_pi_codomain_covariance():
    source = (
        "def f : Two -> U0\n"
        "  := fun b => Two\n"
        "def g : Two -> U2\n"
        "  := f"
    )
    assert check_one(source).ok


def test_pi_domain_invariance():
    source = (
        "axiom f : U1 -> Two\n"
        "def g : U0 -> Two\n"
        "  := f"
    )
    assert not check_one(source).ok


def test_level_overflow():
    result = check_one("def a : U8 := U7", Config(max_level=9))
    assert result.ok
    overflow = check_one("def a : U8 := U7", Config(max_level=8))
    assert not overflow.ok
    assert overflow.declarations[0].diagnostic.code == "level-overflow"


def test_annotation_erasure():
    annotated = "def a : Nat := ((2 : Nat) : Nat)"
    plain = "def a : Nat := 2"
    assert check_one(annotated).ok == check_one(plain).ok is True


def test_goals_bind_nothing():
    source = (
        "goal g : U1 := U0\n"
        "def usesGoal : U1 := g"
    )
    result = check_one(source)
    statuses = [d.status for d in result.declarations]
    assert statuses == ["accepted", "rejected"]


def test_axiom_with_ill_typed_statement_rejected():
    assert not check_one("axiom bad : fst U0").ok


# --- no reference cycles: checking runs with the cyclic GC off ---

REJECTIONS_SOURCE = """
def one : Nat := 1
def notTwo : Two := star
def typo : Nat := onr
def one : Nat := 2
def x7 : Nat := 0
def constFamily : U1 := (A : U0) -> A -> (B : U0) * B
"""


def test_checking_and_printing_create_no_reference_cycles():
    # Garbage in a reference cycle would stay until exit, since `run_deep`
    # turns the cyclic collector off.
    prelude = [(f.relpath, f.render()) for f in emit_corpus(2) if f.relpath.startswith("prelude/")]

    def work():
        reports, glob = check_files([*prelude, ("<input>", REJECTIONS_SOURCE)])
        *prelude_reports, rejections = reports
        assert all(report.ok for report in prelude_reports)
        diagnostics = [d.diagnostic for d in rejections.declarations]
        assert [d and d.code for d in diagnostics] == [
            None,
            "type-mismatch",
            "resolve",
            "duplicate-name",
            "reserved-name",
            None,
        ]
        assert "did you mean 'one'?" in diagnostics[2].message
        return print_term(quote(0, glob.lookup("constFamily").value))

    gc.collect()
    gc.disable()  # else a collection as soon as `run_deep` turns it back on hides the cycles
    try:
        normal = run_deep(work)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert normal == "(x0 : U0) -> x0 -> (x2 : U0) * x2"


@pytest.mark.parametrize("fails", [False, True])
def test_run_deep_restores_process_state(fails):
    def fn():
        assert not gc.isenabled()
        run_deep(lambda: None)  # a nested call leaves the collector off
        assert not gc.isenabled()
        if fails:
            raise ValueError("from fn")
        return "from fn"

    before = (threading.stack_size(), sys.getrecursionlimit(), gc.isenabled())
    if fails:
        with pytest.raises(ValueError, match="from fn"):
            run_deep(fn)
    else:
        assert run_deep(fn) == "from fn"
    assert (threading.stack_size(), sys.getrecursionlimit(), gc.isenabled()) == before


# --- no state outlives a command: the kernel keeps no process-global tables ---

# Run in a fresh interpreter, so that no earlier test has filled a table
# that a check or a normalize would grow.
PROCESS_STATE_SCRIPT = """
import contextlib, io, json, sys
from minihott import cli

def module_containers():
    # `len()` of each module-level dict, list and set of the loaded minihott modules
    return {
        f"{name}.{attr}": len(value)
        for name, module in list(sys.modules.items())
        if name == "minihott" or name.startswith("minihott.")
        for attr, value in vars(module).items()
        if not attr.startswith("__") and isinstance(value, (dict, list, set))
    }

cli._load_kernel()
before = module_containers()
path = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["check", path]), cli.main(["normalize", path, "--name", "transportLoopRefl"])]
after = module_containers()
grown = sorted(name for name, size in after.items() if size > before.get(name, 0))
print(json.dumps({"codes": codes, "grown": grown}))
"""


def test_check_and_normalize_leave_no_process_global_kernel_state():
    path = ROOT / "corpus" / "generated" / "prelude" / "01-path-algebra.hott"
    done = subprocess.run(
        [sys.executable, "-c", PROCESS_STATE_SCRIPT, str(path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["codes"] == [cli.EXIT_OK, cli.EXIT_OK]
    # one shared fresh variable per binder depth, bounded by the deepest binder
    assert set(result["grown"]) <= {"minihott.values._FRESH"}, result["grown"]


# --- normal forms: a differential test of evaluation, quotation and printing
# against the forms perfbench/expected/normal_forms.json records ---

NORMAL_FORM_FILES = 13  # prelude, generic and level 0: the benchmark's normalize inputs
NORMAL_FORM_MAX_BYTES = 40_000


def recorded_normal_forms() -> dict:
    """The recorded forms of at most NORMAL_FORM_MAX_BYTES, by name."""
    recorded = json.loads((ROOT / "perfbench" / "expected" / "normal_forms.json").read_text(encoding="utf-8"))
    return {name: form for name, form in recorded.items() if form is not None and form["bytes"] <= NORMAL_FORM_MAX_BYTES}


def normal_forms(names) -> dict:
    """The size and hash of the printed normal form of each of `names`,
    after checking the benchmark's normalize inputs."""
    manifest = json.loads((ROOT / "corpus" / "generated" / "manifest.json").read_text(encoding="utf-8"))
    paths = [ROOT / "corpus" / "generated" / f["path"] for f in manifest["files"][:NORMAL_FORM_FILES]]

    def work():
        reports, glob = check_files((str(path), path.read_text(encoding="utf-8")) for path in paths)
        assert all(report.ok for report in reports)
        forms = {}
        for name in names:
            text = print_term(quote(0, glob.lookup(name).value)).encode("utf-8")
            forms[name] = {"bytes": len(text), "sha256": hashlib.sha256(text).hexdigest()}
        return forms

    return run_deep(work)


def test_normal_forms_match_the_recorded_ones():
    expected = recorded_normal_forms()
    assert normal_forms(expected) == expected


# --- identity shortcuts: shared constants and same-closure equality ---


def test_constants_are_shared():
    assert evaluate((), t.Nat()) is evaluate((), t.Nat())
    for term, value in (
        (t.Nat(), t.NAT), (t.Zero(), t.ZERO), (t.Two(), t.TWO), (t.Bit0(), t.BIT0), (t.Bit1(), t.BIT1),
        (t.Unit(), t.UNIT), (t.Star(), t.STAR), (t.Empty(), t.EMPTY), (t.Univ(0), t.univ(0)),
    ):
        assert evaluate((), term) is value
    assert Checker(Globals()).infer(Context(), t.Nat()) is t.univ(0)
    assert Checker(Globals()).infer(Context(), t.Zero()) is t.NAT
    pair = v.fresh(0)
    assert project_fst(pair).spine[-1] is v.FST and project_snd(pair).spine[-1] is v.SND
    # one universe per level a default check reaches, and one more; above
    # that bound a universe is allocated anew
    top = DEFAULT_MAX_LEVEL + 1
    assert evaluate((), t.Univ(top)) is t.univ(top) == t.Univ(top)
    assert t.univ(top + 1) is not t.univ(top + 1) and t.univ(top + 1) == t.Univ(top + 1)
    # a constant or a universe is its own value, and quotes to itself
    for value in (t.NAT, t.ZERO, t.TWO, t.BIT0, t.BIT1, t.UNIT, t.STAR, t.EMPTY, *map(t.univ, range(top + 2))):
        assert quote(0, value) is value


def test_closures_with_equal_but_not_identical_captures_are_evaluated(monkeypatch):
    body = t.Suc(t.Var(1))  # one captured value, one bound
    c1, c2 = (v.Closure((v.VSuc(t.ZERO),), body) for _ in range(2))
    assert c1 == c2 and c1.env[0] is not c2.env[0]
    assert not conversion.same_closure(c1, c2)
    calls, evaluate_ = [], evaluation.evaluate
    monkeypatch.setattr(evaluation, "evaluate", lambda env, term: calls.append(term) or evaluate_(env, term))
    assert conversion.closure_eq(0, c1, c2)
    assert subtype(0, v.VPi(t.NAT, c1), v.VPi(t.NAT, c2))
    assert len(calls) > 0
    # identical captures in another tuple settle both without evaluating
    c3 = v.Closure((c1.env[0],), body)
    calls.clear()
    assert conversion.same_closure(c1, c3)
    assert conversion.closure_eq(0, c1, c3)
    assert subtype(0, v.VSigma(t.NAT, c1), v.VSigma(t.NAT, c3))
    assert calls == []


def test_closures_of_different_arities_never_match():
    env = (t.NAT,)
    one, two = v.Closure(env, t.Nat(), 1), v.Closure(env, t.Nat(), 2)
    assert not conversion.same_closure(one, two) and not conversion.same_closure(two, one)
    assert not conversion.closure_eq(0, one, two)


def shortcut_outputs() -> tuple:
    """The JSON reports, without `ms`, of the whole corpus, synth seed 1
    and the killer programs, and the recorded normal forms."""
    run = CorpusRun()
    reports = [report for _, report in run.files]
    reports += [check_one(source, config) for source, config, _ in (param.values for param in KILLERS)]
    reports.append(check_one(synth_program(1)))
    return [without_ms(report) for report in reports], normal_forms(recorded_normal_forms())


def test_same_closure_changes_no_output(monkeypatch):
    with_shortcut = shortcut_outputs()
    asked = 0

    def never(c1, c2):
        nonlocal asked
        asked += 1
        return False

    monkeypatch.setattr(conversion, "same_closure", never)
    assert shortcut_outputs() == with_shortcut
    assert asked > 1000  # the shortcut is reached, and often


# --- dispatch tables: every class has a rule, and a stray class is a KernelBug ---


def records_of(module, base=object) -> set:
    """The `records.record` classes of `module` that subclass `base`."""
    return {
        c for c in vars(module).values() if isinstance(c, type) and issubclass(c, base) and hasattr(c, "__match_args__")
    }


# A universe or a closed constant is its own value.
VALUE_CLASSES = ({c for c in vars(v).values() if isinstance(c, type) and issubclass(c, v.Value)} - {v.Value}) | {
    t.Univ, t.Nat, t.Zero, t.Empty, t.Unit, t.Star, t.Two, t.Bit0, t.Bit1
}
# A spine frame is a tuple whose first item is its eliminator's term class.
ELIMINATOR_CLASSES = {t.App, t.Fst, t.Snd, t.J, t.NatElim, t.TwoElim, t.EmptyElim}


def test_dispatch_tables_cover_every_class():
    assert v.VGlued in VALUE_CLASSES
    assert records_of(v) - records_of(v, v.Value) == {v.Closure, v.VVar, v.VAxiom}  # no frame class
    assert set(evaluation._EVAL) == records_of(t, t.Term)
    assert set(evaluation._QUOTE) == VALUE_CLASSES
    assert set(conversion._SAME) == VALUE_CLASSES - {v.VGlued}  # whnf unfolds every glued value
    assert set(evaluation._ELIMINATE) == ELIMINATOR_CLASSES
    assert set(printer._PRINT) == records_of(t, t.Term)
    assert set(checker._INFER) == records_of(t, t.Term)
    assert set(checker._CHECK) == {t.Lam, t.Pair, t.Refl}  # the rest are inferred and compared


def test_a_class_without_a_rule_is_a_kernel_bug():
    class StrayTerm(t.Term):
        __slots__ = ()

    class StrayValue(v.Value):
        __slots__ = ()

    x = v.fresh(0)
    stray_frame = (StrayTerm, x)  # a frame whose node has no eliminator
    for fail in (
        lambda: evaluate((), StrayTerm()),
        lambda: Checker(Globals()).infer(Context(), StrayTerm()),
        lambda: Checker(Globals()).check(Context(), StrayTerm(), t.Nat()),
        lambda: print_term(StrayTerm()),
        lambda: print_term(t.Pi(t.Nat(), StrayTerm())),
        lambda: quote(0, StrayValue()),
        lambda: quote(1, v.VNeutral(x.head, (stray_frame,))),
        lambda: conversion.conv_structural(0, StrayValue(), StrayValue()),
        lambda: evaluation.whnf(v.VGlued("g", (stray_frame,), v.VGlued("g", (), None, None, x), stray_frame, None)),
    ):
        with pytest.raises(KernelBug):
            fail()


# Each eliminator applied to the variable `x`, with variants that differ
# from it in one field each (a binding field is its body's term).
FRAME_CASES = {
    t.App: (t.App(t.Var(0), t.Zero()), [t.App(t.Var(0), t.Suc(t.Zero()))]),
    t.Fst: (t.Fst(t.Var(0)), [t.Snd(t.Var(0))]),
    t.Snd: (t.Snd(t.Var(0)), [t.Fst(t.Var(0))]),
    t.J: (
        t.J(t.Id(t.Nat(), t.Var(2), t.Var(1)), t.Refl(t.Var(0)), t.Var(0)),
        [
            t.J(t.Id(t.Nat(), t.Var(1), t.Var(2)), t.Refl(t.Var(0)), t.Var(0)),
            t.J(t.Id(t.Nat(), t.Var(2), t.Var(1)), t.Refl(t.Zero()), t.Var(0)),
        ],
    ),
    t.NatElim: (
        t.NatElim(t.Nat(), t.Zero(), t.Suc(t.Var(0)), t.Var(0)),
        [
            t.NatElim(t.Two(), t.Zero(), t.Suc(t.Var(0)), t.Var(0)),
            t.NatElim(t.Nat(), t.Suc(t.Zero()), t.Suc(t.Var(0)), t.Var(0)),
            t.NatElim(t.Nat(), t.Zero(), t.Suc(t.Var(1)), t.Var(0)),
        ],
    ),
    t.TwoElim: (
        t.TwoElim(t.Nat(), t.Zero(), t.Suc(t.Zero()), t.Var(0)),
        [
            t.TwoElim(t.Two(), t.Zero(), t.Suc(t.Zero()), t.Var(0)),
            t.TwoElim(t.Nat(), t.Suc(t.Zero()), t.Suc(t.Zero()), t.Var(0)),
            t.TwoElim(t.Nat(), t.Zero(), t.Zero(), t.Var(0)),
        ],
    ),
    t.EmptyElim: (t.EmptyElim(t.Nat(), t.Var(0)), [t.EmptyElim(t.Two(), t.Var(0))]),
}


@pytest.mark.parametrize("node", sorted(ELIMINATOR_CLASSES, key=lambda c: c.__name__), ids=lambda c: c.__name__)
def test_each_frame_kind_quotes_back_and_compares_every_field(node):
    """A stuck elimination of `x` is one frame `(node, *fields)`; the generic
    quote rebuilds the term, and conversion tells it from a copy that differs
    in any one field."""
    term, variants = FRAME_CASES[node]
    env = (v.fresh(0),)
    value = evaluate(env, term)
    assert value.__class__ is v.VNeutral and len(value.spine) == 1
    [frame] = value.spine
    assert frame[0] is node and len(frame) == len(node.__match_args__)  # every field but the target
    assert quote(1, value) == term
    assert conversion.conv_structural(1, value, evaluate(env, term))
    for variant in variants:
        other = evaluate(env, variant)
        assert not conversion.conv_structural(1, value, other)
        assert not conversion.conv_structural(1, other, value)


# --- conversion: a differential test against the match-based rules the
# dispatch tables replaced, kept here verbatim as the reference ---


def _same_glued(depth: int, a: v.Value, b: v.Value, *, eta_sigma: bool) -> bool:
    """The same definition under convertible spines (a sufficient test)."""
    return (
        isinstance(a, v.VGlued)
        and isinstance(b, v.VGlued)
        and a.name == b.name
        and spine_eq(depth, a.spine, b.spine, eta_sigma=eta_sigma)
    )


def conv_structural(depth: int, a: v.Value, b: v.Value, *, eta_sigma: bool) -> bool:
    if a is b:
        return True
    if _same_glued(depth, a, b, eta_sigma=eta_sigma):
        return True
    a, b = whnf(a), whnf(b)
    if a is b:
        return True
    # untyped η for functions and pairs
    if isinstance(a, v.VLam) or isinstance(b, v.VLam):
        x = v.fresh(depth)
        return conv_structural(depth + 1, apply(a, x), apply(b, x), eta_sigma=eta_sigma)
    if eta_sigma and (isinstance(a, v.VPair) or isinstance(b, v.VPair)):
        if not _projectable(a) or not _projectable(b):
            return False
        return conv_structural(
            depth, project_fst(a), project_fst(b), eta_sigma=eta_sigma
        ) and conv_structural(depth, project_snd(a), project_snd(b), eta_sigma=eta_sigma)

    match (a, b):
        case (t.Univ(i), t.Univ(j)):
            return i == j
        case (v.VPi(d1, c1), v.VPi(d2, c2)) | (v.VSigma(d1, c1), v.VSigma(d2, c2)):
            if not conv_structural(depth, d1, d2, eta_sigma=eta_sigma):
                return False
            x = v.fresh(depth)
            return conv_structural(depth + 1, c1(x), c2(x), eta_sigma=eta_sigma)
        case (v.VPair(x1, y1), v.VPair(x2, y2)):
            return conv_structural(depth, x1, x2, eta_sigma=eta_sigma) and conv_structural(
                depth, y1, y2, eta_sigma=eta_sigma
            )
        case (v.VId(t1, l1, r1), v.VId(t2, l2, r2)):
            return (
                conv_structural(depth, t1, t2, eta_sigma=eta_sigma)
                and conv_structural(depth, l1, l2, eta_sigma=eta_sigma)
                and conv_structural(depth, r1, r2, eta_sigma=eta_sigma)
            )
        case (v.VRefl(x1), v.VRefl(x2)):
            return conv_structural(depth, x1, x2, eta_sigma=eta_sigma)
        case (v.VSuc(p1), v.VSuc(p2)):
            return conv_structural(depth, p1, p2, eta_sigma=eta_sigma)
        case (v.VNeutral(h1, s1), v.VNeutral(h2, s2)):
            return h1 == h2 and spine_eq(depth, s1, s2, eta_sigma=eta_sigma)
        case (
            (t.Nat(), t.Nat())
            | (t.Zero(), t.Zero())
            | (t.Empty(), t.Empty())
            | (t.Unit(), t.Unit())
            | (t.Star(), t.Star())
            | (t.Two(), t.Two())
            | (t.Bit0(), t.Bit0())
            | (t.Bit1(), t.Bit1())
        ):
            return True
        case _:
            return False


def _projectable(value: v.Value) -> bool:
    return isinstance(value, (v.VPair, v.VNeutral))


def closure_eq(depth: int, c1: v.Closure, c2: v.Closure, *, eta_sigma: bool) -> bool:
    if c1.arity != c2.arity:
        return False
    args = tuple(v.fresh(depth + i) for i in range(c1.arity))
    return conv_structural(depth + c1.arity, c1(*args), c2(*args), eta_sigma=eta_sigma)


def spine_eq(depth: int, s1: tuple, s2: tuple, *, eta_sigma: bool) -> bool:
    if len(s1) != len(s2):
        return False
    for f1, f2 in zip(s1, s2):
        match (f1, f2):
            case ((t.App, a1), (t.App, a2)):
                if not conv_structural(depth, a1, a2, eta_sigma=eta_sigma):
                    return False
            case ((t.Fst,), (t.Fst,)) | ((t.Snd,), (t.Snd,)):
                pass
            case ((t.J, m1, b1), (t.J, m2, b2)):
                if not (
                    closure_eq(depth, m1, m2, eta_sigma=eta_sigma)
                    and closure_eq(depth, b1, b2, eta_sigma=eta_sigma)
                ):
                    return False
            case ((t.NatElim, m1, z1, st1), (t.NatElim, m2, z2, st2)):
                if not (
                    closure_eq(depth, m1, m2, eta_sigma=eta_sigma)
                    and conv_structural(depth, z1, z2, eta_sigma=eta_sigma)
                    and closure_eq(depth, st1, st2, eta_sigma=eta_sigma)
                ):
                    return False
            case ((t.TwoElim, m1, a1, b1), (t.TwoElim, m2, a2, b2)):
                if not (
                    closure_eq(depth, m1, m2, eta_sigma=eta_sigma)
                    and conv_structural(depth, a1, a2, eta_sigma=eta_sigma)
                    and conv_structural(depth, b1, b2, eta_sigma=eta_sigma)
                ):
                    return False
            case ((t.EmptyElim, m1), (t.EmptyElim, m2)):
                if not closure_eq(depth, m1, m2, eta_sigma=eta_sigma):
                    return False
            case _:
                return False
    return True


# Programs that conversion rejects, so that the comparison sees `False` answers.
REJECTED_BY_CONVERSION = (
    "axiom a : Nat\naxiom b : Nat\ngoal bad : Id Nat a b := refl a",
    "goal bad : Id U2 U0 U1 := refl U0",
    "goal bad : Id U1 U0 (Nat -> Nat) := refl U0",
    "goal bad : Id (Two -> Two) (fun b => b) (fun b => zero2) := refl (fun b => b)",
    "axiom p : Nat * Nat\ngoal bad : Id (Nat * Nat) p (snd p, fst p) := refl p",
    "axiom f : Nat -> Nat\ngoal bad : Id Nat (f 1) (f 2) := refl (f 1)",
)


@pytest.mark.parametrize("eta_sigma", [True, False])
def test_conversion_agrees_with_the_match_based_rules(monkeypatch, eta_sigma):
    """Every outermost `conv_structural` call of a check through level 0,
    and of programs conversion rejects, gives the reference's answer on
    the same values."""
    table_based = conversion.conv_structural
    answers = []  # (tables, reference) for each outermost call
    nested = False

    def both(depth, a, b):
        nonlocal nested
        if nested:
            return table_based(depth, a, b)
        nested = True
        try:
            answer = table_based(depth, a, b)
        finally:
            nested = False
        answers.append((answer, conv_structural(depth, a, b, eta_sigma=conversion.eta_sigma)))
        return answer

    monkeypatch.setattr(conversion, "conv_structural", both)
    run = CorpusRun(Config(eta_sigma=eta_sigma), prefixes=("prelude/", "generic/", "levels/level0/"))
    assert run.all_ok == eta_sigma
    for source in REJECTED_BY_CONVERSION:
        assert not check_one(source, Config(eta_sigma=eta_sigma)).ok, source
    assert len(answers) > 1000
    assert [pair for pair in answers if pair[0] != pair[1]] == []
    assert (False, False) in answers


def mixed_class_cases():
    """(a, b, depth, answer with η for Σ, answer without) for values of two classes."""
    f, p = v.fresh(0), v.fresh(0)
    eta_f = v.VLam(v.Closure((f,), t.App(t.Var(1), t.Var(0))))  # fun x => f x
    const_zero = v.VLam(v.Closure((), t.Zero()))
    eta_p = v.VPair(project_fst(p), project_snd(p))  # (fst p, snd p)
    swapped = v.VPair(project_snd(p), project_fst(p))
    nat_to_nat = v.VPi(t.Nat(), v.Closure((), t.Nat()))
    return {
        "lambda-against-neutral": (eta_f, f, 1, True, True),
        "neutral-against-lambda": (f, eta_f, 1, True, True),
        "other-lambda-against-neutral": (const_zero, f, 1, False, False),
        "pair-against-neutral": (eta_p, p, 1, True, False),
        "neutral-against-pair": (p, eta_p, 1, True, False),
        "other-pair-against-neutral": (swapped, p, 1, False, False),
        "pair-against-nat": (eta_p, t.Nat(), 1, False, False),
        "universe-against-pi": (t.Univ(0), nat_to_nat, 0, False, False),
    }


@pytest.mark.parametrize("eta_sigma", [True, False])
@pytest.mark.parametrize("case", sorted(mixed_class_cases()))
def test_conversion_of_mixed_classes_agrees_with_the_match_based_rules(monkeypatch, case, eta_sigma):
    a, b, depth, with_eta, without_eta = mixed_class_cases()[case]
    monkeypatch.setattr(conversion, "eta_sigma", eta_sigma)
    answer = conversion.conv_structural(depth, a, b)
    assert answer == conv_structural(depth, a, b, eta_sigma=eta_sigma)
    assert answer == (with_eta if eta_sigma else without_eta)


# --- checking: a differential test against the match-based rules the
# dispatch tables replaced, kept here verbatim as the reference ---


class MatchChecker(Checker):
    made = 0  # instances, so that a test can see the reference was run

    def __init__(self, glob: Globals):
        super().__init__(glob)
        MatchChecker.made += 1

    def eval_in(self, ctx: Context, term: t.Term) -> v.Value:
        return evaluate(ctx.env, term)

    def conv(self, ctx: Context, a: v.Value, b: v.Value, ty: v.Value | None = None) -> bool:
        return conv(ctx.depth, a, b, ty)


    def infer(self, ctx: Context, term: t.Term) -> v.Value:
        match term:
            case t.Var(index):
                if index >= ctx.depth:
                    self.fail("unbound-variable", f"de Bruijn index {index} out of range")
                return ctx.lookup(index)
            case t.Univ(level):
                if level + 1 > self.glob.config.max_level:
                    self.fail(
                        "level-overflow",
                        f"universe U{level} exceeds max_level {self.glob.config.max_level}",
                    )
                return t.Univ(level + 1)
            case t.Pi(dom, cod) | t.Sigma(dom, cod):
                dom_v, i = self.infer_type(ctx, dom, "domain")
                cod_ctx = ctx.extend("x", dom_v)
                j = self.ensure_universe(cod_ctx, self.infer(cod_ctx, cod), "codomain")
                return t.Univ(max(i, j))
            case t.Lam(_):
                self.fail("cannot-infer", "unannotated function in inference position")
            case t.Pair(_, _):
                self.fail("cannot-infer", "unannotated pair in inference position")
            case t.App(fn, arg):
                fn_ty = whnf(self.infer(ctx, fn))
                if not isinstance(fn_ty, v.VPi):
                    self.fail(
                        "not-a-function",
                        f"application head has type {self.show(ctx, fn_ty)}, expected a function",
                    )
                self.check(ctx, arg, fn_ty.dom)
                return fn_ty.cod(self.eval_in(ctx, arg))
            case t.Fst(pair):
                pair_ty = whnf(self.infer(ctx, pair))
                if not isinstance(pair_ty, v.VSigma):
                    self.fail("not-a-pair", f"fst of a term of type {self.show(ctx, pair_ty)}")
                return pair_ty.fst_ty
            case t.Snd(pair):
                pair_ty = whnf(self.infer(ctx, pair))
                if not isinstance(pair_ty, v.VSigma):
                    self.fail("not-a-pair", f"snd of a term of type {self.show(ctx, pair_ty)}")
                return pair_ty.snd_ty(project_fst(self.eval_in(ctx, pair)))
            case t.Id(ty, lhs, rhs):
                ty_v, level = self.infer_type(ctx, ty, "identity-type carrier")
                self.check(ctx, lhs, ty_v)
                self.check(ctx, rhs, ty_v)
                return t.Univ(level)
            case t.Refl(arg):
                arg_ty = self.infer(ctx, arg)
                arg_v = self.eval_in(ctx, arg)
                return v.VId(arg_ty, arg_v, arg_v)
            case t.J(motive, base, path):
                return self.infer_j(ctx, motive, base, path)
            case t.Nat() | t.Empty() | t.Unit() | t.Two():
                return t.Univ(0)
            case t.Zero():
                return t.Nat()
            case t.Suc(pred):
                self.check(ctx, pred, t.Nat())
                return t.Nat()
            case t.NatElim(motive, base, step, target):
                return self.infer_nat_elim(ctx, motive, base, step, target)
            case t.EmptyElim(motive, target):
                self.check(ctx, target, t.Empty())
                motive_ctx = ctx.extend("e", t.Empty())
                self.infer_type(motive_ctx, motive, "motive")
                cl = v.Closure(ctx.env, motive, 1)
                return cl(self.eval_in(ctx, target))
            case t.Star():
                return t.Unit()
            case t.Bit0() | t.Bit1():
                return t.Two()
            case t.TwoElim(motive, if0, if1, target):
                self.check(ctx, target, t.Two())
                motive_ctx = ctx.extend("b", t.Two())
                self.infer_type(motive_ctx, motive, "motive")
                cl = v.Closure(ctx.env, motive, 1)
                self.check(ctx, if0, cl(t.Bit0()))
                self.check(ctx, if1, cl(t.Bit1()))
                return cl(self.eval_in(ctx, target))
            case t.Ref(name):
                # `Resolver.resolve` has rejected every unknown or rejected name
                return self.glob.entries[name].type_value
            case t.Ann(inner, ty):
                ty_v, _ = self.infer_type(ctx, ty, "annotation")
                self.check(ctx, inner, ty_v)
                return ty_v
            case _:
                self.fail("internal", f"infer: unhandled term {term!r}")

    def infer_j(self, ctx: Context, motive: t.Term, base: t.Term, path: t.Term) -> v.Value:
        path_ty = whnf(self.infer(ctx, path))
        if not isinstance(path_ty, v.VId):
            self.fail("not-a-path", f"J applied to a term of type {self.show(ctx, path_ty)}")
        carrier = path_ty.ty
        x = ctx.extend("x", carrier)
        xy = x.extend("y", carrier)
        xyp = xy.extend("p", v.VId(carrier, v.fresh(ctx.depth), v.fresh(ctx.depth + 1)))
        self.infer_type(xyp, motive, "J motive")
        motive_cl = v.Closure(ctx.env, motive, 3)
        base_ctx = ctx.extend("x", carrier)
        base_var = v.fresh(ctx.depth)
        self.check(base_ctx, base, motive_cl(base_var, base_var, v.VRefl(base_var)))
        return motive_cl(path_ty.lhs, path_ty.rhs, self.eval_in(ctx, path))

    def infer_nat_elim(self, ctx: Context, motive, base, step, target) -> v.Value:
        self.check(ctx, target, t.Nat())
        motive_ctx = ctx.extend("n", t.Nat())
        self.infer_type(motive_ctx, motive, "motive")
        cl = v.Closure(ctx.env, motive, 1)
        self.check(ctx, base, cl(t.Zero()))
        n_var = v.fresh(ctx.depth)
        step_ctx = ctx.extend("n", t.Nat()).extend("ih", cl(n_var))
        self.check(step_ctx, step, cl(v.VSuc(n_var)))
        return cl(self.eval_in(ctx, target))

    # -- checking --

    def check(self, ctx: Context, term: t.Term, expected: v.Value) -> None:
        # Match on the unfolded type but pass `expected` itself to
        # `subtype`, which can compare glued definitions without unfolding.
        match (term, whnf(expected)):
            case (t.Lam(body), v.VPi(dom, cod)):
                inner = ctx.extend("x", dom)
                self.check(inner, body, cod(v.fresh(ctx.depth)))
                return
            case (t.Lam(_), _):
                self.fail(
                    "type-mismatch",
                    f"function literal checked against non-function type {self.show(ctx, expected)}",
                )
            case (t.Pair(fst, snd), v.VSigma(fst_ty, snd_ty)):
                self.check(ctx, fst, fst_ty)
                self.check(ctx, snd, snd_ty(self.eval_in(ctx, fst)))
                return
            case (t.Pair(_, _), _):
                self.fail(
                    "type-mismatch",
                    f"pair literal checked against non-pair type {self.show(ctx, expected)}",
                )
            case (t.Refl(arg), v.VId(ty, lhs, rhs)):
                self.check(ctx, arg, ty)
                arg_v = self.eval_in(ctx, arg)
                if not (self.conv(ctx, arg_v, lhs, ty) and self.conv(ctx, arg_v, rhs, ty)):
                    self.fail(
                        "endpoint-mismatch",
                        "refl endpoints do not match: "
                        f"refl {self.show(ctx, arg_v)} checked against "
                        f"Id {self.show(ctx, lhs)} {self.show(ctx, rhs)}",
                    )
                return
            case _:
                actual = self.infer(ctx, term)
                if not subtype(ctx.depth, actual, expected):
                    self.fail(
                        "type-mismatch",
                        f"expected {self.show(ctx, expected)}, found {self.show(ctx, actual)}",
                    )



# Its message prints the motive's bound variable with the hint of the
# natElim rule: `refl suc n checked against Id n n`.
NAT_ELIM_MOTIVE_HINT = "def bad : Nat := natElim (fun k => Id (Id Nat k k) (refl k) (refl (suc k))) 0 (fun k ih => ih) 0"


def test_checking_agrees_with_the_match_based_rules(monkeypatch):
    """The JSON reports, diagnostics included, equal the reference's on the
    corpus through level 0, synth seed 1, the programs conversion rejects,
    the killer programs and a message naming a motive's variable, each
    under its own `Config`."""
    programs = [
        *((source, Config(eta_sigma=eta)) for source in REJECTED_BY_CONVERSION for eta in (True, False)),
        *((source, config) for source, config, _ in (param.values for param in KILLERS)),
        (synth_program(1), Config()),
        (NAT_ELIM_MOTIVE_HINT, Config()),
    ]

    def reports() -> list:
        run = CorpusRun(prefixes=("prelude/", "generic/", "levels/level0/"))
        checked = [report for _, report in run.files] + [check_one(*program) for program in programs]
        return [without_ms(report) for report in checked]

    table_based = reports()
    made = MatchChecker.made
    monkeypatch.setattr(pipeline, "Checker", MatchChecker)
    assert reports() == table_based
    assert MatchChecker.made - made == len(table_based)  # one checker per file
    diagnostics = [d["diagnostic"] for report in table_based for d in report["declarations"] if "diagnostic" in d]
    assert {d["code"] for d in diagnostics} == {
        "type-mismatch", "endpoint-mismatch", "not-a-function", "not-a-pair", "not-a-path", "cannot-infer"
    }
    assert any("refl suc n checked against Id n n" in d["message"] for d in diagnostics)
