"""Kernel units: evaluation, conversion, bidirectional checking, subtyping."""

import gc
import hashlib
import json
import pathlib
import sys
import threading

import pytest
from conftest import check_one, core_term

from minihott import cli
from minihott import terms as t
from minihott import values as v
from minihott.conversion import conv
from minihott.corpus.manifest import emit_corpus
from minihott.evaluate import KernelBug, evaluate, normalize, quote
from minihott.globals import Config
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


def test_an_unlinked_reference_is_a_kernel_bug():
    with pytest.raises(KernelBug, match="reference to a was never linked"):
        evaluate((), t.Ref("a"))


def test_the_link_of_a_reference_is_not_a_field():
    first, second = t.Ref("a"), t.Ref("a")
    t.Linked.target.__set__(first, v.VZero())
    t.Linked.target.__set__(second, v.VNat())
    assert first == second and hash(first) == hash(second)
    assert repr(first) == repr(second) == "Ref(name='a')"
    with pytest.raises(AttributeError):
        first.target = v.VNat()
    assert evaluate((), first) == v.VZero()


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


def test_eta_for_unit():
    source = (
        "axiom u : Unit\n"
        "goal unitEta : Id Unit u star\n"
        "  := refl star"
    )
    assert check_one(source).ok


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


# Each program is rejected because of the kernel rule its id names: a
# kernel that leaves that rule out of `checker` or `conversion` gives
# another verdict.
@pytest.mark.parametrize(
    "source,config,code",
    [
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
        pytest.param("def bad : Nat := fst (0, 0)", Config(), "cannot-infer", id="inferred-pair"),
        pytest.param("def bad : Nat := fun x => x", Config(), "type-mismatch", id="lambda-against-non-pi"),
        pytest.param("def bad : Nat := (0, 0)", Config(), "type-mismatch", id="pair-against-non-sigma"),
    ],
)
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


def module_containers() -> dict:
    """`len()` of each module-level dict, list and set of the loaded minihott modules."""
    return {
        f"{name}.{attr}": len(value)
        for name, module in list(sys.modules.items())
        if name == "minihott" or name.startswith("minihott.")
        for attr, value in vars(module).items()
        if not attr.startswith("__") and isinstance(value, (dict, list, set))
    }


def test_check_and_normalize_leave_no_process_global_kernel_state(capsys):
    cli._load_kernel()
    before = module_containers()
    path = "corpus/generated/prelude/01-path-algebra.hott"
    assert cli.main(["check", str(ROOT / path)]) == cli.EXIT_OK
    assert cli.main(["normalize", str(ROOT / path), "--name", "transportLoopRefl"]) == cli.EXIT_OK
    after = module_containers()
    grown = sorted(name for name, size in after.items() if size > before.get(name, 0))
    # one shared fresh variable per binder depth, bounded by the deepest binder
    assert set(grown) <= {"minihott.values._FRESH"}, grown


# --- normal forms: a differential test of evaluation, quotation and printing
# against the forms perfbench/expected/normal_forms.json records ---

NORMAL_FORM_FILES = 13  # prelude, generic and level 0: the benchmark's normalize inputs
NORMAL_FORM_MAX_BYTES = 40_000


def test_normal_forms_match_the_recorded_ones():
    manifest = json.loads((ROOT / "corpus" / "generated" / "manifest.json").read_text(encoding="utf-8"))
    paths = [ROOT / "corpus" / "generated" / f["path"] for f in manifest["files"][:NORMAL_FORM_FILES]]
    recorded = json.loads((ROOT / "perfbench" / "expected" / "normal_forms.json").read_text(encoding="utf-8"))
    expected = {
        name: form for name, form in recorded.items() if form is not None and form["bytes"] <= NORMAL_FORM_MAX_BYTES
    }

    def normal_forms():
        reports, glob = check_files((str(path), path.read_text(encoding="utf-8")) for path in paths)
        assert all(report.ok for report in reports)
        forms = {}
        for name in expected:
            text = print_term(quote(0, glob.lookup(name).value)).encode("utf-8")
            forms[name] = {"bytes": len(text), "sha256": hashlib.sha256(text).hexdigest()}
        return forms

    assert run_deep(normal_forms) == expected
