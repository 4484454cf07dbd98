"""Kernel units: evaluation, conversion, bidirectional checking, subtyping."""

import gc
import sys
import threading

import pytest
from conftest import check_one

from minihott import values as v
from minihott.conversion import conv
from minihott.corpus.manifest import emit_corpus
from minihott.evaluate import evaluate, normalize, quote
from minihott.globals import Config, Globals
from minihott.parser import parse_module
from minihott.pipeline import check_source, run_deep
from minihott.printer import print_term
from minihott.resolver import Resolver

ADD_SOURCE = """
def add : Nat -> Nat -> Nat
  := fun n m => natElim (fun k => Nat) n (fun k ih => suc ih) m
"""

SWAP_SOURCE = """
def swap : Two -> Two
  := fun b => twoElim (fun x => Two) one2 zero2 b
"""


def eval_term(source_term: str, prelude: str = "") -> tuple:
    """Evaluate a standalone term after checking `prelude`; returns (glob, value)."""
    glob = Globals(Config())
    if prelude:
        result = check_source(prelude, glob)
        assert result.ok
    module = parse_module(f"def tmp : U0 := {source_term}")
    term = Resolver(glob.names()).resolve((), module.decls[0].body)
    return glob, evaluate(glob, (), term)


def normal_text(source_term: str, prelude: str = "") -> str:
    glob, value = eval_term(source_term, prelude)
    return print_term(quote(0, value))


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
    glob, value = eval_term("opaque Two", "axiom opaque : U0 -> U0")
    assert isinstance(value, v.VNeutral)
    assert value.head == v.VAxiom("opaque")


def test_normalize_is_idempotent_on_samples():
    samples = [
        "(fun x => x) Two",
        "fst (star, one2)",
        "add 1 2",
        "fun f => fun x => f (f x)",
    ]
    glob = Globals(Config())
    assert check_source(ADD_SOURCE, glob).ok
    resolver = Resolver(glob.names())
    for text in samples:
        module = parse_module(f"def tmp : U0 := {text}")
        term = resolver.resolve((), module.decls[0].body)
        once = normalize(glob, (), term)
        assert normalize(glob, (), once) == once


# --- conversion ---


def test_eta_for_functions():
    glob = Globals(Config())
    assert check_source("axiom f : Nat -> Nat", glob).ok
    module = parse_module("def tmp : U0 := (fun x => f x, f)")
    pair = Resolver(glob.names()).resolve((), module.decls[0].body)
    value = evaluate(glob, (), pair)
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
    assert result.report.declarations[-1].status == "rejected"


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
    statuses = [d.status for d in check_one(source).report.declarations]
    assert statuses == ["accepted", "accepted", "rejected"]


def test_refl_endpoint_mismatch():
    result = check_one("goal bad : Id Two zero2 one2 := refl zero2")
    assert result.report.declarations[-1].status == "rejected"
    assert result.report.declarations[-1].diagnostic.code == "endpoint-mismatch"


# --- universes and subtyping ---


def test_universe_infers_next_level():
    assert check_one("def a : U1 := U0").ok


def test_no_type_in_type():
    assert not check_one("def a : U0 := U0").ok


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
    assert overflow.report.declarations[0].diagnostic.code == "level-overflow"


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
    statuses = [d.status for d in result.report.declarations]
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
    prelude = [f.render() for f in emit_corpus(2) if f.relpath.startswith("prelude/")]

    def work():
        glob = Globals(Config())
        for source in prelude:
            assert check_source(source, glob).ok
        result = check_source(REJECTIONS_SOURCE, glob)
        diagnostics = [d.diagnostic for d in result.report.declarations]
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
