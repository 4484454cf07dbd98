"""Name-resolution and syntax errors against recorded reports.

`data/resolve_errors.json` holds, for each case below, the exit code,
the `--format json check` report without its `ms` fields, and stderr, as
recorded from the resolver that walked a separate surface tree (a case
added later, from the code before the change that added it). The
one-pass parser must give the same bytes: the same first error of each
declaration, with the same message, hint and span, and the same
file-level lex and parse errors.
"""

import json
import pathlib

import pytest
from conftest import without_ms

from minihott.cli import main

DATA = pathlib.Path(__file__).resolve().parent / "data" / "resolve_errors.json"

PRELUDE = "def one : Nat := 1\ndef T : U0 := Nat\naxiom P : Nat -> U0\naxiom void : Empty\n"

# Each eliminator, with the arguments that bind variables replaced in turn
# by a function of one binder too few (or by a non-function), the rest
# well-formed.
ELIM_ARGS = {
    "J": ["(fun x y p => Nat)", "(fun x => zero2)", "(refl one)"],
    "natElim": ["(fun n => Nat)", "one", "(fun k ih => suc ih)", "one"],
    "twoElim": ["(fun b => Nat)", "one", "one", "zero2"],
    "emptyElim": ["(fun e => Nat)", "void"],
}
BINDERS = {
    ("J", 0): 3,
    ("J", 1): 1,
    ("natElim", 0): 1,
    ("natElim", 2): 2,
    ("twoElim", 0): 1,
    ("emptyElim", 0): 1,
}


def short_of_binders(count: int) -> str:
    names = " ".join(f"v{i}" for i in range(count - 1))
    return f"(fun {names} => Nat)" if names else "Nat"


def elim_cases() -> dict:
    cases = {}
    for (head, index), count in BINDERS.items():
        args = list(ELIM_ARGS[head])
        args[index] = short_of_binders(count)
        cases[f"too-few-binders-{head}-{index}"] = f"{head} {' '.join(args)}"
        # The arity error is reported before an unbound name inside the argument.
        args[index] = args[index].replace("Nat)", "zzz)") if count > 1 else "(qqq one)"
        cases[f"too-few-binders-{head}-{index}-hiding-unbound"] = f"{head} {' '.join(args)}"
    return cases


def body_cases() -> dict:
    """Bodies of `def d : Nat := BODY`."""
    return {
        **elim_cases(),
        "unbound-global-no-hint": "zzzqqq",
        "unbound-global-hint": "onee",
        "unbound-constant-hint": "Natt",
        "unbound-local-hint": "(fun alpha => alpah) one",
        "unbound-in-preorder": "f (g h)",
        "unbound-after-local": "(fun f => f (g h)) one",
        "unbound-before-arity-error": "natElim (fun n => Nat) zzz (fun k => k) one",
        "arity-error-before-unbound": "natElim Nat one (fun k ih => ih) yyy",
        "nested-arity-error": "natElim (fun n => Nat) one (fun k ih => twoElim Nat ih ih zero2) one",
        "nested-arity-error-in-arity-error": "natElim (twoElim Nat Nat Nat zero2) one (fun k ih => ih) one",
        "arity-error-span-parens": "natElim ((Nat)) one (fun k ih => ih) one",
        "arity-error-span-annotation": "natElim ((fun n => Nat : Nat -> U0)) one (fun k ih => ih) one",
        "arity-error-span-pi": "natElim ((x : U0) -> Nat) one (fun k ih => ih) one",
        "arity-error-span-sigma": "natElim ((x : U0) * Nat) one (fun k ih => ih) one",
        "arity-error-span-pair": "natElim (Nat, Nat) one (fun k ih => ih) one",
        "arity-error-span-app": "natElim ((fun n => n) Nat) one (fun k ih => ih) one",
        "binders-peeled-from-nested-funs": "natElim (fun n => Nat) one (fun k => fun ih => suc ih) one",
        "binders-peeled-through-parens": "natElim (fun n => Nat) one (fun k => (fun ih => suc ih)) one",
        "binders-left-over": "natElim (fun n m => Nat) one (fun k ih => ih) one",
        "underscore-unbound": "_",
        "numerals": "natElim (fun n => Nat) 0 (fun k ih => suc (suc ih)) 3",
        "numeral-mismatch": "(2 : Two)",
    }


TELESCOPES = {
    # Each further name's type is read one binder deeper.
    "telescope-type-mentions-earlier-binder":
        "def f : (A : U0) -> (x y : A) -> Id A x y := fun A x y => refl x\n",
    "telescope-type-shadowed-by-group": "def f : (x : U0) -> (x y : x) -> U0 := fun x x y => Nat\n",
    "telescope-global-shadowed-by-group": "def g : (T y : T) -> Nat := fun T y => one\n",
    "telescope-unbound-only-at-first-name": "def h : (q w : q) -> Nat := fun q w => one\n",
    "telescope-unbound-hint-from-group":
        "def h : (A : U0) (alpha beta : A) -> Id A alpha betta := fun A a b => refl a\n",
    "telescope-groups":
        "def k : (A : U0) (x : A) (B : A -> U0) -> B x -> B x := fun A x B b => b\n",
    "telescope-sigma": "def s : (A : U0) * A -> A := fun p => snd p\n",
    "telescope-sigma-dependent": "def s : (n : Nat) * Id Nat n n := (one, refl one)\n",
}

DECLARATIONS = {
    "duplicate-name": "def a : Nat := 1\ndef a : Nat := (suc (1))\n",
    "duplicate-of-prelude": "def one : Nat := (2)\n",
    "duplicate-of-rejected-is-accepted": "def b : Nat := star\ndef b : Nat := 1\n",
    "duplicate-before-unbound": "def one : Nat := zzz\n",
    "duplicate-goal": "goal g : Nat := 1\ngoal g : Nat := (2 : Nat)\n",
    "unbound-in-type-first": "def d : Zz -> Nat := Yy\n",
    "unbound-arrow-binder-hint": "def d : Nat -> __ := one\n",
    "underscore-bound-by-arrow": "def u : Nat -> _ := fun n => n\n",
    "underscore-lambda": "def u : Nat -> Nat := fun _ => _\n",
    "annotation-not-binders": "def u : U0 := (x : Nat) (y z) -> Nat\n",
    "reserved-name": "def x1 : Nat := (fun x => x) 1\n",
    "reserved-before-unbound": "axiom x12 : zzz\n",
    # A reserved name comes before every check of the declaration's text.
    "reserved-before-arity-error-and-unbound": "def x3 : Nat := natElim Nat zzz (fun k ih => ih) one\n",
    "reserved-before-unbound-and-arity-error": "def x4 : Nat := natElim (fun n => Nat) zzz (fun k => k) one\n",
    "reserved-goal": "goal x0 : Nat := 1\n",
    "reserved-declared-twice": "def x5 : Nat := 1\ndef x5 : Nat := one\n",
    "reserved-after-duplicate": "def x6 : Nat := star\ndef one : Nat := natElim Nat one (fun k ih => ih) one\n",
    # The type is walked before the body, each in the order its text is read.
    "arity-error-in-type-before-unbound-body": "def e : natElim Nat U0 (fun k ih => U0) one := zzz\n",
    "arity-error-in-type-before-unbound-type": "def e : twoElim Nat U0 U0 zero2 -> zzz := one\n",
    "unbound-in-type-before-arity-error-in-body": "def e : Zz := emptyElim Nat void\n",
    "rejected-earlier": "def bad : Nat := star\ndef c : Nat := suc bad\n",
    "rejected-earlier-hint": "def bad1 : Nat := star\ndef bad2 : Nat := 1\ndef c : Nat := bad1\n",
    "goal-binds-nothing": "goal g : Nat := 1\ndef h : Nat := g\n",
    "axiom-reference": "def e : U0 := P one\ndef f : U0 := P e\n",
}

FILE_ERRORS = {
    # A lex or parse error fails the command, whatever the first file held.
    "lex-error": "def a : Nat := 1 $ 2\n",
    "parse-error-missing-body": "def a : Nat :=\n",
    "parse-error-axiom-body": "axiom a : Nat := 1\n",
    "parse-error-stray": "def a : Nat := 1\n)\n",
    "parse-error-elim-arity": "def a : Nat := natElim (fun n => Nat) 1\n",
    "parse-error-sigma-binders": "def a : U0 := (x y : Nat) * Nat\n",
    "parse-error-binder-group": "def a : U0 := (x : Nat Nat : U0) -> Nat\n",
    "parse-error-binder-name": "def a : Nat -> Nat := fun => 1\n",
    "parse-error-fun-arrow": "def a : Nat -> Nat := fun x -> x\n",
    "parse-error-paren": "def a : Nat := (1 2 =>\n",
    "parse-error-eof-term": "def a : Nat := suc\n",
}


def cases() -> dict:
    """Case name -> [(file name, text)], checked in that order."""
    out = {name: [("a.hott", f"{PRELUDE}def d : Nat := {text}\n")] for name, text in body_cases().items()}
    for group in (TELESCOPES, DECLARATIONS):
        out.update({name: [("a.hott", PRELUDE + text)] for name, text in group.items()})
    out["rejected-in-earlier-file"] = [
        ("a.hott", PRELUDE + "def bad : Nat := star\n"),
        ("b.hott", "def c : Nat := bad\n"),
    ]
    for name, text in FILE_ERRORS.items():
        out[name] = [("a.hott", PRELUDE + "def d : Nat := zzz\n"), ("b.hott", text)]
    return out


def run_case(files, tmp_path, monkeypatch, capsys) -> dict:
    monkeypatch.chdir(tmp_path)
    for name, text in files:
        (tmp_path / name).write_text(text)
    code = main(["--format", "json", "check", *(name for name, _ in files)])
    out = capsys.readouterr()
    report = without_ms(json.loads(out.out)) if out.out else None
    return {"exit": code, "report": report, "stderr": out.err}


RECORDED = json.loads(DATA.read_text())
CASES = cases()


def test_every_case_is_recorded():
    assert sorted(CASES) == sorted(RECORDED)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_recording(name, tmp_path, monkeypatch, capsys):
    assert run_case(CASES[name], tmp_path, monkeypatch, capsys) == RECORDED[name]
