"""Randomized kernel properties over generated well-typed terms, plus
corpus-level determinism and cumulativity-monotonicity checks."""

import json
import re

from conftest import core_term, without_ms
from hypothesis import given, settings
from hypothesis import strategies as st

from minihott import terms as t
from minihott import values as v
from minihott.conversion import conv
from minihott.corpus.manifest import emit_corpus
from minihott.evaluate import evaluate, normalize
from minihott.pipeline import check_files, run_deep

# --- a generator of well-typed closed terms (surface text) ---
#
# Types are tuples: ("Nat",) | ("Two",) | ("Unit",) | ("fun", a, b) | ("pair", a, b).

BASE_TYPES = [("Nat",), ("Two",), ("Unit",)]


def type_strategy(depth: int = 2):
    if depth == 0:
        return st.sampled_from(BASE_TYPES)
    inner = type_strategy(depth - 1)
    return st.one_of(
        st.sampled_from(BASE_TYPES),
        st.tuples(st.just("fun"), inner, inner),
        st.tuples(st.just("pair"), inner, inner),
    )


def type_text(ty) -> str:
    match ty:
        case ("fun", a, b):
            return f"({type_text(a)} -> {type_text(b)})"
        case ("pair", a, b):
            return f"({type_text(a)} * {type_text(b)})"
        case (name,):
            return name


@st.composite
def typed_term(draw, ty=None, ctx=None, depth=3):
    """A surface term of type `ty` using only closed, axiom-free syntax."""
    if ty is None:
        ty = draw(type_strategy())
    ctx = ctx or []
    candidates = [name for name, t2 in ctx if t2 == ty]
    if candidates and draw(st.booleans()):
        return draw(st.sampled_from(candidates))
    if depth > 0 and draw(st.integers(0, 4)) == 0:
        # eliminate: case split on a boolean, or apply a fresh function
        if draw(st.booleans()):
            scrutinee = draw(typed_term(ty=("Two",), ctx=ctx, depth=depth - 1))
            left = draw(typed_term(ty=ty, ctx=ctx, depth=depth - 1))
            right = draw(typed_term(ty=ty, ctx=ctx, depth=depth - 1))
            return (
                f"(twoElim (fun b => {type_text(ty)}) {left} {right} {scrutinee})"
            )
        arg_ty = draw(type_strategy(1))
        fn_ty = ("fun", arg_ty, ty)
        fn = draw(typed_term(ty=fn_ty, ctx=ctx, depth=depth - 1))
        arg = draw(typed_term(ty=arg_ty, ctx=ctx, depth=depth - 1))
        # annotate the head: a literal lambda is not inferable
        return f"(({fn} : {type_text(fn_ty)}) {arg})"
    match ty:
        case ("Nat",):
            return str(draw(st.integers(0, 4)))
        case ("Two",):
            return draw(st.sampled_from(["zero2", "one2"]))
        case ("Unit",):
            return "star"
        case ("fun", a, b):
            name = f"v{len(ctx)}"
            body = draw(typed_term(ty=b, ctx=ctx + [(name, a)], depth=depth - 1))
            return f"(fun {name} => {body})"
        case ("pair", a, b):
            left = draw(typed_term(ty=a, ctx=ctx, depth=depth - 1))
            right = draw(typed_term(ty=b, ctx=ctx, depth=depth - 1))
            return f"({left}, {right})"


@st.composite
def annotated_term(draw):
    ty = draw(type_strategy())
    text = draw(typed_term(ty=ty))
    return ty, text


def eval_text(text: str) -> v.Value:
    term = core_term(text)
    return evaluate((), term), term


@settings(max_examples=150, deadline=None)
@given(annotated_term())
def test_generated_terms_check(case):
    ty, text = case
    [report], _ = check_files([("<input>", f"def tmp : {type_text(ty)}\n  := {text}")])
    assert report.ok, report.declarations[0].diagnostic


@settings(max_examples=150, deadline=None)
@given(annotated_term())
def test_normalization_idempotent(case):
    _, text = case
    _, term = eval_text(text)
    once = normalize((), term)
    assert normalize((), once) == once


@settings(max_examples=100, deadline=None)
@given(annotated_term())
def test_canonicity_axiom_free(case):
    """Closed axiom-free terms at first-order types normalize to
    constructor-headed values."""
    ty, text = case
    value, _ = eval_text(text)
    assert constructor_headed(value, ty)


def constructor_headed(value: v.Value, ty) -> bool:
    match ty:
        case ("Nat",):
            while isinstance(value, v.VSuc):
                value = value.pred
            return isinstance(value, t.Zero)
        case ("Two",):
            return isinstance(value, (t.Bit0, t.Bit1))
        case ("Unit",):
            return isinstance(value, t.Star)
        case ("fun", _, _):
            return isinstance(value, v.VLam)
        case ("pair", a, b):
            return (
                isinstance(value, v.VPair)
                and constructor_headed(value.fst, a)
                and constructor_headed(value.snd, b)
            )


@settings(max_examples=100, deadline=None)
@given(typed_term(ty=("fun", ("Nat",), ("Two",))))
def test_eta_expansion_convertible(text):
    """λx. f x is convertible with f for sampled functions f."""
    f_value, _ = eval_text(text)
    eta_value, _ = eval_text(f"(fun etaArg => {text} etaArg)")
    assert conv(0, eta_value, f_value)


# --- corpus-level properties ---


def _report_fingerprint(reports) -> bytes:
    """Serialized reports with the timing fields removed (the determinism
    contract is modulo wall time)."""
    payload = [without_ms(report) for report in reports]
    return json.dumps(payload, ensure_ascii=False, sort_keys=True).encode()


def _check_all(sources) -> list:
    return run_deep(lambda: check_files(sources)[0])


def _fast_slice():
    """Prelude, generic machinery and the first level: the sub-corpus that
    checks in well under a second."""
    return [
        (f.relpath, f.render())
        for f in emit_corpus(0)
    ]


def test_checking_determinism_three_runs():
    fingerprints = {_report_fingerprint(_check_all(_fast_slice())) for _ in range(3)}
    assert len(fingerprints) == 1


def test_cumulativity_monotone_on_corpus_slice():
    """Raising every universe index by one preserves acceptance."""
    raised = [
        (path, re.sub(r"\bU(\d)\b", lambda m: f"U{int(m.group(1)) + 1}", text))
        for path, text in _fast_slice()
    ]
    reports = _check_all(raised)
    rejected = [
        (r.file, d.name) for r in reports for d in r.declarations if d.status == "rejected"
    ]
    assert rejected == []
