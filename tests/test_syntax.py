"""Parser, resolver, and printer: units plus the print round-trip."""

import pathlib
import re

import pytest
from conftest import core_term
from hypothesis import given, settings
from hypothesis import strategies as st

from minihott import terms as t
from minihott.diagnostics import CheckFailure, Diagnostic, Span
from minihott.parser import KEYWORDS, parse_module, tokenize
from minihott.printer import print_term


# --- parsing ---


def test_parse_single_def():
    module = parse_module("def id2 : Two -> Two := fun x => x")
    assert [d.kind for d in module.decls] == ["def"]
    assert module.decls[0].name == "id2"


def test_parse_axiom_has_no_body():
    module = parse_module("axiom someAxiom : (A : U0) -> A -> A")
    assert module.decls[0].kind == "axiom"
    assert module.decls[0].body is None


def test_parse_missing_body_is_a_spanned_error():
    source = "def x : Unit :="
    with pytest.raises(CheckFailure) as exc:
        parse_module(source)
    span = exc.value.diagnostic.span
    assert 0 <= span.start <= span.end <= len(source)


def test_parse_stray_token_is_an_error():
    with pytest.raises(CheckFailure):
        parse_module("def x : Unit := star\n)")


def test_parse_is_deterministic():
    source = "def a : U0 := Two\n\ndef b : Nat := 3\n"
    first = parse_module(source)
    second = parse_module(source)
    assert [(d.kind, d.name) for d in first.decls] == [(d.kind, d.name) for d in second.decls]


def test_pragmas_and_source_refs_are_collected():
    module = parse_module("--! requires-ua\n--@ some-tag\ndef a : U1 := U0")
    assert module.pragmas == ["requires-ua"]
    assert module.decls[0].source_ref == "some-tag"


def test_numeral_desugars_to_successor_chain():
    body = core_term("3")
    assert body == t.Suc(t.Suc(t.Suc(t.Zero())))


# --- resolution ---


def test_resolve_identity():
    assert core_term("fun x => x") == t.Lam(t.Var(0))


def test_resolve_constant_combinator():
    assert core_term("fun x => fun y => x") == t.Lam(t.Lam(t.Var(1)))


def test_resolve_unbound_identifier():
    with pytest.raises(CheckFailure) as exc:
        core_term("swap2")
    assert exc.value.diagnostic.code == "resolve"
    assert "swap2" in exc.value.diagnostic.message


def test_duplicate_toplevel_name_rejected():
    from minihott.globals import Globals
    from minihott.pipeline import check_source

    result = check_source("def a : U1 := U0\ndef a : U1 := U0", Globals())
    statuses = [d.status for d in result.report.declarations]
    assert statuses == ["accepted", "rejected"]
    assert result.report.declarations[1].diagnostic.code == "duplicate-name"


# --- lexing: differential test against the one-match-per-lexeme lexer ---

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus" / "generated"

_REFERENCE_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<pragma>--!\s*[^\n]*)
    | (?P<srcref>--@\s*[^\n]*)
    | (?P<comment>--[^\n]*)
    | (?P<univ>U[0-9]+\b)
    | (?P<num>[0-9]+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
    | (?P<assign>:=)
    | (?P<arrow>->)
    | (?P<darrow>=>)
    | (?P<punct>[():,*])
    """,
    re.VERBOSE,
)


def reference_tokenize(source: str) -> list[tuple[str, str, int, int]]:
    """The earlier lexer: one match per run of whitespace, per comment and
    per token. `tokenize` must give the same (kind, text, start, end)
    tuples."""
    tokens = []
    pos = 0
    while pos < len(source):
        m = _REFERENCE_TOKEN_RE.match(source, pos)
        if m is None:
            raise CheckFailure(
                Diagnostic("error", "lex", f"unexpected character {source[pos]!r}", Span(pos, pos))
            )
        span = (m.start(), m.end())
        kind = m.lastgroup
        text = m.group()
        pos = m.end()
        match kind:
            case "ws" | "comment":
                continue
            case "pragma" | "srcref":
                tokens.append((kind, text[3:].strip(), *span))
            case "univ" | "num":
                tokens.append((kind, text, *span))
            case "ident":
                tokens.append(("kw" if text in KEYWORDS else "ident", text, *span))
            case _:
                tokens.append((text, text, *span))
    tokens.append(("eof", "", len(source), len(source)))
    return tokens


def lex_outcome(lex, source: str):
    try:
        return lex(source)
    except CheckFailure as exc:
        return exc.diagnostic


def test_tokenize_matches_reference_on_the_corpus():
    paths = sorted(CORPUS.rglob("*.hott"))
    assert len(paths) == 18
    for path in paths:
        source = path.read_text(encoding="utf-8")
        assert tokenize(source) == reference_tokenize(source), path


LEX_FRAGMENTS = [
    *("def", "fun", "J", "x", "x'", "_a1", "U0", "U12", "U1x", "U", "0", "42"),
    *(":=", "->", "=>", "(", ")", ":", ",", "*", "=", ">"),
    *(" ", "\t", "\n", " \n\t ", "\r\n", "\u00a0"),
    *("--", "-- note", "---", "-->", "--!", "--! requires-ua", "--@", "--@ tag"),
    *("$", "#", "!", "-", "@", "é"),
]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(st.sampled_from(LEX_FRAGMENTS), st.text(" \n-!@$#éU0:=>()", max_size=6)),
        max_size=40,
    ).map("".join)
)
def test_tokenize_matches_reference_on_fragments(source):
    assert lex_outcome(tokenize, source) == lex_outcome(reference_tokenize, source)


# --- printing: round trip ---


def roundtrip(term: t.Term) -> t.Term:
    return core_term(print_term(term))


def leaf_terms():
    return st.sampled_from(
        [
            t.Var(0),
            t.Univ(0),
            t.Univ(3),
            t.Nat(),
            t.Zero(),
            t.Empty(),
            t.Unit(),
            t.Star(),
            t.Two(),
            t.Bit0(),
            t.Bit1(),
        ]
    )


def compound_terms(children):
    return st.one_of(
        st.builds(t.Lam, children),
        st.builds(t.App, children, children),
        st.builds(t.Pi, children, children),
        st.builds(t.Sigma, children, children),
        st.builds(t.Pair, children, children),
        st.builds(t.Fst, children),
        st.builds(t.Snd, children),
        st.builds(t.Id, children, children, children),
        st.builds(t.Refl, children),
        st.builds(t.Suc, children),
        st.builds(t.J, children, children, children),
        st.builds(t.NatElim, children, children, children, children),
        st.builds(t.TwoElim, children, children, children, children),
        st.builds(t.EmptyElim, children, children),
    )


term_strategy = st.recursive(leaf_terms(), compound_terms, max_leaves=25)


def close_term(term: t.Term, depth: int = 0) -> t.Term:
    """Clamp free de Bruijn indices so the generated term is well-scoped."""
    match term:
        case t.Var(index):
            return t.Var(index % depth) if depth else t.Univ(0)
        case t.Lam(body):
            return t.Lam(close_term(body, depth + 1))
        case t.Pi(dom, cod):
            return t.Pi(close_term(dom, depth), close_term(cod, depth + 1))
        case t.Sigma(fst_ty, snd_ty):
            return t.Sigma(close_term(fst_ty, depth), close_term(snd_ty, depth + 1))
        case t.J(motive, base, path):
            return t.J(close_term(motive, depth + 3), close_term(base, depth + 1), close_term(path, depth))
        case t.NatElim(motive, base, step, target):
            return t.NatElim(
                close_term(motive, depth + 1),
                close_term(base, depth),
                close_term(step, depth + 2),
                close_term(target, depth),
            )
        case t.TwoElim(motive, if0, if1, target):
            return t.TwoElim(
                close_term(motive, depth + 1),
                close_term(if0, depth),
                close_term(if1, depth),
                close_term(target, depth),
            )
        case t.EmptyElim(motive, target):
            return t.EmptyElim(close_term(motive, depth + 1), close_term(target, depth))
        case t.App(fn, arg):
            return t.App(close_term(fn, depth), close_term(arg, depth))
        case t.Pair(fst, snd):
            return t.Pair(close_term(fst, depth), close_term(snd, depth))
        case t.Fst(pair):
            return t.Fst(close_term(pair, depth))
        case t.Snd(pair):
            return t.Snd(close_term(pair, depth))
        case t.Id(ty, lhs, rhs):
            return t.Id(close_term(ty, depth), close_term(lhs, depth), close_term(rhs, depth))
        case t.Refl(arg):
            return t.Refl(close_term(arg, depth))
        case t.Suc(pred):
            return t.Suc(close_term(pred, depth))
        case _:
            return term


@settings(max_examples=300, deadline=None)
@given(term_strategy)
def test_print_round_trip(raw):
    term = close_term(raw)
    assert roundtrip(term) == term


def test_print_round_trip_fixed_cases():
    cases = [
        t.Lam(t.Var(0)),
        t.Univ(0),
        t.App(t.Lam(t.Var(0)), t.Refl(t.Two())),
        t.Pi(t.Two(), t.Pi(t.Var(0), t.Var(1))),
        t.Sigma(t.Univ(0), t.Id(t.Univ(0), t.Var(0), t.Var(0))),
        t.Pair(t.Bit0(), t.Pair(t.Bit1(), t.Star())),
    ]
    for term in cases:
        assert roundtrip(term) == term
