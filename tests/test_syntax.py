"""Parser, resolver, and printer: units plus the print round-trip."""

import pathlib
import re
import tracemalloc

import pytest
from conftest import (
    FURTHER_DECLS,
    PARSE_THEN_LEX_ERROR,
    STRAY_PAREN,
    UNCLOSED_GROUPS,
    core_term,
    synth_program,
    without_ms,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from minihott import parser, pipeline
from minihott import terms as t
from minihott.diagnostics import CheckFailure, Diagnostic, Span
from minihott.parser import KEYWORDS, parse_module, tokenize
from minihott.pipeline import check_files, run_deep
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
    # A pragma is skipped: one between a tag and its declaration leaves the tag attached.
    for notes in ("--! requires-ua\n--@ some-tag", "--@ some-tag\n--! requires-ua"):
        assert parse_module(notes + "\ndef a : U1 := U0").decls[0].source_ref == "some-tag"


def test_tuple_elements_associate_to_the_right():
    assert core_term("(zero2, one2, star)") == t.Pair(t.Bit0(), t.Pair(t.Bit1(), t.Star()))


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
    from minihott.pipeline import check_files

    [report], _ = check_files([("<input>", "def a : U1 := U0\ndef a : U1 := U0")])
    statuses = [d.status for d in report.declarations]
    assert statuses == ["accepted", "rejected"]
    assert report.declarations[1].diagnostic.code == "duplicate-name"


# --- lexing: differential test against the one-match-per-lexeme lexer ---

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus" / "generated"

_REFERENCE_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<pragma>--![^\S\n]*[^\n]*)
    | (?P<srcref>--@[^\S\n]*[^\n]*)
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
                Diagnostic("lex", f"unexpected character {source[pos]!r}", Span(pos, pos))
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


# A `--!` or `--@` comment with nothing else on its line has empty text and
# ends at its line: the next line is lexed on its own.
BLANK_NOTES = ["--!\n  requires-ua\n", "--@ \t\n\n tag here\n", "--!  ", "--@\n"]


def chunk_edge_sources() -> list[str]:
    """The corpus, synth seed 1 and the lexer fragments, one to a line, so
    that with a small `parser.CHUNK` a chunk ends after every kind of
    token; a fragment that does not lex gets a source of its own."""
    fragments = [f for f in LEX_FRAGMENTS if lex_outcome(reference_tokenize, f).__class__ is list]
    bad = [f for f in LEX_FRAGMENTS if f not in fragments]
    return [
        *(path.read_text() for path in sorted(CORPUS.rglob("*.hott"))),
        synth_program(1),
        "\n".join(fragments),
        " \n".join(fragments),
        *(f"def x\n{f}\nU0" for f in bad),
        *(f"a\n{note}b" for note in BLANK_NOTES),
        *BLANK_NOTES,
    ]


def chunked_tokenize(source: str) -> list[tuple[str, str, int, int]]:
    """`tokenize` called one chunk at a time, as `Parser.lex_chunk` calls it."""
    tokens, pos = [], 0
    while True:
        stop = parser.chunk_end(source, pos)
        tokens += tokenize(source, pos, stop)
        if stop == len(source):
            return tokens
        pos = stop


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_tokenize_matches_reference_across_chunk_edges(monkeypatch, chunk):
    monkeypatch.setattr(parser, "CHUNK", chunk)
    for source in chunk_edge_sources():
        assert lex_outcome(chunked_tokenize, source) == lex_outcome(reference_tokenize, source), source[:80]


# --- parsing on demand: differential test against the whole token list ---


def whole_list_parse(source: str) -> parser.Module:
    """The parser run on all of the source's tokens at once, as before it
    lexed on demand: nothing is lexed or dropped while it parses, and a
    lex error anywhere is raised before parsing starts."""
    tokens = reference_tokenize(source)
    p = parser.Parser(source)
    p.tokens, p.bound, p.lexed = tokens, len(tokens) - 1, None
    return p.parse_module()


def parse_outcome(parse, source: str):
    try:
        module = parse(source)
    except CheckFailure as exc:
        return exc.diagnostic
    return module.decls, module.pending


# Declarations after an unbalanced group, some of them with a stray `)`
# that a scan for the group's end must not reach.
UNBALANCED = [
    "def a : (x : U0 -> x\n" + FURTHER_DECLS,
    "def a : (x : (U0) -> x\n" + FURTHER_DECLS + "axiom b : (y : Nat\n",
    "def a : Nat := natElim (x : U0) (y : Nat\n" + FURTHER_DECLS,
    "def a : Nat := natElim (x : U0) (y : Nat) 0\n" + FURTHER_DECLS,
    *(unclosed + STRAY_PAREN + FURTHER_DECLS for unclosed in UNCLOSED_GROUPS),
]


def truncations() -> list[str]:
    """Every prefix of a few corpus declarations, alone and followed by
    further declarations."""
    source = (CORPUS / "prelude" / "01-path-algebra.hott").read_text()
    decls = ["def " + d for d in source.split("\ndef ")[1:4]]
    return [d[:i] + rest for d in decls for i in range(len(d) + 1) for rest in ("", FURTHER_DECLS[:200])]


# The notes a parse may stop at: a tag and a pragma.
NOTES = ("--@ tag", "--! needs-ua")


def with_notes(source: str) -> list[str]:
    """`source` with a note line before its second declaration, or at its
    end, once for each of `NOTES`."""
    at = source.find("\ndef ")
    at = len(source) if at < 0 else at
    return [f"{source[:at]}\n{note}{source[at:]}" for note in NOTES]


def stopping_sources() -> list[str]:
    """Sources whose parse stops at every kind of token, a note too: the
    truncations and the unbalanced groups, also with a note line before
    the declaration that follows."""
    sources = [*truncations(), *UNBALANCED]
    return [*sources, *(noted for source in sources for noted in with_notes(source)), "def a : Nat\n--@ t\n:= 0"]


@pytest.mark.parametrize("chunk", [1, 7, 64, parser.CHUNK])
def test_parse_matches_the_whole_token_list_across_chunk_edges(monkeypatch, chunk):
    monkeypatch.setattr(parser, "CHUNK", chunk)
    sources = [*chunk_edge_sources(), *LEX_FRAGMENTS, PARSE_THEN_LEX_ERROR, *stopping_sources()]
    for source in sources:
        assert parse_outcome(parse_module, source) == parse_outcome(whole_list_parse, source), source[:80]


@pytest.mark.parametrize("chunk", [1, 7, 64, parser.CHUNK])
def test_a_declarations_parse_does_not_depend_on_what_follows_it(monkeypatch, chunk):
    """A group left open fails its declaration at the keyword of the next
    one, whether or not a later `)` could close it."""
    monkeypatch.setattr(parser, "CHUNK", chunk)
    for unclosed in UNCLOSED_GROUPS:
        source = unclosed + STRAY_PAREN + FURTHER_DECLS
        at = len(unclosed)
        expected = Diagnostic("parse", "expected ')', found 'def'", Span(at, at + 3))
        assert parse_outcome(parse_module, source) == expected
        assert parse_outcome(parse_module, unclosed + STRAY_PAREN.replace(")", "") + FURTHER_DECLS) == expected


@pytest.mark.parametrize("chunk", [1, 7, 64, parser.CHUNK])
def test_a_parse_error_names_the_source_text_where_it_stopped(monkeypatch, chunk):
    """A parse error that says what it expected names the source text
    under its span, a note as written, or nothing when the span starts at
    the end of the file; any other parse error names no token."""
    monkeypatch.setattr(parser, "CHUNK", chunk)
    stops = set()
    for source in stopping_sources():
        outcome = parse_outcome(parse_module, source)
        if outcome.__class__ is not Diagnostic or outcome.code != "parse":
            continue
        expected, found_part, found = outcome.message.partition(", found ")
        if not expected.startswith("expected "):
            assert not found_part, outcome
        elif outcome.span.start == len(source):
            assert not found_part, outcome
            stops.add("eof")
        else:
            assert found == repr(source[outcome.span.start : outcome.span.end]), (source[:80], outcome)
            stops.add(found[1:4] if found.startswith("'--") else "token")
    assert stops == {"eof", "token", *(note[:3] for note in NOTES)}


def test_a_lex_error_after_a_parse_error_is_the_one_reported():
    outcome = parse_outcome(parse_module, PARSE_THEN_LEX_ERROR)
    at = PARSE_THEN_LEX_ERROR.index("$")
    assert outcome == Diagnostic("lex", "unexpected character '$'", Span(at, at))
    assert len(PARSE_THEN_LEX_ERROR) > 2 * parser.CHUNK
    assert parse_outcome(parse_module, PARSE_THEN_LEX_ERROR.replace("$", "0")).code == "parse"


@pytest.mark.parametrize("chunk", [7, parser.CHUNK])
def test_the_parser_lexes_each_token_once_through_the_module(monkeypatch, chunk):
    """`perfbench/traced_cli.py` wraps `parser.tokenize` and counts the
    tokens it returns: a parse must return each token once through it."""
    monkeypatch.setattr(parser, "CHUNK", chunk)
    for source in [*(path.read_text() for path in sorted(CORPUS.rglob("*.hott"))), synth_program(1)]:
        lengths = []
        lex = parser.tokenize

        def traced(*args, **kwargs):
            tokens = lex(*args, **kwargs)
            lengths.append(len(tokens))
            return tokens

        monkeypatch.setattr(parser, "tokenize", traced)
        parse_module(source)
        monkeypatch.setattr(parser, "tokenize", lex)
        assert sum(lengths) == len(tokenize(source))
        assert len(lengths) > 1 or len(source) < chunk


class WindowWatch(parser.Parser):
    """A parser that records the size of its token window and of each
    chunk it lexes."""

    def __init__(self, source: str):
        super().__init__(source)
        self.peak = 0
        self.chunks: list[int] = []

    def lex_chunk(self) -> None:
        before = len(self.tokens)
        super().lex_chunk()
        self.chunks.append(len(self.tokens) - before)
        self.peak = max(self.peak, len(self.tokens))


@pytest.mark.parametrize("chunk", [64, parser.CHUNK])
def test_the_token_window_holds_one_declaration_and_one_chunk(monkeypatch, chunk):
    monkeypatch.setattr(parser, "CHUNK", chunk)
    source = synth_program(1)
    tokens = tokenize(source)
    starts = [i for i, tok in enumerate(tokens) if tok[0] == "kw" and tok[1] in parser.DECL_KEYWORDS]
    largest = max(b - a for a, b in zip(starts, starts[1:] + [len(tokens)]))
    watch = WindowWatch(source)
    assert len(watch.parse_module().decls) == len(starts) == 3000
    assert watch.peak <= largest + max(watch.chunks)
    assert watch.peak < len(tokens) // 20


def test_no_parsed_token_is_held_while_a_batch_is_checked():
    """The parser drops the tokens it has parsed before it hands on the
    declarations made of them: the window then holds only the start of
    the next declaration, as far as it is lexed, or `eof`."""
    source = synth_program(1)
    watch = WindowWatch(source)
    held, parsed = [], []

    def emit(decls, pending):
        held.append([kind for kind, text, _, _ in watch.tokens if kind == "eof" or text in parser.DECL_KEYWORDS])
        parsed.extend(decls)

    watch.parse_module(emit)
    assert len(parsed) == 3000 and len(held) > 1
    assert held == [["kw"]] * (len(held) - 1) + [["eof"]]


# --- checking per lexed chunk ---


def test_reports_do_not_depend_on_where_chunks_end(monkeypatch):
    """The parser hands the pipeline one batch of declarations per lexed
    chunk: where the chunks end must not show in the reports."""
    batches = []

    def counting_parse(source, emit):
        def counting_emit(decls, pending):
            batches.append(len(decls))
            emit(decls, pending)

        return parse_module(source, counting_emit)

    monkeypatch.setattr(pipeline, "parse_module", counting_parse)
    prelude = CORPUS / "prelude"
    runs = [
        [("synth-1.hott", synth_program(1))],
        [(path.name, path.read_text()) for path in (prelude / "01-path-algebra.hott", prelude / "02-pair-paths.hott")],
    ]
    for sources in runs:
        counts, outcomes = [], []
        for chunk in (1, 7, 64, parser.CHUNK):
            monkeypatch.setattr(parser, "CHUNK", chunk)
            batches.clear()
            reports, _ = run_deep(lambda: check_files(sources))
            counts.append(len(batches))
            outcomes.append([without_ms(report) for report in reports])
        assert counts == sorted(counts, reverse=True) and counts[0] > counts[-1], counts
        assert all(other == outcomes[0] for other in outcomes[1:])


def held_while_checking(source: str) -> int:
    """The bytes allocated at the peak of checking `source`, above those
    still allocated once it is checked: the reports and the global
    environment stay, the tokens, terms and pending checks that no value
    needs go."""
    tracemalloc.start()
    try:
        [report], _ = run_deep(lambda: check_files([("synth.hott", source)]))
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.declarations) == source.count("\ndef ")
    return peak - current


def test_memory_held_while_checking_does_not_grow_with_the_parse_tree():
    """Parsing and checking alternate per chunk, so a file's parse tree is
    never held whole: what checking holds above what it keeps must not
    grow with the number of declarations (2.14 MB at 3 000 synth
    declarations, and 1.20 MB at 1 500, when the whole tree was held)."""
    run_deep(lambda: check_files([("warm-up.hott", synth_program(1, 200))]))
    held = {n: held_while_checking(synth_program(1, n)) for n in (1500, 3000)}
    assert held[3000] < 0.6e6, held
    assert held[3000] <= 1.5 * held[1500] + 0.1e6, held


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


def test_printer_renames_a_binder_that_clashes_with_a_context_name():
    # At depth 1 the next invented name is `x1`, which the context already uses.
    assert print_term(t.Lam(t.App(t.Var(0), t.Var(1))), ["x1"]) == "fun x1' => x1' x1"


@pytest.mark.parametrize(
    "term, names, expected",
    [
        # the binder used only under a `J` motive's three binders, a
        # `natElim` step's two, or a `fun`'s one
        (t.Pi(t.Univ(0), t.J(t.Var(3), t.Star(), t.Star())), (), "(x0 : U0) -> J (fun x1 x2 x3 => x0) (fun x1 => star) star"),
        (t.Pi(t.Nat(), t.NatElim(t.Nat(), t.Zero(), t.Var(2), t.Zero())), (), "(x0 : Nat) -> natElim (fun x1 => Nat) 0 (fun x1 x2 => x0) 0"),
        (t.Pi(t.Nat(), t.Lam(t.Var(1))), (), "(x0 : Nat) -> fun x1 => x0"),
        # the nested binders use only their own variables
        (t.Pi(t.Univ(0), t.J(t.Id(t.Var(2), t.Var(1), t.Var(0)), t.Refl(t.Var(0)), t.Star())), (), "U0 -> J (fun x1 x2 x3 => Id x1 x2 x3) (fun x1 => refl x1) star"),
        (t.Pi(t.Nat(), t.NatElim(t.Nat(), t.Zero(), t.Suc(t.Var(0)), t.Zero())), (), "Nat -> natElim (fun x1 => Nat) 0 (fun x1 x2 => suc x2) 0"),
        (t.Pi(t.Nat(), t.Lam(t.Var(0))), (), "Nat -> fun x1 => x1"),
        (t.Pi(t.Nat(), t.Nat()), (), "Nat -> Nat"),
        (t.Sigma(t.Nat(), t.Id(t.Nat(), t.Var(0), t.Zero())), (), "(x0 : Nat) * Id Nat x0 0"),
        (t.Sigma(t.Nat(), t.Nat()), (), "Nat * Nat"),
        # At depth 1 the invented name is `x1`, renamed `x1'` against the
        # context; the use is the renamed binder's, or the context name's.
        (t.Pi(t.Nat(), t.Var(0)), ("x1",), "(x1' : Nat) -> x1'"),
        (t.Pi(t.Nat(), t.Var(1)), ("x1",), "Nat -> x1"),
        (t.Sigma(t.Nat(), t.Pi(t.Var(0), t.Var(2))), ("x1",), "(x1' : Nat) * (x1' -> x1)"),
    ],
)
def test_printer_names_a_quantifier_binder_only_when_its_body_uses_it(term, names, expected):
    assert print_term(term, names) == expected
    assert print_term(term, names).__class__ is str


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


# --- printing: a differential test against the match-based printer the
# class-keyed tables replaced, kept here verbatim as the reference ---

# precedence: 0 arrow, 1 times, 2 application, 3 atom
_ARROW, _TIMES, _APP, _ATOM = 0, 1, 2, 3


def _bind(names: list[str]) -> str:
    name = f"x{len(names)}"
    while name in names:
        name += "'"
    names.append(name)
    return name


def _print(term: t.Term, names: list[str], prec: int) -> str:
    match term:
        case t.Var(index):
            if index < len(names):
                return names[len(names) - 1 - index]
            return f"!{index - len(names)}"  # dangling index; diagnostics only
        case t.Univ(level):
            return f"U{level}"
        case t.Ref(name):
            return name
        case t.Pi(dom, cod):
            x = _bind(names)
            body = _print(cod, names, _ARROW)
            names.pop()
            if _uses_top(cod):
                out = f"({x} : {_print(dom, names, _ARROW)}) -> {body}"
            else:
                out = f"{_print(dom, names, _TIMES)} -> {body}"
            return _wrap(out, prec, _ARROW)
        case t.Sigma(fst_ty, snd_ty):
            x = _bind(names)
            snd = _print(snd_ty, names, _TIMES)
            names.pop()
            if _uses_top(snd_ty):
                out = f"({x} : {_print(fst_ty, names, _ARROW)}) * {snd}"
            else:
                out = f"{_print(fst_ty, names, _APP)} * {snd}"
            return _wrap(out, prec, _TIMES)
        case t.Lam():
            binders = []
            body = term
            while isinstance(body, t.Lam):
                binders.append(_bind(names))
                body = body.body
            out = f"fun {' '.join(binders)} => {_print(body, names, _ARROW)}"
            for _ in binders:
                names.pop()
            return _wrap(out, prec, _ARROW)
        case t.App(fn, arg):
            out = f"{_print(fn, names, _APP)} {_print(arg, names, _ATOM)}"
            return _wrap(out, prec, _APP)
        case t.Pair(fst, snd):
            return f"({_print(fst, names, _ARROW)}, {_print(snd, names, _ARROW)})"
        case t.Ann(inner, ty):
            return f"({_print(inner, names, _ARROW)} : {_print(ty, names, _ARROW)})"
        case t.Fst(pair):
            return _head("fst", [_print(pair, names, _ATOM)], prec)
        case t.Snd(pair):
            return _head("snd", [_print(pair, names, _ATOM)], prec)
        case t.Id(ty, lhs, rhs):
            args = [_print(a, names, _ATOM) for a in (ty, lhs, rhs)]
            return _head("Id", args, prec)
        case t.Refl(arg):
            return _head("refl", [_print(arg, names, _ATOM)], prec)
        case t.J(motive, base, path):
            return _head(
                "J",
                [
                    _print_binder_atom(motive, names, 3),
                    _print_binder_atom(base, names, 1),
                    _print(path, names, _ATOM),
                ],
                prec,
            )
        case t.Suc():
            literal = t.as_nat_literal(term)
            if literal is not None:
                return str(literal)
            assert isinstance(term, t.Suc)
            return _head("suc", [_print(term.pred, names, _ATOM)], prec)
        case t.Zero():
            return "0"
        case t.NatElim(motive, base, step, target):
            return _head(
                "natElim",
                [
                    _print_binder_atom(motive, names, 1),
                    _print(base, names, _ATOM),
                    _print_binder_atom(step, names, 2),
                    _print(target, names, _ATOM),
                ],
                prec,
            )
        case t.TwoElim(motive, if0, if1, target):
            return _head(
                "twoElim",
                [
                    _print_binder_atom(motive, names, 1),
                    _print(if0, names, _ATOM),
                    _print(if1, names, _ATOM),
                    _print(target, names, _ATOM),
                ],
                prec,
            )
        case t.EmptyElim(motive, target):
            return _head(
                "emptyElim",
                [_print_binder_atom(motive, names, 1), _print(target, names, _ATOM)],
                prec,
            )
        case t.Nat():
            return "Nat"
        case t.Empty():
            return "Empty"
        case t.Unit():
            return "Unit"
        case t.Star():
            return "star"
        case t.Two():
            return "Two"
        case t.Bit0():
            return "zero2"
        case t.Bit1():
            return "one2"
        case _:
            raise AssertionError(f"unhandled term {term!r}")


def _print_binder_atom(body: t.Term, names: list[str], count: int) -> str:
    binders = [_bind(names) for _ in range(count)]
    out = f"(fun {' '.join(binders)} => {_print(body, names, _ARROW)})"
    for _ in binders:
        names.pop()
    return out


def _head(keyword: str, args: list[str], prec: int) -> str:
    return _wrap(f"{keyword} {' '.join(args)}", prec, _APP)


def _wrap(out: str, required: int, actual: int) -> str:
    return f"({out})" if required > actual else out


def _uses_top(term: t.Term, depth: int = 0) -> bool:
    """Does a one-binder body refer to its bound variable?

    `depth` counts the binders entered inside the body; under them the
    variable is `Var(depth)`.  A module-level function, not a recursive closure: a closure that
    calls itself is a reference cycle, and checking runs with the cyclic
    garbage collector off.
    """
    match term:
        case t.Var(index):
            return index == depth
        case t.Pi(dom, cod) | t.Sigma(dom, cod):
            return _uses_top(dom, depth) or _uses_top(cod, depth + 1)
        case t.Lam(body_):
            return _uses_top(body_, depth + 1)
        case t.J(motive, base, path):
            return (
                _uses_top(motive, depth + 3)
                or _uses_top(base, depth + 1)
                or _uses_top(path, depth)
            )
        case t.NatElim(motive, base, step, target):
            return (
                _uses_top(motive, depth + 1)
                or _uses_top(base, depth)
                or _uses_top(step, depth + 2)
                or _uses_top(target, depth)
            )
        case t.TwoElim(motive, if0, if1, target):
            return (
                _uses_top(motive, depth + 1)
                or _uses_top(if0, depth)
                or _uses_top(if1, depth)
                or _uses_top(target, depth)
            )
        case t.EmptyElim(motive, target):
            return _uses_top(motive, depth + 1) or _uses_top(target, depth)
        case t.App(fn, arg):
            return _uses_top(fn, depth) or _uses_top(arg, depth)
        case t.Pair(fst, snd):
            return _uses_top(fst, depth) or _uses_top(snd, depth)
        case t.Ann(inner, ty):
            return _uses_top(inner, depth) or _uses_top(ty, depth)
        case t.Fst(p) | t.Snd(p) | t.Refl(p) | t.Suc(p):
            return _uses_top(p, depth)
        case t.Id(ty, lhs, rhs):
            return _uses_top(ty, depth) or _uses_top(lhs, depth) or _uses_top(rhs, depth)
        case _:
            return False


def reference_print(term: t.Term, names=()) -> str:
    return _print(term, list(names), _ARROW)


# `term_strategy`'s nodes plus annotations, references and indices that may
# dangle: the text a diagnostic shows can contain all three.
printable_terms = st.recursive(
    st.one_of(
        leaf_terms(),
        st.builds(t.Var, st.integers(0, 4)),
        st.builds(t.Ref, st.sampled_from(["f", "transport", "x0"])),
    ),
    lambda children: st.one_of(compound_terms(children), st.builds(t.Ann, children, children)),
    max_leaves=25,
)


@settings(max_examples=500, deadline=None)
@given(printable_terms, st.lists(st.sampled_from(["A", "p", "x0", "x1", "x2'"]), max_size=3))
def test_printer_agrees_with_the_match_based_printer(term, names):
    assert print_term(term) == reference_print(term)
    assert print_term(term, names) == reference_print(term, names)


# One of each node, with indices that reach past up to three binders.
SHAPES = [
    *(t.Var(i) for i in range(4)),
    *(t.Star(), t.Zero(), t.nat_literal(2), t.Suc(t.Var(0)), t.Univ(2), t.Ref("f")),
    *(t.Pi(t.Nat(), t.Nat()), t.Pi(t.Nat(), t.Var(0)), t.Sigma(t.Nat(), t.Nat()), t.Sigma(t.Nat(), t.Var(0))),
    *(t.Lam(t.Var(0)), t.App(t.Var(0), t.Star()), t.Pair(t.Star(), t.Var(0)), t.Ann(t.Star(), t.Var(0))),
    *(t.Fst(t.Var(0)), t.Refl(t.Star())),
]


def test_printer_agrees_with_the_match_based_printer_on_every_pair_of_shapes():
    """Each node over each pair of shapes, at the top and as the codomain
    of a `Pi`, whose binder the printer names only if a field uses it."""
    for a in SHAPES:
        for b in SHAPES:
            nodes = [
                *(t.Pi(a, b), t.Sigma(a, b), t.Lam(t.App(a, b)), t.App(a, b), t.Pair(a, b), t.Ann(a, b)),
                *(t.Fst(a), t.Snd(a), t.Refl(a), t.Suc(a), t.Id(a, b, a), t.J(a, b, a)),
                *(t.NatElim(a, b, a, b), t.TwoElim(a, b, b, a), t.EmptyElim(a, b)),
            ]
            for term in nodes:
                for shown in (term, t.Pi(t.Nat(), term)):
                    assert print_term(shown) == reference_print(shown), shown
            assert print_term(a, ["x1", "p"]) == reference_print(a, ["x1", "p"])
