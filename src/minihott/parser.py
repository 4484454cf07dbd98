"""Lexer and one-pass parser from the surface language to core terms.

Grammar sketch (loosest binding first):

    term   ::= times ("->" term)?                      -- right associative
    times  ::= app ("*" times)?                        -- right associative
    app    ::= atom atom*
    atom   ::= IDENT | UNIV | NUM | builtin
             | "fun" IDENT+ "=>" term
             | telescope ("->" term | "*" times)       -- dependent binders
             | "(" term ")" | "(" term ":" term ")" | "(" term "," term ")"

A telescope is one or more groups `(x y : A)`; elimination heads
(`fst`, `snd`, `suc`, `refl`, `Id`, `J`, `natElim`, `twoElim`,
`emptyElim`) consume a fixed number of atoms.

Top level:

    decl ::= ("def" | "axiom" | "goal") IDENT ":" term (":=" term)?

Comments start with `--`.  A `--!` comment is a file pragma, skipped
here; a `--@` comment tags the following declaration with free text.
The text of either is the rest of its line, and may be empty.

The parser keeps the scope of local binders and builds `terms` nodes as
it goes: `Var(index)` for a bound name and `Ref(name)` for any other.
Which global names exist is known only when a declaration is checked,
since a rejected declaration binds nothing, so each declaration keeps a
list of pending checks for `resolver.Resolver.resolve`: an `SVar` for
each global occurrence, holding the `Ref` to link, and a ready
`Diagnostic` for each rejection that the text alone decides: first a
reserved name, then each eliminator argument with too few binders, in
the order in which a walk of the declaration's type, then its body,
meets them.  A syntax error fails the file, worded here alone.

The parser picks the chunks (`chunk_end`) and lexes one at a time with
`tokenize`.  It hands on the declarations it has parsed, with their
pending checks, each time it must lex the next one, so a caller that
checks each batch (`pipeline`) alternates parsing and checking per chunk.
"""

from __future__ import annotations

import re
from typing import NoReturn

from . import terms as t
from .diagnostics import CheckFailure, Diagnostic, Span
from .records import record

# Each constant's keyword and term; the printer reads its keywords here and in `ELIMS`.
CONST_TERMS: dict[str, t.Term] = {
    "Nat": t.NAT,
    "Empty": t.EMPTY,
    "Unit": t.UNIT,
    "Two": t.TWO,
    "star": t.STAR,
    "zero2": t.BIT0,
    "one2": t.BIT1,
}

# Each elimination head's core node and its arguments: None for a plain
# one, or (n, what) for one that must be a function of n binders, which
# the node binds itself.
ELIMS: dict[str, tuple[type, tuple]] = {
    "fst": (t.Fst, (None,)),
    "snd": (t.Snd, (None,)),
    "suc": (t.Suc, (None,)),
    "refl": (t.Refl, (None,)),
    "Id": (t.Id, (None, None, None)),
    "J": (t.J, ((3, "the J motive"), (1, "the J base case"), None)),
    "natElim": (t.NatElim, ((1, "the natElim motive"), None, (2, "the natElim step"), None)),
    "twoElim": (t.TwoElim, ((1, "the twoElim motive"), None, None, None)),
    "emptyElim": (t.EmptyElim, ((1, "the emptyElim motive"), None)),
}

DECL_KEYWORDS = {"def", "axiom", "goal"}
RESERVED_NAME = re.compile(r"^x[0-9]+$")  # the printer's binder names: no declaration may take one

KEYWORDS = DECL_KEYWORDS | {"fun"} | set(ELIMS) | set(CONST_TERMS)

# One match per token, with the whitespace before it: a `--` comment is a
# token too, `.` takes any other character and `\Z` the end.  `U[0-9]+\b`
# comes before identifiers, so `U1'` is `U1` followed by a stray `'`;
# punctuation, the commonest token, is tried first.
_TOKEN_RE = re.compile(r"(\s*)(:=|->|=>|[():,*]|U[0-9]+\b|[A-Za-z_][A-Za-z0-9_']*|[0-9]+|--[^\n]*|.|\Z)")

# The parser lexes this many characters at a time, and on to the end of the
# line (`chunk_end`): a token never spans a newline.  It lexes one such
# chunk whenever its window of tokens needs more.
CHUNK = 4096

# A token: (kind, text, start, end). The kind is "ident", "kw", "univ",
# "num", "pragma", "srcref", the punctuation itself, or "eof".
Token = tuple[str, str, int, int]

# The kind of a token given by its text alone; "" is a chunk's end.
_KINDS = {kw: "kw" for kw in KEYWORDS} | {p: p for p in (":=", "->", "=>", "(", ")", ":", ",", "*")} | {"": ""}
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_NOTES = {"!": "pragma", "@": "srcref"}


def chunk_end(source: str, pos: int) -> int:
    """Where the chunk of `source` that starts at `pos` ends: after the
    first newline at least `CHUNK` characters on, or at the end."""
    return source.find("\n", pos + CHUNK) + 1 or len(source)


def tokenize(source: str, pos: int = 0, stop: int | None = None) -> list[Token]:
    """The tokens of `source[pos:stop]`, by default all of `source`, the
    last one `eof` if `stop` is its end; a character that starts no token
    is a lex error.  `pos` and `stop` are each an end of `source` or just
    after a newline."""
    tokens: list[Token] = []
    append = tokens.append
    kinds = _KINDS.get
    size = len(source)
    stop = size if stop is None else stop
    for space, text in _TOKEN_RE.findall(source, pos, stop):
        start = pos + len(space)
        pos = start + len(text)
        kind = kinds(text)
        if kind is None:
            first = text[0]
            if first in _IDENT_START:
                kind = "univ" if first == "U" and text[1:].isdigit() else "ident"
            elif "0" <= first <= "9":
                kind = "num"
            elif text[:2] == "--":
                kind = _NOTES.get(text[2:3])
                if kind is None:
                    continue
                text = text[3:].strip()
            else:
                raise CheckFailure(Diagnostic("lex", f"unexpected character {text!r}", Span(start, start)))
        elif not kind:  # the end of the range
            break
        append((kind, text, start, pos))
    if stop == size:
        append(("eof", "", size, size))
    return tokens


@record
class SVar:
    """A name the parser did not find among the local binders, as its
    `Ref`: checked and linked when its declaration is."""

    ref: t.Ref
    start: int  # where the name starts in the source
    scope: tuple[str, ...]  # the local names in scope, for the did-you-mean hint


@record
class Declaration:
    """A top-level declaration in core syntax, as only `Parser.parse_decl` makes one."""

    kind: str  # "def" | "axiom" | "goal"
    name: str
    ty: t.Term
    body: t.Term | None  # absent exactly for axioms
    span: Span
    source_ref: str  # free-text lemma tag carried from the surface file


class Module:
    """A parsed file, in source order: its declarations and the pending
    checks of each (see the module docstring)."""

    __slots__ = ("decls", "pending")

    def __init__(self) -> None:
        self.decls: list[Declaration] = []
        self.pending: list[list[SVar | Diagnostic]] = []

    def add(self, decls: list[Declaration], pending: list[list[SVar | Diagnostic]]) -> None:
        """Take a batch of declarations and their pending checks."""
        self.decls += decls
        self.pending += pending


class Parser:
    """Parses a source, lexing it a chunk at a time (`tokenize`) into a
    window of tokens: the current declaration's, on to the keyword that
    starts the next one or `eof`.  Tokens already parsed are dropped at a
    declaration's keyword, when the window needs more.

    No scan reads past `bound`: terms, and so parses, stop at the keyword
    or `eof` that ends a declaration; `telescope_arrow` does too, as a
    group open there fails to parse; `span_start` runs over parsed atoms."""

    def __init__(self, source: str):
        self.source = source
        self.lexed: int | None = 0  # where the next chunk starts; None once `eof` is lexed
        self.tokens: list[Token] = []  # the window
        self.bound = -1  # the index in the window of its last declaration keyword or `eof`
        self.pos = 0  # never passes `bound`
        self.scope: tuple[str, ...] = ()  # bound names, innermost first
        self.pending: list[SVar | Diagnostic] = []  # the current declaration's pending checks
        self.end = 0  # where the span of the term parsed last ends

    # -- token helpers -------------------------------------------------

    def lex_chunk(self) -> None:
        """Lex the next chunk into the window; `tokenize` is read from the
        module, where a tracer may have wrapped it, at every call."""
        source, start = self.source, self.lexed
        stop = chunk_end(source, start)
        tokens = self.tokens
        first = len(tokens)
        tokens += tokenize(source, start, stop)
        self.lexed = None if stop == len(source) else stop
        for i in range(len(tokens) - 1, first - 1, -1):
            kind, text, _, _ = tokens[i]
            if kind == "eof" or (kind == "kw" and text in DECL_KEYWORDS):
                self.bound = i
                return

    def drop(self) -> None:
        """Drop the tokens before `pos`."""
        pos = self.pos
        del self.tokens[:pos]
        self.bound -= pos
        self.pos = 0

    def fill(self) -> None:
        """Lex until the window holds a declaration keyword or `eof` after
        its first token."""
        while self.bound <= 0 and self.lexed is not None:
            self.lex_chunk()

    def expect(self, kind: str, what: str) -> Token:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            self.unexpected(what, tok)
        self.pos += 1
        return tok

    def unexpected(self, what: str, tok: Token) -> NoReturn:
        """Fail at `tok`, naming the text under it (a note as written), or nothing at `eof`."""
        found = f", found {self.source[tok[2] : tok[3]]!r}" if tok[0] != "eof" else ""
        self.fail(f"expected {what}{found}", tok)

    def fail(self, message: str, tok: Token) -> NoReturn:
        raise CheckFailure(Diagnostic("parse", message, Span(tok[2], tok[3])))

    # -- modules and declarations --------------------------------------

    def parse_module(self, emit=None) -> Module:
        """The parsed source.  The declarations parsed before the parser
        must lex its next chunk, and those left at `eof`, go as one batch
        to `emit(decls, pending)`, by default the module's own `add`.  A
        parse error, or any other (one that `emit` raises, too), is raised
        only once the rest of the source is lexed, so that a lex error
        anywhere in it is reported first.  A lex error leaves `lexed` at
        the start of its chunk, so that chunk raises it again here."""
        module = Module()
        try:
            self.parse_decls(module.add if emit is None else emit)
        except Exception:
            while self.lexed is not None:  # the tokens are not kept
                self.tokens.clear()
                self.lex_chunk()
            raise
        return module

    def parse_decls(self, emit) -> None:
        decls: list[Declaration] = []
        pending: list[list[SVar | Diagnostic]] = []
        source_ref = ""
        self.fill()
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            match tok[0]:
                case "eof":
                    self.drop()
                    emit(decls, pending)
                    return
                case "pragma":  # what a file needs, for its readers: no check reads it
                    self.pos += 1
                case "srcref":
                    self.pos += 1
                    source_ref = tok[1]
                case "kw" if tok[1] in DECL_KEYWORDS:
                    if self.bound == self.pos:  # the window ends here: hand on what it held
                        self.drop()
                        emit(decls, pending)
                        decls, pending = [], []
                        self.fill()
                    decls.append(self.parse_decl(source_ref))
                    pending.append(self.pending)
                    source_ref = ""
                case _:
                    self.unexpected("a declaration", tok)

    def parse_decl(self, source_ref: str) -> Declaration:
        kw = self.tokens[self.pos]
        self.pos += 1
        name = self.expect("ident", "a declaration name")[1]
        self.expect(":", "':' after the declaration name")
        self.pending = []
        ty = self.parse_term()
        body = None
        if kw[1] == "axiom":
            tok = self.tokens[self.pos]
            if tok[0] == ":=":
                self.fail("axioms take no body", tok)
        else:
            self.expect(":=", "':=' introducing the body")
            body = self.parse_term()
        span = Span(kw[2], self.end)
        if RESERVED_NAME.match(name):
            message = f"{name!r} is reserved for printer-invented binders"
            self.pending.insert(0, Diagnostic("reserved-name", message, span))
        return Declaration(kw[1], name, ty, body, span, source_ref)

    # -- terms ---------------------------------------------------------

    def parse_term(self) -> t.Term:
        left = self.parse_times()
        if self.tokens[self.pos][0] == "->":
            self.pos += 1
            return t.Pi(left, self.parse_under(("_",), self.parse_term))
        return left

    def parse_times(self) -> t.Term:
        """`times ::= app ("*" times)?`, with the loop of `app` inline: it
        runs after every atom."""
        head = self.parse_atom()
        tokens = self.tokens
        while True:
            kind, text, _, _ = tokens[self.pos]
            if kind in {"ident", "univ", "num", "("} or (kind == "kw" and text not in DECL_KEYWORDS):
                head = t.App(head, self.parse_atom())
            elif kind == "*":
                self.pos += 1
                return t.Sigma(head, self.parse_under(("_",), self.parse_times))
            else:
                return head

    def parse_under(self, names, parse) -> t.Term:
        """Parse with `names` bound, the last innermost."""
        outer = self.scope
        self.scope = tuple(reversed(names)) + outer
        term = parse()
        self.scope = outer
        return term

    def at_atom(self) -> bool:
        kind, text, _, _ = self.tokens[self.pos]
        return kind in {"ident", "univ", "num", "("} or (kind == "kw" and text not in DECL_KEYWORDS)

    def parse_atom(self) -> t.Term:
        tok = self.tokens[self.pos]
        kind, text, start, end = tok
        match kind:
            case "ident":
                self.pos += 1
                self.end = end
                scope = self.scope
                if text in scope:
                    return t.Var(scope.index(text))
                ref = t.Ref(text)
                self.pending.append(SVar(ref, start, scope))
                return ref
            case "univ":
                self.pos += 1
                self.end = end
                return t.Univ(int(text[1:]))
            case "num":
                self.pos += 1
                self.end = end
                return t.nat_literal(int(text))
            case "kw" if text in CONST_TERMS:
                self.pos += 1
                self.end = end
                return CONST_TERMS[text]
            case "kw" if text in ELIMS:
                self.pos += 1
                node, params = ELIMS[text]
                args = []
                for binders in params:
                    if not self.at_atom():
                        message = f"{text} expects {len(params)} argument(s)"
                        self.fail(message, self.tokens[self.pos])
                    arg = self.parse_atom() if binders is None else self.parse_binder_arg(*binders)
                    args.append(arg)
                return node(*args)
            case "kw" if text == "fun":
                return self.parse_fun()
            case "(":
                return self.parse_parenthesized()
            case _:
                self.unexpected("a term", tok)

    def parse_binder_arg(self, count: int, what: str) -> t.Term:
        """An eliminator argument that binds `count` names: a `fun` of at
        least that many binders, perhaps nested, whose body is returned
        with the rest of them still bound by `Lam`s."""
        first, mark = self.pos, len(self.pending)
        term = self.parse_atom()
        body = term
        for _ in range(count):
            if body.__class__ is not t.Lam:
                # Resolution reports this before anything inside the argument.
                message = f"{what} must be a function of {count} argument(s)"
                self.pending.insert(mark, Diagnostic("resolve", message, Span(self.span_start(first), self.end)))
                return term
            body = body.body
        return body

    def parse_fun(self) -> t.Term:
        self.pos += 1
        names = [self.expect("ident", "a binder name")[1]]
        tokens = self.tokens
        while tokens[self.pos][0] == "ident":
            names.append(tokens[self.pos][1])
            self.pos += 1
        self.expect("=>", "'=>' after the binders")
        body = self.parse_under(names, self.parse_term)
        for _ in names:
            body = t.Lam(body)
        return body

    def parse_parenthesized(self) -> t.Term:
        # A telescope's first group starts `(x`: most parentheses fail that test here.
        if self.tokens[self.pos + 1][0] == "ident" and self.telescope_arrow(self.pos) is not None:
            return self.parse_telescope()
        self.pos += 1
        term = self.parse_term()
        tok = self.tokens[self.pos]
        match tok[0]:
            case ")":
                self.pos += 1  # the span of `(t)` is that of `t`
                return term
            case ":":
                self.pos += 1
                ty = self.parse_term()
                self.end = self.expect(")", "')'")[3]
                return t.Ann(term, ty)
            case ",":
                self.pos += 1
                snd = self.parse_pair_tail()
                self.end = self.expect(")", "')'")[3]
                return t.Pair(term, snd)
            case _:
                self.unexpected("')', ':' or ','", tok)

    def parse_pair_tail(self) -> t.Term:
        """After a comma: more elements associate to the right."""
        term = self.parse_term()
        if self.tokens[self.pos][0] == ",":
            self.pos += 1
            return t.Pair(term, self.parse_pair_tail())
        return term

    def telescope_arrow(self, i: int) -> str | None:
        """The `->` or `*` that follows the closing paren of the last group,
        if the tokens from `i` on are binder groups `(x y... : ...`; None
        if a group is still open at a declaration keyword or `eof`."""
        toks = self.tokens
        saw_group = False
        while toks[i][0] == "(" and toks[i + 1][0] == "ident":
            j = i + 1
            while toks[j][0] == "ident":
                j += 1
            if toks[j][0] != ":":
                break
            depth = 0
            while True:
                k = toks[j][0]
                if k == "(":
                    depth += 1
                elif k == ")":
                    if depth == 0:
                        break
                    depth -= 1
                elif k == "eof" or (k == "kw" and toks[j][1] in DECL_KEYWORDS):
                    return None
                j += 1
            saw_group = True
            i = j + 1
        arrow = toks[i][0]
        return arrow if saw_group and arrow in ("->", "*") else None

    def parse_telescope(self) -> t.Term:
        """Binder groups up to the arrow that `telescope_arrow` found: the
        parse of each group's type ends at the paren that closes the group
        there, or fails."""
        tokens = self.tokens
        outer = self.scope
        doms: list[t.Term] = []  # one per binder, each in the scope of those before it
        while tokens[self.pos][0] == "(":
            first = self.pos + 1
            self.pos = first
            while tokens[self.pos][0] == "ident":
                self.pos += 1
            names = [tok[1] for tok in tokens[first : self.pos]]
            ty_pos = self.pos + 1  # after the ":"
            # Each further name's type is the same text one binder deeper,
            # where it may mean something else: parse it again there.
            for name in names:
                self.pos = ty_pos
                doms.append(self.parse_term())
                self.scope = (name,) + self.scope
            self.expect(")", "')' closing the binder group")
        arrow = tokens[self.pos]
        self.pos += 1
        if arrow[0] == "->":
            cod = self.parse_term()
            self.scope = outer
            for dom in reversed(doms):
                cod = t.Pi(dom, cod)
            return cod
        if len(doms) != 1:
            self.fail("a dependent pair type takes a single binder", arrow)
        snd = self.parse_times()
        self.scope = outer
        return t.Sigma(doms[0], snd)

    def span_start(self, i: int) -> int:
        """Where the span of the term that starts at token `i` starts: a
        plain `(t)` has the span of `t`, and a dependent function type
        starts at its first binder name."""
        toks = self.tokens
        while toks[i][0] == "(":
            arrow = self.telescope_arrow(i)
            if arrow == "->":
                return toks[i + 1][2]
            if arrow == "*":
                break
            depth, j = 0, i + 1
            while depth or toks[j][0] not in (")", ":", ","):
                depth += {"(": 1, ")": -1}.get(toks[j][0], 0)
                j += 1
            if toks[j][0] != ")":  # an annotation or a pair
                break
            i += 1
        return toks[i][2]


def parse_module(source: str, emit=None) -> Module:
    """`Parser(source).parse_module(emit)`: see there."""
    return Parser(source).parse_module(emit)
