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

Comments start with `--`.  A `--!` comment is a file pragma and a
`--@` comment attaches a free-text tag to the following declaration.

The parser keeps the scope of local binders and builds `terms` nodes as
it goes: `Var(index)` for a bound name and `Ref(name)` for any other.
Which global names exist is known only when a declaration is checked,
since a rejected declaration binds nothing, so each declaration keeps a
list of pending checks for `resolver.Resolver.resolve`: an `SVar` for
each global occurrence, holding the `Ref` to link, and an `SElim` for
each eliminator argument with too few binders, in the order in which a
walk of the declaration's type, then its body, meets them.
"""

from __future__ import annotations

import re

from . import terms as t
from .decls import Declaration
from .diagnostics import CheckFailure, Diagnostic, Span
from .records import record

_CONST_TERMS: dict[str, t.Term] = {
    "Nat": t.Nat(),
    "Empty": t.Empty(),
    "Unit": t.Unit(),
    "Two": t.Two(),
    "star": t.Star(),
    "zero2": t.Bit0(),
    "one2": t.Bit1(),
}

CONSTS = set(_CONST_TERMS)

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

KEYWORDS = DECL_KEYWORDS | {"fun"} | set(ELIMS) | CONSTS

# One match per token. Whitespace and plain `--` comments are skipped by the
# leading part; `bad` takes any other character and `eof` the end, so the
# pattern matches wherever the last match ended and never backtracks into
# the skipped part.
_TOKEN_RE = re.compile(
    r"""
    \s* (?: --(?![!@])[^\n]* \s* )*
    (?:
      (?P<pragma>--!\s*[^\n]*)
    | (?P<srcref>--@\s*[^\n]*)
    | (?P<univ>U[0-9]+\b)
    | (?P<num>[0-9]+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
    | (?P<punct>:=|->|=>|[():,*])
    | (?P<bad>.)
    | (?P<eof>\Z)
    )
    """,
    re.VERBOSE,
)

# A token: (kind, text, start, end). The kind is "ident", "kw", "univ",
# "num", "pragma", "srcref", the punctuation itself, or "eof".
Token = tuple[str, str, int, int]


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        text = m[kind]
        start = m.start(kind)
        if kind == "ident":
            if text in KEYWORDS:
                kind = "kw"
        elif kind == "punct":
            kind = text
        elif kind == "pragma" or kind == "srcref":
            text = text[3:].strip()
        elif kind == "bad":
            raise CheckFailure(
                Diagnostic("lex", f"unexpected character {text!r}", Span(start, start))
            )
        # The token's group ends the pattern, so it ends where the match does.
        append((kind, text, start, m.end()))
        if kind == "eof":  # else `finditer` goes on to an empty match at the end
            break
    return tokens


@record
class SVar:
    """A name the parser did not find among the local binders, as its
    `Ref`: checked and linked when its declaration is."""

    ref: t.Ref
    span: Span
    scope: tuple[str, ...]  # the local names in scope, for the did-you-mean hint


@record
class SElim:
    """An eliminator argument with fewer binders than it must take:
    rejected when its declaration is checked."""

    what: str  # e.g. "the J motive"
    count: int  # the binders it must take
    span: Span


class Module:
    """A parsed file, in source order: its declarations, the pending
    checks of each (see the module docstring) and its `--!` pragmas."""

    __slots__ = ("decls", "pending", "pragmas")

    def __init__(self) -> None:
        self.decls: list[Declaration] = []
        self.pending: list[list[SVar | SElim]] = []
        self.pragmas: list[str] = []


class Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0  # never passes `eof`, the last token
        self.scope: tuple[str, ...] = ()  # bound names, innermost first
        self.pending: list[SVar | SElim] = []  # the current declaration's pending checks
        self.end = 0  # where the span of the term parsed last ends

    # -- token helpers -------------------------------------------------

    def expect(self, kind: str, what: str) -> Token:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            text = tok[1]
            self.fail(f"expected {what}, found {text!r}" if text else f"expected {what}", tok)
        self.pos += 1
        return tok

    def fail(self, message: str, tok: Token) -> None:
        raise CheckFailure(Diagnostic("parse", message, Span(tok[2], tok[3])))

    # -- modules and declarations --------------------------------------

    def parse_module(self) -> Module:
        module = Module()
        source_ref = ""
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            match tok[0]:
                case "eof":
                    return module
                case "pragma":
                    self.pos += 1
                    module.pragmas.append(tok[1])
                case "srcref":
                    self.pos += 1
                    source_ref = tok[1]
                case "kw" if tok[1] in DECL_KEYWORDS:
                    self.parse_decl(module, source_ref)
                    source_ref = ""
                case _:
                    self.fail(f"expected a declaration, found {tok[1]!r}", tok)

    def parse_decl(self, module: Module, source_ref: str) -> None:
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
        module.decls.append(Declaration(kw[1], name, ty, body, Span(kw[2], self.end), source_ref))
        module.pending.append(self.pending)

    # -- terms ---------------------------------------------------------

    def parse_term(self) -> t.Term:
        left = self.parse_times()
        if self.tokens[self.pos][0] == "->":
            self.pos += 1
            return t.Pi(left, self.parse_under(("_",), self.parse_term))
        return left

    def parse_times(self) -> t.Term:
        left = self.parse_app()
        if self.tokens[self.pos][0] == "*":
            self.pos += 1
            return t.Sigma(left, self.parse_under(("_",), self.parse_times))
        return left

    def parse_under(self, names, parse) -> t.Term:
        """Parse with `names` bound, the last innermost."""
        outer = self.scope
        self.scope = tuple(reversed(names)) + outer
        term = parse()
        self.scope = outer
        return term

    def parse_app(self) -> t.Term:
        head = self.parse_atom()
        while self.at_atom():
            head = t.App(head, self.parse_atom())
        return head

    def at_atom(self) -> bool:
        kind, text, _, _ = self.tokens[self.pos]
        return kind in ("ident", "univ", "num", "(") or (kind == "kw" and text not in DECL_KEYWORDS)

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
                self.pending.append(SVar(ref, Span(start, end), scope))
                return ref
            case "univ":
                self.pos += 1
                self.end = end
                return t.Univ(int(text[1:]))
            case "num":
                self.pos += 1
                self.end = end
                return t.nat_literal(int(text))
            case "kw" if text in CONSTS:
                self.pos += 1
                self.end = end
                return _CONST_TERMS[text]
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
                self.fail(f"expected a term, found {text!r}", tok)
                raise AssertionError  # unreachable

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
                self.pending.insert(mark, SElim(what, count, Span(self.span_start(first), self.end)))
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
        if self.telescope_arrow(self.pos) is not None:
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
                self.fail(f"expected ')', ':' or ',', found {tok[1]!r}", tok)
                raise AssertionError  # unreachable

    def parse_pair_tail(self) -> t.Term:
        """After a comma: more elements associate to the right."""
        term = self.parse_term()
        if self.tokens[self.pos][0] == ",":
            self.pos += 1
            return t.Pair(term, self.parse_pair_tail())
        return term

    def telescope_arrow(self, i: int) -> str | None:
        """The `->` or `*` that follows the closing paren of the last group,
        if the tokens from `i` on are binder groups `(x y... : ...`."""
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
                elif k == "eof":
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


def parse_module(source: str) -> Module:
    return Parser(source).parse_module()
