"""Lexer and recursive-descent parser for the surface language.

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
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .diagnostics import CheckFailure, Diagnostic, Span
from .surface import (
    SAnn,
    SApp,
    SConst,
    SDecl,
    SElim,
    SLam,
    SModule,
    SNatLit,
    SPair,
    SPi,
    SSigma,
    STerm,
    SUniv,
    SVar,
)

ELIM_ARITY = {
    "fst": 1,
    "snd": 1,
    "suc": 1,
    "refl": 1,
    "Id": 3,
    "J": 3,
    "natElim": 4,
    "twoElim": 4,
    "emptyElim": 2,
}

CONSTS = {"Nat", "Empty", "Unit", "Two", "star", "zero2", "one2"}

KEYWORDS = {"def", "axiom", "goal", "fun"} | set(ELIM_ARITY) | CONSTS

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


class Token(NamedTuple):
    kind: str  # "ident" | "kw" | "univ" | "num" | "pragma" | "srcref" | literal punct | "eof"
    text: str
    span: Span


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
                Diagnostic("error", "lex", f"unexpected character {text!r}", Span.point(start))
            )
        append(Token(kind, text, Span(start, m.end())))
        if kind == "eof":  # else `finditer` goes on to an empty match at the end
            break
    return tokens


class Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0

    # -- token helpers -------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        if offset == 0:  # the cursor never passes `eof`, the last token
            return self.tokens[self.pos]
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> Token:
        t = self.peek()
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, kind: str, what: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            self.fail(f"expected {what}, found {t.text!r}" if t.text else f"expected {what}", t.span)
        return self.next()

    def fail(self, message: str, span: Span) -> None:
        raise CheckFailure(Diagnostic("error", "parse", message, span))

    # -- modules and declarations --------------------------------------

    def parse_module(self) -> SModule:
        module = SModule()
        source_ref = ""
        while True:
            t = self.peek()
            match t.kind:
                case "eof":
                    return module
                case "pragma":
                    self.next()
                    module.pragmas.append(t.text)
                case "srcref":
                    self.next()
                    source_ref = t.text
                case "kw" if t.text in ("def", "axiom", "goal"):
                    module.decls.append(self.parse_decl(source_ref))
                    source_ref = ""
                case _:
                    self.fail(f"expected a declaration, found {t.text!r}", t.span)

    def parse_decl(self, source_ref: str) -> SDecl:
        kw = self.next()
        name = self.expect("ident", "a declaration name")
        self.expect(":", "':' after the declaration name")
        ty = self.parse_term()
        body: STerm | None = None
        end = ty
        if kw.text == "axiom":
            if self.peek().kind == ":=":
                self.fail("axioms take no body", self.peek().span)
        else:
            self.expect(":=", "':=' introducing the body")
            body = self.parse_term()
            end = body
        return SDecl(kw.text, name.text, ty, body, kw.span.merge(end.span), source_ref)

    # -- terms ---------------------------------------------------------

    def parse_term(self) -> STerm:
        left = self.parse_times()
        if self.peek().kind == "->":
            self.next()
            cod = self.parse_term()
            return SPi(None, left, cod, left.span.merge(cod.span))
        return left

    def parse_times(self) -> STerm:
        left = self.parse_app()
        if self.peek().kind == "*":
            self.next()
            snd = self.parse_times()
            return SSigma(None, left, snd, left.span.merge(snd.span))
        return left

    def parse_app(self) -> STerm:
        head = self.parse_atom()
        while self.at_atom():
            arg = self.parse_atom()
            head = SApp(head, arg, head.span.merge(arg.span))
        return head

    def at_atom(self) -> bool:
        t = self.peek()
        return (
            t.kind in ("ident", "univ", "num", "(")
            or (t.kind == "kw" and t.text not in ("def", "axiom", "goal"))
        )

    def parse_atom(self) -> STerm:
        t = self.peek()
        match t.kind:
            case "ident":
                self.next()
                return SVar(t.text, t.span)
            case "univ":
                self.next()
                return SUniv(int(t.text[1:]), t.span)
            case "num":
                self.next()
                return SNatLit(int(t.text), t.span)
            case "kw" if t.text in CONSTS:
                self.next()
                return SConst(t.text, t.span)
            case "kw" if t.text in ELIM_ARITY:
                self.next()
                args = []
                for _ in range(ELIM_ARITY[t.text]):
                    if not self.at_atom():
                        self.fail(
                            f"{t.text} expects {ELIM_ARITY[t.text]} argument(s)", self.peek().span
                        )
                    args.append(self.parse_atom())
                return SElim(t.text, tuple(args), t.span.merge(args[-1].span))
            case "kw" if t.text == "fun":
                return self.parse_fun()
            case "(":
                return self.parse_parenthesized()
            case _:
                self.fail(f"expected a term, found {t.text!r}", t.span)
                raise AssertionError  # unreachable

    def parse_fun(self) -> STerm:
        kw = self.next()
        names = [self.expect("ident", "a binder name").text]
        while self.peek().kind == "ident":
            names.append(self.next().text)
        self.expect("=>", "'=>' after the binders")
        body = self.parse_term()
        return SLam(tuple(names), body, kw.span.merge(body.span))

    def parse_parenthesized(self) -> STerm:
        if self._at_telescope():
            return self.parse_telescope()
        open_ = self.expect("(", "'('")
        term = self.parse_term()
        t = self.peek()
        match t.kind:
            case ")":
                self.next()
                return term
            case ":":
                self.next()
                ty = self.parse_term()
                close = self.expect(")", "')'")
                return SAnn(term, ty, open_.span.merge(close.span))
            case ",":
                self.next()
                snd = self.parse_pair_tail()
                close = self.expect(")", "')'")
                return SPair(term, snd, open_.span.merge(close.span))
            case _:
                self.fail(f"expected ')', ':' or ',', found {t.text!r}", t.span)
                raise AssertionError  # unreachable

    def parse_pair_tail(self) -> STerm:
        """After a comma: more elements associate to the right."""
        term = self.parse_term()
        if self.peek().kind == ",":
            self.next()
            snd = self.parse_pair_tail()
            return SPair(term, snd, term.span.merge(snd.span))
        return term

    def _at_telescope(self) -> bool:
        """Detect `(x y... : ...` followed (after the closing paren of the
        last group) by `->` or `*` without committing the cursor."""
        i = self.pos
        toks = self.tokens
        saw_group = False
        while toks[i].kind == "(" and toks[i + 1].kind == "ident":
            j = i + 1
            while toks[j].kind == "ident":
                j += 1
            if toks[j].kind != ":":
                break
            depth = 0
            while True:
                k = toks[j].kind
                if k == "(":
                    depth += 1
                elif k == ")":
                    if depth == 0:
                        break
                    depth -= 1
                elif k == "eof":
                    return False
                j += 1
            saw_group = True
            i = j + 1
        return saw_group and toks[i].kind in ("->", "*")

    def parse_telescope(self) -> STerm:
        groups: list[tuple[list[Token], STerm]] = []
        start = self.peek().span
        while self.peek().kind == "(" and self.peek(1).kind == "ident":
            mark = self.pos
            self.next()
            names = [self.next()]
            while self.peek().kind == "ident":
                names.append(self.next())
            if self.peek().kind != ":":
                self.pos = mark
                break
            self.next()
            ty = self.parse_term()
            self.expect(")", "')' closing the binder group")
            groups.append((names, ty))
            if self.peek().kind in ("->", "*"):
                break
        arrow = self.next()
        if arrow.kind == "->":
            cod = self.parse_term()
            result = cod
            for names, ty in reversed(groups):
                for name in reversed(names):
                    result = SPi(name.text, ty, result, name.span.merge(result.span))
            return result
        if arrow.kind == "*":
            if len(groups) != 1 or len(groups[0][0]) != 1:
                self.fail("a dependent pair type takes a single binder", arrow.span)
            (names, ty) = groups[0]
            snd = self.parse_times()
            return SSigma(names[0].text, ty, snd, start.merge(snd.span))
        self.fail(f"expected '->' or '*' after the binders, found {arrow.text!r}", arrow.span)
        raise AssertionError  # unreachable


def parse_module(source: str) -> SModule:
    return Parser(source).parse_module()


def parse_term(source: str) -> STerm:
    parser = Parser(source)
    term = parser.parse_term()
    trailing = parser.peek()
    if trailing.kind != "eof":
        parser.fail(f"unexpected trailing input {trailing.text!r}", trailing.span)
    return term
