"""Name resolution: surface terms with names to de Bruijn indexed core terms."""

from __future__ import annotations

import difflib

from . import surface as s
from . import terms as t
from .diagnostics import CheckFailure, Diagnostic, Span

_CONST_TERMS: dict[str, t.Term] = {
    "Nat": t.Nat(),
    "Empty": t.Empty(),
    "Unit": t.Unit(),
    "Two": t.Two(),
    "star": t.Star(),
    "zero2": t.Bit0(),
    "one2": t.Bit1(),
}


class Resolver:
    def __init__(self, global_names: set[str]):
        self.global_names = global_names

    def fail(self, message: str, span: Span) -> None:
        raise CheckFailure(Diagnostic("error", "resolve", message, span))

    def resolve(self, env: tuple[str, ...], term: s.STerm) -> t.Term:
        match term:
            case s.SVar(name, span):
                return self.resolve_name(env, name, span)
            case s.SUniv(level, _):
                return t.Univ(level)
            case s.SNatLit(value, _):
                return t.nat_literal(value)
            case s.SConst(name, _):
                return _CONST_TERMS[name]
            case s.SPi(binder, dom, cod, _):
                return t.Pi(
                    self.resolve(env, dom), self.resolve(env + (binder or "_",), cod)
                )
            case s.SSigma(binder, fst_ty, snd_ty, _):
                return t.Sigma(
                    self.resolve(env, fst_ty), self.resolve(env + (binder or "_",), snd_ty)
                )
            case s.SLam(names, body, _):
                inner = env + names
                result = self.resolve(inner, body)
                for _ in names:
                    result = t.Lam(result)
                return result
            case s.SApp(fn, arg, _):
                return t.App(self.resolve(env, fn), self.resolve(env, arg))
            case s.SPair(fst, snd, _):
                return t.Pair(self.resolve(env, fst), self.resolve(env, snd))
            case s.SAnn(inner, ty, _):
                return t.Ann(self.resolve(env, inner), self.resolve(env, ty))
            case s.SElim(head, args, span):
                return self.resolve_elim(env, head, args, span)
            case _:
                raise AssertionError(f"unhandled surface term {term!r}")

    def resolve_name(self, env: tuple[str, ...], name: str, span: Span) -> t.Term:
        for offset, bound in enumerate(reversed(env)):
            if bound == name:
                return t.Var(offset)
        if name in self.global_names:
            return t.Ref(name)
        hint = ""
        candidates = list(env) + sorted(self.global_names) + sorted(_CONST_TERMS)
        close = difflib.get_close_matches(name, candidates, n=1)
        if close:
            hint = f" (did you mean {close[0]!r}?)"
        self.fail(f"unbound identifier {name!r}{hint}", span)
        raise AssertionError  # unreachable

    def resolve_elim(
        self, env: tuple[str, ...], head: str, args: tuple[s.STerm, ...], span: Span
    ) -> t.Term:
        match head:
            case "fst":
                return t.Fst(self.resolve(env, args[0]))
            case "snd":
                return t.Snd(self.resolve(env, args[0]))
            case "suc":
                return t.Suc(self.resolve(env, args[0]))
            case "refl":
                return t.Refl(self.resolve(env, args[0]))
            case "Id":
                return t.Id(*(self.resolve(env, a) for a in args))
            case "J":
                motive = self.resolve_binders(env, args[0], 3, "the J motive")
                base = self.resolve_binders(env, args[1], 1, "the J base case")
                return t.J(motive, base, self.resolve(env, args[2]))
            case "natElim":
                motive = self.resolve_binders(env, args[0], 1, "the natElim motive")
                base = self.resolve(env, args[1])
                step = self.resolve_binders(env, args[2], 2, "the natElim step")
                return t.NatElim(motive, base, step, self.resolve(env, args[3]))
            case "twoElim":
                motive = self.resolve_binders(env, args[0], 1, "the twoElim motive")
                return t.TwoElim(
                    motive,
                    self.resolve(env, args[1]),
                    self.resolve(env, args[2]),
                    self.resolve(env, args[3]),
                )
            case "emptyElim":
                motive = self.resolve_binders(env, args[0], 1, "the emptyElim motive")
                return t.EmptyElim(motive, self.resolve(env, args[1]))
            case _:
                raise AssertionError(f"unknown elimination head {head!r}")

    def resolve_binders(self, env: tuple[str, ...], term: s.STerm, count: int, what: str) -> t.Term:
        """Peel exactly `count` lambda binders off `term` and resolve the body
        under them, flattening nested `fun`s as needed."""
        names: list[str] = []
        body = term
        while len(names) < count and isinstance(body, s.SLam):
            take = min(count - len(names), len(body.names))
            names.extend(body.names[:take])
            rest = body.names[take:]
            body = s.SLam(rest, body.body, body.span) if rest else body.body
        if len(names) < count:
            self.fail(f"{what} must be a function of {count} argument(s)", term.span)
        return self.resolve(env + tuple(names), body)
