"""Pretty-printer for core terms, producing valid surface syntax.

The output re-parses and re-resolves to the same core term, so it is
safe to round-trip and to embed in diagnostics.  Binder names are
invented as `x0`, `x1`, ... by depth; user-defined global names of that
shape would be shadowed, so the surface layer treats them as reserved.
"""

from __future__ import annotations

import re

from . import terms as t

# precedence: 0 arrow, 1 times, 2 application, 3 atom
_ARROW, _TIMES, _APP, _ATOM = 0, 1, 2, 3

RESERVED_NAME = re.compile(r"^x[0-9]+$")


def print_term(term: t.Term, names: list[str] | tuple[str, ...] = ()) -> str:
    return _print(term, list(names), _ARROW)


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
