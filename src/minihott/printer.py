"""Pretty-printer for core terms, producing valid surface syntax.

The output re-parses and re-resolves to the same core term, so it is
safe to round-trip and to embed in diagnostics.  Binder names are
invented as `x0`, `x1`, ... by depth; user-defined global names of that
shape would be shadowed, so the parser rejects them (`parser.RESERVED_NAME`).

Each step dispatches on the term's class through `_PRINT`.  Keywords and
binder counts come from the parser: an `ELIMS` head prints as its keyword
and each field, an atom or a `fun` of the names the field binds, and a
`CONST_TERMS` constant as its keyword.  Any other class is a `KernelBug`.
"""

from __future__ import annotations

from . import terms as t
from .diagnostics import KernelBug
from .parser import CONST_TERMS, ELIMS

# precedence: 0 arrow, 1 times, 2 application, 3 atom
_ARROW, _TIMES, _APP, _ATOM = 0, 1, 2, 3

# {head node: (keyword, ((field, binders), ...))} and {constant class: keyword}
_HEADS = {
    node: (keyword, tuple(zip(node.__match_args__, (p[0] if p else 0 for p in params))))
    for keyword, (node, params) in ELIMS.items()
}
_CONSTS = {term.__class__: keyword for keyword, term in CONST_TERMS.items()}


class _Used(str):
    """A name in scope that a variable has printed."""

    __slots__ = ()


def print_term(term: t.Term, names: list[str] | tuple[str, ...] = ()) -> str:
    return str(_print(term, list(names), _ARROW))  # not the `_Used` of a bare variable


def _bind(names: list[str]) -> str:
    name = f"x{len(names)}"
    while name in names:
        name += "'"
    names.append(name)
    return name


def _print(term: t.Term, names: list[str], prec: int) -> str:
    try:
        rule = _PRINT[term.__class__]
    except KeyError:
        raise KernelBug(f"print: unhandled term {term!r}") from None
    return rule(term, names, prec)


def _print_var(term: t.Var, names: list[str], prec: int) -> str:
    if term.index < len(names):
        at = len(names) - 1 - term.index
        names[at] = name = _Used(names[at])
        return name
    return f"!{term.index - len(names)}"  # dangling index; diagnostics only


def _print_quantifier(term: t.Pi | t.Sigma, names: list[str], prec: int) -> str:
    # A domain that the codomain does not use binds one level tighter; the
    # binder comes back `_Used` if printing the codomain printed it.
    dom, cod = (getattr(term, field) for field in term.__match_args__)
    op, level = ("->", _ARROW) if term.__class__ is t.Pi else ("*", _TIMES)
    _bind(names)
    body = _print(cod, names, level)
    x = names.pop()
    if x.__class__ is _Used:
        return _wrap(f"({x} : {_print(dom, names, _ARROW)}) {op} {body}", prec, level)
    return _wrap(f"{_print(dom, names, level + 1)} {op} {body}", prec, level)


def _print_lam(term: t.Lam, names: list[str], prec: int) -> str:
    binders = []
    while term.__class__ is t.Lam:
        binders.append(_bind(names))
        term = term.body
    out = f"fun {' '.join(binders)} => {_print(term, names, _ARROW)}"
    del names[len(names) - len(binders) :]
    return _wrap(out, prec, _ARROW)


def _print_head(term: t.Term, names: list[str], prec: int) -> str:
    keyword, fields = _HEADS[term.__class__]
    args = []
    for field, count in fields:
        binders = [_bind(names) for _ in range(count)]
        arg = _print(getattr(term, field), names, _ARROW if count else _ATOM)
        args.append(f"(fun {' '.join(binders)} => {arg})" if count else arg)
        del names[len(names) - count :]
    return _wrap(f"{keyword} {' '.join(args)}", prec, _APP)


def _wrap(out: str, required: int, actual: int) -> str:
    return f"({out})" if required > actual else out


_PRINT = {
    **dict.fromkeys(_HEADS, _print_head),
    **dict.fromkeys(_CONSTS, lambda term, names, prec: _CONSTS[term.__class__]),
    t.Var: _print_var,
    t.Ref: lambda term, names, prec: term.name,
    t.Univ: lambda term, names, prec: f"U{term.level}",
    t.Pi: _print_quantifier,
    t.Sigma: _print_quantifier,
    t.Lam: _print_lam,
    t.App: lambda term, names, prec: _wrap(
        f"{_print(term.fn, names, _APP)} {_print(term.arg, names, _ATOM)}", prec, _APP
    ),
    t.Pair: lambda term, names, prec: f"({_print(term.fst, names, _ARROW)}, {_print(term.snd, names, _ARROW)})",
    t.Ann: lambda term, names, prec: f"({_print(term.term, names, _ARROW)} : {_print(term.ty, names, _ARROW)})",
    # a numeral where the successors end in zero
    t.Suc: lambda term, names, prec: (
        str(n) if (n := t.as_nat_literal(term)) is not None else _print_head(term, names, prec)
    ),
    t.Zero: lambda term, names, prec: "0",
}
