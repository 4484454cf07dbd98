"""Core term syntax: de Bruijn indexed, immutable.

Binders are positional: `Pi.cod`, `Lam.body`, `Sigma.snd_ty` bind one
variable; `J.motive` binds three (endpoint, endpoint, path); `J.base`,
`NatElim.motive`, `TwoElim.motive` and `EmptyElim.motive` bind one;
`NatElim.step` binds two (predecessor, recursive result).  The surface
form of each node, its keyword and the binders of each argument, is in
`parser.ELIMS` and `parser.CONST_TERMS`.

A universe or a closed constant (`Nat`, `0`, `Two`, `star`, ...) holds no
term, so it is its own value: `evaluate` returns the shared instance of
its class (`NAT`, ..., `EMPTY` or `univ(level)`, below) and `quote` gives
it back unchanged.  Conversion's `a is b` then settles two occurrences of
a constant; a class constructed anew gives an equal term, not the same.
"""

from __future__ import annotations

from .records import record


class Term:
    __slots__ = ()


@record
class Var(Term):
    index: int


@record
class Univ(Term):
    level: int


@record
class Pi(Term):
    dom: Term
    cod: Term  # binds 1


@record
class Lam(Term):
    body: Term  # binds 1


@record
class App(Term):
    fn: Term
    arg: Term


@record
class Sigma(Term):
    fst_ty: Term
    snd_ty: Term  # binds 1


@record
class Pair(Term):
    fst: Term
    snd: Term


@record
class Fst(Term):
    pair: Term


@record
class Snd(Term):
    pair: Term


@record
class Id(Term):
    ty: Term
    lhs: Term
    rhs: Term


@record
class Refl(Term):
    arg: Term


@record
class J(Term):
    motive: Term  # binds 3: (x, y, p : Id x y)
    base: Term  # binds 1: (x)
    path: Term


@record
class Nat(Term):
    pass


@record
class Zero(Term):
    pass


@record
class Suc(Term):
    pred: Term


@record
class NatElim(Term):
    motive: Term  # binds 1
    base: Term
    step: Term  # binds 2: (n, ih)
    target: Term


@record
class Empty(Term):
    pass


@record
class EmptyElim(Term):
    motive: Term  # binds 1
    target: Term


@record
class Unit(Term):
    pass


@record
class Star(Term):
    pass


@record
class Two(Term):
    pass


@record
class Bit0(Term):
    pass


@record
class Bit1(Term):
    pass


@record
class TwoElim(Term):
    motive: Term  # binds 1
    if0: Term
    if1: Term
    target: Term


class Linked(Term):
    """A term whose value is fixed when its name is resolved: `target`, a
    slot but not a record field, so `==`, `hash` and `repr` ignore it.
    The frozen `__setattr__` refuses it; only `Linked.target.__set__`
    writes it."""

    __slots__ = ("target",)


@record
class Ref(Linked):
    """Reference to a top-level definition or axiom."""

    name: str


@record
class Ann(Term):
    term: Term
    ty: Term


# The shared constants.  Universes U0 .. U9 cover every level that a check
# under the default `Config` (max_level 8) can reach, and one more; `univ`
# allocates a higher level anew.
NAT, ZERO, TWO, BIT0, BIT1 = Nat(), Zero(), Two(), Bit0(), Bit1()
UNIT, STAR, EMPTY = Unit(), Star(), Empty()
_UNIV = tuple(Univ(level) for level in range(10))


def univ(level: int) -> Univ:
    return _UNIV[level] if 0 <= level < len(_UNIV) else Univ(level)


def nat_literal(n: int) -> Term:
    t: Term = ZERO
    for _ in range(n):
        t = Suc(t)
    return t


def as_nat_literal(t: Term) -> int | None:
    n = 0
    while isinstance(t, Suc):
        t = t.pred
        n += 1
    return n if isinstance(t, Zero) else None
