"""Semantic domain for normalization by evaluation.

Values are weak-head normal, up to delta: closures delay bodies,
neutrals carry a head (a de Bruijn *level* or an axiom name) and a spine
of pending eliminations, and a glued value (`VGlued`) stands for a
definition under a spine of eliminations whose unfolding is computed
only when forced.  Values are immutable and may be shared freely.  Every
class here but `VGlued` is a `records.record`: its fields live in slots
that only `__init__` writes, and assigning or deleting one afterwards
raises `AttributeError`.  `VGlued` is a plain slotted class compared by
identity; its one mutable slot, the cached unfolding, is written at most
once and always with the same result, and nothing writes its other slots
after construction.

Constants are shared: evaluation and the checker's typing rules return
the one value of each field-less class (`NAT`, `ZERO`, `TWO`, `BIT0`,
`BIT1`, `UNIT`, `STAR`, `EMPTY`), the one `FST` and `SND` spine frame,
and `univ(level)`, which holds one universe per level up to a fixed
bound.  Conversion's `a is b` test then settles two occurrences of a
constant without a lookup.  Constructing a class anew still gives an
equal value, only not an identical one.

A closure needs no `Globals`: each reference in its body is linked to
the value it evaluates to when its declaration's names are resolved
(see `resolver`).  A reference can only name an earlier declaration, so
values and the terms they hold form no reference cycle.
"""

from __future__ import annotations

from .records import record
from .terms import Term


class Value:
    __slots__ = ()


@record
class Closure:
    """A term body of `arity` binders over a captured environment."""

    env: tuple  # tuple[Value, ...], innermost binder last
    body: Term
    arity: int = 1

    def __call__(self, *args: Value) -> Value:
        assert len(args) == self.arity
        return _evaluate.evaluate(self.env + args, self.body)


@record
class VUniv(Value):
    level: int


@record
class VPi(Value):
    dom: Value
    cod: Closure


@record
class VLam(Value):
    body: Closure


@record
class VSigma(Value):
    fst_ty: Value
    snd_ty: Closure


@record
class VPair(Value):
    fst: Value
    snd: Value


@record
class VId(Value):
    ty: Value
    lhs: Value
    rhs: Value


@record
class VRefl(Value):
    arg: Value


@record
class VNat(Value):
    pass


@record
class VZero(Value):
    pass


@record
class VSuc(Value):
    pred: Value


@record
class VEmpty(Value):
    pass


@record
class VUnit(Value):
    pass


@record
class VStar(Value):
    pass


@record
class VTwo(Value):
    pass


@record
class VBit0(Value):
    pass


@record
class VBit1(Value):
    pass


# --- neutral heads and spine frames ---


@record
class VVar:
    level: int  # de Bruijn level


@record
class VAxiom:
    name: str


@record
class AppF:
    arg: Value


@record
class FstF:
    pass


@record
class SndF:
    pass


@record
class JF:
    motive: Closure  # arity 3
    base: Closure  # arity 1


@record
class NatElimF:
    motive: Closure  # arity 1
    base: Value
    step: Closure  # arity 2


@record
class TwoElimF:
    motive: Closure  # arity 1
    if0: Value
    if1: Value


@record
class EmptyElimF:
    motive: Closure  # arity 1


@record
class VNeutral(Value):
    head: VVar | VAxiom
    spine: tuple = ()

    def extend(self, frame) -> "VNeutral":
        return VNeutral(self.head, self.spine + (frame,))


class VGlued(Value):
    """The definition `name` under the eliminations in `spine`.

    Conversion compares two glued values with the same name by their
    spines; everything else sees the unfolding through
    `evaluate.whnf`.  A root (empty spine) holds the definition's value
    in `unfolded` from the start; an extension holds its `parent` and
    the last `frame`, and its unfolding is that frame applied to the
    parent's unfolding, cached here the first time it is forced.
    Glued values compare by identity.
    """

    __slots__ = ("name", "spine", "parent", "frame", "unfolded")

    def __init__(self, name: str, spine: tuple, parent: VGlued | None, frame, unfolded: Value | None):
        self.name = name
        self.spine = spine
        self.parent = parent
        self.frame = frame
        self.unfolded = unfolded

    def extend(self, frame) -> "VGlued":
        return VGlued(self.name, self.spine + (frame,), self, frame, None)


# The shared constants.  Universes U0 .. U9 cover every level that a check
# under the default `Config` (max_level 8) can reach, and one more; `univ`
# allocates a higher level anew.
NAT, ZERO, TWO, BIT0, BIT1 = VNat(), VZero(), VTwo(), VBit0(), VBit1()
UNIT, STAR, EMPTY = VUnit(), VStar(), VEmpty()
FST, SND = FstF(), SndF()
_UNIV = tuple(VUniv(level) for level in range(10))


def univ(level: int) -> VUniv:
    return _UNIV[level] if 0 <= level < len(_UNIV) else VUniv(level)


# Fresh variables are shared per level, one object for each binder depth.
# Both sides of a comparison under a binder then hold the very same
# variable, so conversion's `a is b` test settles a variable against
# itself without a structural comparison.  The table is as long as the
# deepest binder seen, and no longer.
_FRESH: list = []

_ENV_INTERN: dict = {}  # always empty: no memo is kept; perfbench/traced_cli.py reads its size


def fresh(level: int) -> VNeutral:
    while len(_FRESH) <= level:
        _FRESH.append(VNeutral(VVar(len(_FRESH))))
    return _FRESH[level]


# Imported last: evaluate imports this module.
from . import evaluate as _evaluate  # noqa: E402
