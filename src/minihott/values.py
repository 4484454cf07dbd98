"""Semantic domain for normalization by evaluation.

Values are weak-head normal, up to delta: closures delay bodies,
neutrals carry a head (a de Bruijn *level* or an axiom name) and a spine
of pending eliminations, and a glued value (`VGlued`) stands for a
definition under a spine of eliminations whose unfolding is computed
only when forced.  Values are immutable and may be shared freely; the
one mutable slot, a glued value's cached unfolding, is written at most
once and always with the same result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .terms import Term

if TYPE_CHECKING:
    from .globals import Globals


class Value:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Closure:
    """A term body of `arity` binders over a captured environment."""

    glob: "Globals"
    env: tuple  # tuple[Value, ...], innermost binder last
    body: Term
    arity: int = 1

    def __call__(self, *args: Value) -> Value:
        assert len(args) == self.arity
        return _evaluate.evaluate(self.glob, intern_env(self.env + args), self.body)


@dataclass(frozen=True, slots=True)
class VUniv(Value):
    level: int


@dataclass(frozen=True, slots=True)
class VPi(Value):
    dom: Value
    cod: Closure


@dataclass(frozen=True, slots=True)
class VLam(Value):
    body: Closure


@dataclass(frozen=True, slots=True)
class VSigma(Value):
    fst_ty: Value
    snd_ty: Closure


@dataclass(frozen=True, slots=True)
class VPair(Value):
    fst: Value
    snd: Value


@dataclass(frozen=True, slots=True)
class VId(Value):
    ty: Value
    lhs: Value
    rhs: Value


@dataclass(frozen=True, slots=True)
class VRefl(Value):
    arg: Value


@dataclass(frozen=True, slots=True)
class VNat(Value):
    pass


@dataclass(frozen=True, slots=True)
class VZero(Value):
    pass


@dataclass(frozen=True, slots=True)
class VSuc(Value):
    pred: Value


@dataclass(frozen=True, slots=True)
class VEmpty(Value):
    pass


@dataclass(frozen=True, slots=True)
class VUnit(Value):
    pass


@dataclass(frozen=True, slots=True)
class VStar(Value):
    pass


@dataclass(frozen=True, slots=True)
class VTwo(Value):
    pass


@dataclass(frozen=True, slots=True)
class VBit0(Value):
    pass


@dataclass(frozen=True, slots=True)
class VBit1(Value):
    pass


# --- neutral heads and spine frames ---


@dataclass(frozen=True, slots=True)
class VVar:
    level: int  # de Bruijn level


@dataclass(frozen=True, slots=True)
class VAxiom:
    name: str


@dataclass(frozen=True, slots=True)
class AppF:
    arg: Value


@dataclass(frozen=True, slots=True)
class FstF:
    pass


@dataclass(frozen=True, slots=True)
class SndF:
    pass


@dataclass(frozen=True, slots=True)
class JF:
    motive: Closure  # arity 3
    base: Closure  # arity 1


@dataclass(frozen=True, slots=True)
class NatElimF:
    motive: Closure  # arity 1
    base: Value
    step: Closure  # arity 2


@dataclass(frozen=True, slots=True)
class TwoElimF:
    motive: Closure  # arity 1
    if0: Value
    if1: Value


@dataclass(frozen=True, slots=True)
class EmptyElimF:
    motive: Closure  # arity 1


@dataclass(frozen=True, slots=True)
class VNeutral(Value):
    head: VVar | VAxiom
    spine: tuple = ()

    def extend(self, frame) -> "VNeutral":
        return VNeutral(self.head, self.spine + (frame,))


@dataclass(eq=False, slots=True)
class VGlued(Value):
    """The definition `name` under the eliminations in `spine`.

    Conversion compares two glued values with the same name by their
    spines; everything else sees the unfolding through
    `evaluate.whnf`.  A root (empty spine) holds the definition's value
    in `unfolded` from the start; an extension holds its `parent` and
    the last `frame`, and its unfolding is that frame applied to the
    parent's unfolding, cached here the first time it is forced.
    """

    name: str
    spine: tuple
    parent: VGlued | None
    frame: object
    unfolded: Value | None

    def extend(self, frame) -> "VGlued":
        return VGlued(self.name, self.spine + (frame,), self, frame, None)


# Environment tuples are interned by the identities of their elements so
# that applying the same closure to the same argument objects twice
# yields the same environment object.  Evaluation is memoized on
# (globals, environment, term) identity, so this sharing is what lets
# repeated evaluations return the very same value objects — which in
# turn feeds the identity-based conversion memo.  The interning table
# itself retains the stored tuples (and thus their elements), keeping
# the keyed ids stable.
_ENV_INTERN: dict = {}


def intern_env(env: tuple) -> tuple:
    key = tuple(map(id, env))
    stored = _ENV_INTERN.get(key)
    if stored is None:
        _ENV_INTERN[key] = env
        return env
    return stored


# Fresh variables are interned per level: conversion memoizes on object
# identity, so η-expanding the same value twice must produce identical
# objects, which requires the fresh variables themselves to be shared.
_FRESH: list = []


def fresh(level: int) -> VNeutral:
    while len(_FRESH) <= level:
        _FRESH.append(VNeutral(VVar(len(_FRESH))))
    return _FRESH[level]


# Imported last: evaluate imports this module.
from . import evaluate as _evaluate  # noqa: E402
