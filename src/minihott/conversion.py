"""Type-directed conversion checking with η, and cumulativity as subtyping.

`conv` and `subtype` read the shape of a type or of both sides with
`value.__class__ is C` tests.  `conv_structural` settles identical and
same-definition glued values, unfolds both sides, and then makes one
lookup: two values of one class go to their rule in `_SAME`, and of the
mixed pairs only a lambda (η for Π) or a pair against a neutral (η for Σ)
can be equal.  `spine_eq` compares two frames by their nodes, with `is`,
and then their fields pairwise in order (see `values`): `closure_eq` for
a `Closure` field, `conv_structural` for any other.  A class missing from
`_SAME` is a `KernelBug`.

η for Σ is the run's setting `eta_sigma`, read at call time by the Σ branch
of `conv` and the pair-against-neutral rule.  `pipeline.check_files` sets
it from its `Config` and restores it.

Identity answers first wherever it implies definitional equality, before
anything is forced, instantiated or recursed into:

- `a is b` ends `conv`, `subtype` and `conv_structural`: a value is
  immutable (a glued value's unfolding cache is written once, always with
  the same result), so it equals itself, and subtyping is reflexive.
  Constants and fresh variables are shared (see `terms` and `values`), so
  this also settles two occurrences of `Nat`, `U0` or one bound variable.
- `spine_eq` skips a pair of identical frames, and two neutrals compare
  their heads by `is` before `==`, for the same reason.
- `same_closure(c1, c2)`: one body term, one arity and pairwise identical
  captured values.  Evaluation is a function of the environment and the
  body, so both closures give the same value on the same arguments; it
  settles Π codomains and Σ second components (in `subtype`,
  `_family_eq`) and eliminator motives and steps (`closure_eq`) without
  instantiating either side.
- `whnf` and `_same_glued` run only when a side is glued: on any other
  value the first is the identity and the second is false.

A failed identity test falls through to the structural comparison, so
these rules only skip work; they never change an answer.
"""

from __future__ import annotations

from operator import is_

from . import terms as t
from . import values as v
from .diagnostics import KernelBug
from .evaluate import apply, project_fst, project_snd, whnf

# References to definitions evaluate to glued values (values.VGlued).
# Two glued values with the same definition at the head are compared by
# their spines first, which is sound by congruence; only when heads or
# spines differ are both sides unfolded and compared structurally, which
# keeps the check complete.
#
# Conversion keeps no memo of its answers, for the reason evaluation keeps
# none (see `evaluate`).

_memo: dict = {}  # always empty: no memo is kept; perfbench/traced_cli.py reads its size
_app_memo: dict = {}  # always empty: no memo is kept; perfbench/traced_cli.py reads its size
eta_sigma = True


def conv(depth: int, a: v.Value, b: v.Value, ty: v.Value | None = None) -> bool:
    """Decide definitional equality of `a` and `b`.

    When `ty` is given the comparison is type-directed: η for Π always,
    η for Σ when enabled, and every pair of values is equal at Unit.
    Without a type the comparison is structural with untyped η-expansion
    for lambdas and pairs (used inside neutral spines).
    """
    if a is b:
        return True
    if ty.__class__ is v.VGlued:
        ty = whnf(ty)
    kind = ty.__class__
    if kind is v.VPi:
        x = v.fresh(depth)
        return conv(depth + 1, apply(a, x), apply(b, x), ty.cod(x))
    if kind is v.VSigma and eta_sigma:
        fa = project_fst(a)
        if not conv(depth, fa, project_fst(b), ty.fst_ty):
            return False
        return conv(depth, project_snd(a), project_snd(b), ty.snd_ty(fa))
    if kind is t.Unit:
        return True
    return conv_structural(depth, a, b)


def _same_glued(depth: int, a: v.Value, b: v.Value) -> bool:
    """The same definition under convertible spines (a sufficient test)."""
    return (
        a.__class__ is v.VGlued
        and b.__class__ is v.VGlued
        and a.name == b.name
        and spine_eq(depth, a.spine, b.spine)
    )


def conv_structural(depth: int, a: v.Value, b: v.Value) -> bool:
    if a is b:
        return True
    kind, other = a.__class__, b.__class__
    if kind is v.VGlued or other is v.VGlued:
        if _same_glued(depth, a, b):
            return True
        a, b = whnf(a), whnf(b)
        if a is b:
            return True
        kind, other = a.__class__, b.__class__
    if kind is other:
        try:
            rule = _SAME[kind]
        except KeyError:
            raise KernelBug(f"conversion: unhandled value {a!r}") from None
        return rule(depth, a, b)
    # untyped η for functions and pairs, against a value of another class
    if kind is v.VLam or other is v.VLam:
        return _eta_fn(depth, a, b)
    if eta_sigma and (kind is v.VPair and other is v.VNeutral or kind is v.VNeutral and other is v.VPair):
        return _pair_eq(depth, a, b)
    return False


def _eta_fn(depth: int, a: v.Value, b: v.Value) -> bool:
    x = v.fresh(depth)
    return conv_structural(depth + 1, apply(a, x), apply(b, x))


def _pair_eq(depth: int, a: v.Value, b: v.Value) -> bool:
    """Components equal: η for Σ when a side is neutral, congruence on two pairs."""
    return conv_structural(depth, project_fst(a), project_fst(b)) and conv_structural(
        depth, project_snd(a), project_snd(b)
    )


def _family_eq(depth: int, d1: v.Value, c1: v.Closure, d2: v.Value, c2: v.Closure) -> bool:
    if not conv_structural(depth, d1, d2):
        return False
    if same_closure(c1, c2):
        return True
    x = v.fresh(depth)
    return conv_structural(depth + 1, c1(x), c2(x))


def _same_constant(depth: int, a, b) -> bool:
    """Two values of a class without fields."""
    return True


# Two values of one class, both in weak-head normal form and not identical.
# Recursive steps call `conv_structural` by its module name, so a wrapper
# installed there (a test's reference or memo) sees every comparison.
_SAME = {
    v.VNeutral: lambda depth, a, b: (a.head is b.head or a.head == b.head) and spine_eq(depth, a.spine, b.spine),
    v.VLam: _eta_fn,
    v.VPi: lambda depth, a, b: _family_eq(depth, a.dom, a.cod, b.dom, b.cod),
    t.Univ: lambda depth, a, b: a.level == b.level,
    v.VSigma: lambda depth, a, b: _family_eq(depth, a.fst_ty, a.snd_ty, b.fst_ty, b.snd_ty),
    v.VPair: _pair_eq,
    v.VId: lambda depth, a, b: conv_structural(depth, a.ty, b.ty)
    and conv_structural(depth, a.lhs, b.lhs) and conv_structural(depth, a.rhs, b.rhs),
    v.VRefl: lambda depth, a, b: conv_structural(depth, a.arg, b.arg),
    v.VSuc: lambda depth, a, b: conv_structural(depth, a.pred, b.pred),
    **dict.fromkeys((t.Nat, t.Zero, t.Empty, t.Unit, t.Star, t.Two, t.Bit0, t.Bit1), _same_constant),
}


def same_closure(c1: v.Closure, c2: v.Closure) -> bool:
    """One body, one arity and pairwise identical captured values (a
    sufficient test of equality)."""
    if c1.body is not c2.body or c1.arity != c2.arity:
        return False
    e1, e2 = c1.env, c2.env
    return e1 is e2 or len(e1) == len(e2) and all(map(is_, e1, e2))


def closure_eq(depth: int, c1: v.Closure, c2: v.Closure) -> bool:
    if same_closure(c1, c2):
        return True
    if c1.arity != c2.arity:
        return False
    args = tuple(v.fresh(depth + i) for i in range(c1.arity))
    return conv_structural(depth + c1.arity, c1(*args), c2(*args))


def spine_eq(depth: int, s1: tuple, s2: tuple) -> bool:
    """Frame by frame: the same eliminator, then its fields pairwise in order."""
    if len(s1) != len(s2):
        return False
    for f1, f2 in zip(s1, s2):
        if f1 is f2:
            continue
        if f1[0] is not f2[0]:
            return False
        for i in range(1, len(f1)):
            a, b = f1[i], f2[i]
            if a.__class__ is v.Closure:
                if not closure_eq(depth, a, b):
                    return False
            elif not conv_structural(depth, a, b):
                return False
    return True


def subtype(depth: int, a: v.Value, b: v.Value) -> bool:
    """Cumulativity: universe indices may grow; Π codomains and Σ components
    are covariant, Π domains invariant."""
    if a is b:
        return True
    # Shapes are read from the unfoldings; the fallback below still gets
    # `a` and `b` themselves, so glued types can be compared by spine.
    wa = whnf(a) if a.__class__ is v.VGlued else a
    wb = whnf(b) if b.__class__ is v.VGlued else b
    kind = wa.__class__
    if kind is wb.__class__:
        if kind is t.Univ:
            return wa.level <= wb.level
        if kind is v.VPi:
            if not conv_structural(depth, wa.dom, wb.dom):
                return False
            if same_closure(wa.cod, wb.cod):
                return True
            x = v.fresh(depth)
            return subtype(depth + 1, wa.cod(x), wb.cod(x))
        if kind is v.VSigma:
            if not subtype(depth, wa.fst_ty, wb.fst_ty):
                return False
            if same_closure(wa.snd_ty, wb.snd_ty):
                return True
            x = v.fresh(depth)
            return subtype(depth + 1, wa.snd_ty(x), wb.snd_ty(x))
    return conv_structural(depth, a, b)
