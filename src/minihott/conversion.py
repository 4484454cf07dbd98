"""Type-directed conversion checking with η, and cumulativity as subtyping.

`conv` and `subtype` read the shape of a type or of both sides with
`value.__class__ is C` tests.  `conv_structural` settles identical and
same-definition glued values, unfolds both sides, and then makes one
lookup: two values of one class go to their rule in `_SAME`, and of the
mixed pairs only a lambda (η for Π) or a pair against a neutral (η for Σ)
can be equal.  `spine_eq` looks up each pair of frames in `_FRAME_EQ`.
A class missing from a table is a `KernelBug`.

Identity answers first wherever it implies definitional equality, before
anything is forced, instantiated or recursed into:

- `a is b` ends `conv`, `subtype` and `conv_structural`: a value is
  immutable (a glued value's unfolding cache is written once, always with
  the same result), so it equals itself, and subtyping is reflexive.
  Constants and fresh variables are shared (see `values`), so this also
  settles two occurrences of `Nat`, `U0` or one bound variable.
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


def conv(depth: int, a: v.Value, b: v.Value, ty: v.Value | None = None, *, eta_sigma: bool = True) -> bool:
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
        return conv(depth + 1, apply(a, x), apply(b, x), ty.cod(x), eta_sigma=eta_sigma)
    if kind is v.VSigma and eta_sigma:
        fa = project_fst(a)
        if not conv(depth, fa, project_fst(b), ty.fst_ty, eta_sigma=eta_sigma):
            return False
        return conv(depth, project_snd(a), project_snd(b), ty.snd_ty(fa), eta_sigma=eta_sigma)
    if kind is v.VUnit:
        return True
    return conv_structural(depth, a, b, eta_sigma=eta_sigma)


def _same_glued(depth: int, a: v.Value, b: v.Value, *, eta_sigma: bool) -> bool:
    """The same definition under convertible spines (a sufficient test)."""
    return (
        a.__class__ is v.VGlued
        and b.__class__ is v.VGlued
        and a.name == b.name
        and spine_eq(depth, a.spine, b.spine, eta_sigma=eta_sigma)
    )


def conv_structural(depth: int, a: v.Value, b: v.Value, *, eta_sigma: bool) -> bool:
    if a is b:
        return True
    kind, other = a.__class__, b.__class__
    if kind is v.VGlued or other is v.VGlued:
        if _same_glued(depth, a, b, eta_sigma=eta_sigma):
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
        return rule(depth, a, b, eta_sigma)
    # untyped η for functions and pairs, against a value of another class
    if kind is v.VLam or other is v.VLam:
        return _eta_fn(depth, a, b, eta_sigma)
    if eta_sigma and (kind is v.VPair and other is v.VNeutral or kind is v.VNeutral and other is v.VPair):
        return _pair_eq(depth, a, b, eta_sigma)
    return False


def _eta_fn(depth: int, a: v.Value, b: v.Value, eta_sigma: bool) -> bool:
    x = v.fresh(depth)
    return conv_structural(depth + 1, apply(a, x), apply(b, x), eta_sigma=eta_sigma)


def _pair_eq(depth: int, a: v.Value, b: v.Value, eta_sigma: bool) -> bool:
    """Components equal: η for Σ when a side is neutral, congruence on two pairs."""
    return conv_structural(depth, project_fst(a), project_fst(b), eta_sigma=eta_sigma) and conv_structural(
        depth, project_snd(a), project_snd(b), eta_sigma=eta_sigma
    )


def _family_eq(depth: int, d1: v.Value, c1: v.Closure, d2: v.Value, c2: v.Closure, eta_sigma: bool) -> bool:
    if not conv_structural(depth, d1, d2, eta_sigma=eta_sigma):
        return False
    if same_closure(c1, c2):
        return True
    x = v.fresh(depth)
    return conv_structural(depth + 1, c1(x), c2(x), eta_sigma=eta_sigma)


def _same_constant(depth: int, a, b, eta_sigma: bool) -> bool:
    """Two values, or two spine frames, of a class without fields."""
    return True


# Two values of one class, both in weak-head normal form and not identical.
# Recursive steps call `conv_structural` by its module name, so a wrapper
# installed there (a test's reference or memo) sees every comparison.
_SAME = {
    v.VNeutral: lambda depth, a, b, eta_sigma: (a.head is b.head or a.head == b.head)
    and spine_eq(depth, a.spine, b.spine, eta_sigma=eta_sigma),
    v.VLam: _eta_fn,
    v.VPi: lambda depth, a, b, eta_sigma: _family_eq(depth, a.dom, a.cod, b.dom, b.cod, eta_sigma),
    v.VUniv: lambda depth, a, b, eta_sigma: a.level == b.level,
    v.VSigma: lambda depth, a, b, eta_sigma: _family_eq(depth, a.fst_ty, a.snd_ty, b.fst_ty, b.snd_ty, eta_sigma),
    v.VPair: _pair_eq,
    v.VId: lambda depth, a, b, eta_sigma: conv_structural(depth, a.ty, b.ty, eta_sigma=eta_sigma)
    and conv_structural(depth, a.lhs, b.lhs, eta_sigma=eta_sigma)
    and conv_structural(depth, a.rhs, b.rhs, eta_sigma=eta_sigma),
    v.VRefl: lambda depth, a, b, eta_sigma: conv_structural(depth, a.arg, b.arg, eta_sigma=eta_sigma),
    v.VSuc: lambda depth, a, b, eta_sigma: conv_structural(depth, a.pred, b.pred, eta_sigma=eta_sigma),
    **dict.fromkeys((v.VNat, v.VZero, v.VEmpty, v.VUnit, v.VStar, v.VTwo, v.VBit0, v.VBit1), _same_constant),
}


def same_closure(c1: v.Closure, c2: v.Closure) -> bool:
    """One body, one arity and pairwise identical captured values (a
    sufficient test of equality)."""
    if c1.body is not c2.body or c1.arity != c2.arity:
        return False
    e1, e2 = c1.env, c2.env
    return e1 is e2 or len(e1) == len(e2) and all(map(is_, e1, e2))


def closure_eq(depth: int, c1: v.Closure, c2: v.Closure, *, eta_sigma: bool) -> bool:
    if same_closure(c1, c2):
        return True
    if c1.arity != c2.arity:
        return False
    args = tuple(v.fresh(depth + i) for i in range(c1.arity))
    return conv_structural(depth + c1.arity, c1(*args), c2(*args), eta_sigma=eta_sigma)


def spine_eq(depth: int, s1: tuple, s2: tuple, *, eta_sigma: bool) -> bool:
    if len(s1) != len(s2):
        return False
    for f1, f2 in zip(s1, s2):
        if f1 is f2:
            continue
        kind = f1.__class__
        if kind is not f2.__class__:
            return False
        try:
            rule = _FRAME_EQ[kind]
        except KeyError:
            raise KernelBug("bad spine frame") from None
        if not rule(depth, f1, f2, eta_sigma):
            return False
    return True


# Two spine frames of one class.
_FRAME_EQ = {
    v.AppF: lambda depth, f1, f2, eta_sigma: conv_structural(depth, f1.arg, f2.arg, eta_sigma=eta_sigma),
    v.FstF: _same_constant,
    v.SndF: _same_constant,
    v.JF: lambda depth, f1, f2, eta_sigma: closure_eq(depth, f1.motive, f2.motive, eta_sigma=eta_sigma)
    and closure_eq(depth, f1.base, f2.base, eta_sigma=eta_sigma),
    v.NatElimF: lambda depth, f1, f2, eta_sigma: closure_eq(depth, f1.motive, f2.motive, eta_sigma=eta_sigma)
    and conv_structural(depth, f1.base, f2.base, eta_sigma=eta_sigma)
    and closure_eq(depth, f1.step, f2.step, eta_sigma=eta_sigma),
    v.TwoElimF: lambda depth, f1, f2, eta_sigma: closure_eq(depth, f1.motive, f2.motive, eta_sigma=eta_sigma)
    and conv_structural(depth, f1.if0, f2.if0, eta_sigma=eta_sigma)
    and conv_structural(depth, f1.if1, f2.if1, eta_sigma=eta_sigma),
    v.EmptyElimF: lambda depth, f1, f2, eta_sigma: closure_eq(depth, f1.motive, f2.motive, eta_sigma=eta_sigma),
}


def subtype(depth: int, a: v.Value, b: v.Value, *, eta_sigma: bool = True) -> bool:
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
        if kind is v.VUniv:
            return wa.level <= wb.level
        if kind is v.VPi:
            if not conv_structural(depth, wa.dom, wb.dom, eta_sigma=eta_sigma):
                return False
            if same_closure(wa.cod, wb.cod):
                return True
            x = v.fresh(depth)
            return subtype(depth + 1, wa.cod(x), wb.cod(x), eta_sigma=eta_sigma)
        if kind is v.VSigma:
            if not subtype(depth, wa.fst_ty, wb.fst_ty, eta_sigma=eta_sigma):
                return False
            if same_closure(wa.snd_ty, wb.snd_ty):
                return True
            x = v.fresh(depth)
            return subtype(depth + 1, wa.snd_ty(x), wb.snd_ty(x), eta_sigma=eta_sigma)
    return conv_structural(depth, a, b, eta_sigma=eta_sigma)
