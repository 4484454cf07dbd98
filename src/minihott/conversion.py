"""Type-directed conversion checking with η, and cumulativity as subtyping."""

from __future__ import annotations

from . import values as v
from .evaluate import apply, project_fst, project_snd, whnf

# References to definitions evaluate to glued values (values.VGlued).
# Two glued values with the same definition at the head are compared by
# their spines first, which is sound by congruence; only when heads or
# spines differ are both sides unfolded and compared structurally, which
# keeps the check complete.  Physical identity implies definitional
# equality (values are immutable up to a glued value's idempotent
# unfolding cache), so `a is b` ends a comparison at once.
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
    match whnf(ty):
        case v.VPi(_, cod):
            x = v.fresh(depth)
            return conv(depth + 1, apply(a, x), apply(b, x), cod(x), eta_sigma=eta_sigma)
        case v.VSigma(fst_ty, snd_ty) if eta_sigma:
            fa = project_fst(a)
            if not conv(depth, fa, project_fst(b), fst_ty, eta_sigma=eta_sigma):
                return False
            return conv(depth, project_snd(a), project_snd(b), snd_ty(fa), eta_sigma=eta_sigma)
        case v.VUnit():
            return True
        case _:
            return conv_structural(depth, a, b, eta_sigma=eta_sigma)


def _same_glued(depth: int, a: v.Value, b: v.Value, *, eta_sigma: bool) -> bool:
    """The same definition under convertible spines (a sufficient test)."""
    return (
        isinstance(a, v.VGlued)
        and isinstance(b, v.VGlued)
        and a.name == b.name
        and spine_eq(depth, a.spine, b.spine, eta_sigma=eta_sigma)
    )


def conv_structural(depth: int, a: v.Value, b: v.Value, *, eta_sigma: bool) -> bool:
    if a is b:
        return True
    if _same_glued(depth, a, b, eta_sigma=eta_sigma):
        return True
    a, b = whnf(a), whnf(b)
    if a is b:
        return True
    # untyped η for functions and pairs
    if isinstance(a, v.VLam) or isinstance(b, v.VLam):
        x = v.fresh(depth)
        return conv_structural(depth + 1, apply(a, x), apply(b, x), eta_sigma=eta_sigma)
    if eta_sigma and (isinstance(a, v.VPair) or isinstance(b, v.VPair)):
        if not _projectable(a) or not _projectable(b):
            return False
        return conv_structural(
            depth, project_fst(a), project_fst(b), eta_sigma=eta_sigma
        ) and conv_structural(depth, project_snd(a), project_snd(b), eta_sigma=eta_sigma)

    match (a, b):
        case (v.VUniv(i), v.VUniv(j)):
            return i == j
        case (v.VPi(d1, c1), v.VPi(d2, c2)) | (v.VSigma(d1, c1), v.VSigma(d2, c2)):
            if not conv_structural(depth, d1, d2, eta_sigma=eta_sigma):
                return False
            x = v.fresh(depth)
            return conv_structural(depth + 1, c1(x), c2(x), eta_sigma=eta_sigma)
        case (v.VPair(x1, y1), v.VPair(x2, y2)):
            return conv_structural(depth, x1, x2, eta_sigma=eta_sigma) and conv_structural(
                depth, y1, y2, eta_sigma=eta_sigma
            )
        case (v.VId(t1, l1, r1), v.VId(t2, l2, r2)):
            return (
                conv_structural(depth, t1, t2, eta_sigma=eta_sigma)
                and conv_structural(depth, l1, l2, eta_sigma=eta_sigma)
                and conv_structural(depth, r1, r2, eta_sigma=eta_sigma)
            )
        case (v.VRefl(x1), v.VRefl(x2)):
            return conv_structural(depth, x1, x2, eta_sigma=eta_sigma)
        case (v.VSuc(p1), v.VSuc(p2)):
            return conv_structural(depth, p1, p2, eta_sigma=eta_sigma)
        case (v.VNeutral(h1, s1), v.VNeutral(h2, s2)):
            return h1 == h2 and spine_eq(depth, s1, s2, eta_sigma=eta_sigma)
        case (
            (v.VNat(), v.VNat())
            | (v.VZero(), v.VZero())
            | (v.VEmpty(), v.VEmpty())
            | (v.VUnit(), v.VUnit())
            | (v.VStar(), v.VStar())
            | (v.VTwo(), v.VTwo())
            | (v.VBit0(), v.VBit0())
            | (v.VBit1(), v.VBit1())
        ):
            return True
        case _:
            return False


def _projectable(value: v.Value) -> bool:
    return isinstance(value, (v.VPair, v.VNeutral))


def closure_eq(depth: int, c1: v.Closure, c2: v.Closure, *, eta_sigma: bool) -> bool:
    if c1.arity != c2.arity:
        return False
    args = tuple(v.fresh(depth + i) for i in range(c1.arity))
    return conv_structural(depth + c1.arity, c1(*args), c2(*args), eta_sigma=eta_sigma)


def spine_eq(depth: int, s1: tuple, s2: tuple, *, eta_sigma: bool) -> bool:
    if len(s1) != len(s2):
        return False
    for f1, f2 in zip(s1, s2):
        match (f1, f2):
            case (v.AppF(a1), v.AppF(a2)):
                if not conv_structural(depth, a1, a2, eta_sigma=eta_sigma):
                    return False
            case (v.FstF(), v.FstF()) | (v.SndF(), v.SndF()):
                pass
            case (v.JF(m1, b1), v.JF(m2, b2)):
                if not (
                    closure_eq(depth, m1, m2, eta_sigma=eta_sigma)
                    and closure_eq(depth, b1, b2, eta_sigma=eta_sigma)
                ):
                    return False
            case (v.NatElimF(m1, z1, st1), v.NatElimF(m2, z2, st2)):
                if not (
                    closure_eq(depth, m1, m2, eta_sigma=eta_sigma)
                    and conv_structural(depth, z1, z2, eta_sigma=eta_sigma)
                    and closure_eq(depth, st1, st2, eta_sigma=eta_sigma)
                ):
                    return False
            case (v.TwoElimF(m1, a1, b1), v.TwoElimF(m2, a2, b2)):
                if not (
                    closure_eq(depth, m1, m2, eta_sigma=eta_sigma)
                    and conv_structural(depth, a1, a2, eta_sigma=eta_sigma)
                    and conv_structural(depth, b1, b2, eta_sigma=eta_sigma)
                ):
                    return False
            case (v.EmptyElimF(m1), v.EmptyElimF(m2)):
                if not closure_eq(depth, m1, m2, eta_sigma=eta_sigma):
                    return False
            case _:
                return False
    return True


def subtype(depth: int, a: v.Value, b: v.Value, *, eta_sigma: bool = True) -> bool:
    """Cumulativity: universe indices may grow; Π codomains and Σ components
    are covariant, Π domains invariant."""
    if a is b:
        return True
    # Shapes are read from the unfoldings; the fallback below still gets
    # `a` and `b` themselves, so glued types can be compared by spine.
    match (whnf(a), whnf(b)):
        case (v.VUniv(i), v.VUniv(j)):
            return i <= j
        case (v.VPi(d1, c1), v.VPi(d2, c2)):
            if not conv_structural(depth, d1, d2, eta_sigma=eta_sigma):
                return False
            x = v.fresh(depth)
            return subtype(depth + 1, c1(x), c2(x), eta_sigma=eta_sigma)
        case (v.VSigma(d1, c1), v.VSigma(d2, c2)):
            if not subtype(depth, d1, d2, eta_sigma=eta_sigma):
                return False
            x = v.fresh(depth)
            return subtype(depth + 1, c1(x), c2(x), eta_sigma=eta_sigma)
        case _:
            return conv_structural(depth, a, b, eta_sigma=eta_sigma)
