"""Evaluation into the semantic domain and quotation back to terms."""

from __future__ import annotations

from . import terms as t
from . import values as v
from .diagnostics import KernelBug

# Evaluation and conversion keep no memo.  References evaluate to glued
# values (values.VGlued), which conversion compares by their spines before
# it unfolds them, so little work repeats: tables keyed on object identity
# would save about a tenth of a corpus check's time, and the values they
# kept alive would be most of its memory.

_memo: dict = {}  # always empty: no memo is kept; perfbench/traced_cli.py reads its size


def evaluate(env: tuple, term: t.Term) -> v.Value:
    kind = type(term)
    if kind is t.Var:
        if term.index >= len(env):
            raise KernelBug(f"unbound de Bruijn index {term.index} at depth {len(env)}")
        return env[-1 - term.index]
    if kind is t.Ref:
        try:
            return term.target
        except AttributeError:
            raise KernelBug(f"reference to {term.name} was never linked") from None
    return _evaluate(env, term)


def _evaluate(env: tuple, term: t.Term) -> v.Value:
    match term:
        case t.Univ(level):
            return v.VUniv(level)
        case t.Pi(dom, cod):
            return v.VPi(evaluate(env, dom), v.Closure(env, cod))
        case t.Lam(body):
            return v.VLam(v.Closure(env, body))
        case t.App(fn, arg):
            return apply(evaluate(env, fn), evaluate(env, arg))
        case t.Sigma(fst_ty, snd_ty):
            return v.VSigma(evaluate(env, fst_ty), v.Closure(env, snd_ty))
        case t.Pair(fst, snd):
            return v.VPair(evaluate(env, fst), evaluate(env, snd))
        case t.Fst(pair):
            return project_fst(evaluate(env, pair))
        case t.Snd(pair):
            return project_snd(evaluate(env, pair))
        case t.Id(ty, lhs, rhs):
            return v.VId(
                evaluate(env, ty),
                evaluate(env, lhs),
                evaluate(env, rhs),
            )
        case t.Refl(arg):
            return v.VRefl(evaluate(env, arg))
        case t.J(motive, base, path):
            return j_elim(
                v.Closure(env, motive, 3),
                v.Closure(env, base, 1),
                evaluate(env, path),
            )
        case t.Nat():
            return v.VNat()
        case t.Zero():
            return v.VZero()
        case t.Suc(pred):
            return v.VSuc(evaluate(env, pred))
        case t.NatElim(motive, base, step, target):
            return nat_elim(
                v.Closure(env, motive, 1),
                evaluate(env, base),
                v.Closure(env, step, 2),
                evaluate(env, target),
            )
        case t.Empty():
            return v.VEmpty()
        case t.EmptyElim(motive, target):
            return empty_elim(v.Closure(env, motive, 1), evaluate(env, target))
        case t.Unit():
            return v.VUnit()
        case t.Star():
            return v.VStar()
        case t.Two():
            return v.VTwo()
        case t.Bit0():
            return v.VBit0()
        case t.Bit1():
            return v.VBit1()
        case t.TwoElim(motive, if0, if1, target):
            return two_elim(
                v.Closure(env, motive, 1),
                evaluate(env, if0),
                evaluate(env, if1),
                evaluate(env, target),
            )
        case t.Ann(term_, _):
            return evaluate(env, term_)
        case _:
            raise KernelBug(f"evaluate: unhandled term {term!r}")


def apply(fn: v.Value, arg: v.Value) -> v.Value:
    match fn:
        case v.VLam(body):
            return body(arg)
        case v.VNeutral() | v.VGlued():
            return fn.extend(v.AppF(arg))
        case _:
            raise KernelBug(f"apply of non-function value {type(fn).__name__}")


def project_fst(pair: v.Value) -> v.Value:
    match pair:
        case v.VPair(fst, _):
            return fst
        case v.VNeutral() | v.VGlued():
            return pair.extend(v.FstF())
        case _:
            raise KernelBug("fst of non-pair value")


def project_snd(pair: v.Value) -> v.Value:
    match pair:
        case v.VPair(_, snd):
            return snd
        case v.VNeutral() | v.VGlued():
            return pair.extend(v.SndF())
        case _:
            raise KernelBug("snd of non-pair value")


def j_elim(motive: v.Closure, base: v.Closure, path: v.Value) -> v.Value:
    match path:
        case v.VRefl(arg):
            return base(arg)
        case v.VNeutral() | v.VGlued():
            return path.extend(v.JF(motive, base))
        case _:
            raise KernelBug("J applied to non-path value")


def nat_elim(motive: v.Closure, base: v.Value, step: v.Closure, target: v.Value) -> v.Value:
    match target:
        case v.VZero():
            return base
        case v.VSuc(pred):
            return step(pred, nat_elim(motive, base, step, pred))
        case v.VNeutral() | v.VGlued():
            return target.extend(v.NatElimF(motive, base, step))
        case _:
            raise KernelBug("natElim applied to non-numeral value")


def two_elim(motive: v.Closure, if0: v.Value, if1: v.Value, target: v.Value) -> v.Value:
    match target:
        case v.VBit0():
            return if0
        case v.VBit1():
            return if1
        case v.VNeutral() | v.VGlued():
            return target.extend(v.TwoElimF(motive, if0, if1))
        case _:
            raise KernelBug("twoElim applied to non-boolean value")


def empty_elim(motive: v.Closure, target: v.Value) -> v.Value:
    match target:
        case v.VNeutral() | v.VGlued():
            return target.extend(v.EmptyElimF(motive))
        case _:
            raise KernelBug("emptyElim applied to a closed value")


# --- delta unfolding ---


def whnf(value: v.Value) -> v.Value:
    """Unfold glued definitions until the value's shape is visible."""
    while isinstance(value, v.VGlued):
        if value.unfolded is None:
            value.unfolded = _eliminate(whnf(value.parent), value.frame)
        value = value.unfolded
    return value


def _eliminate(value: v.Value, frame) -> v.Value:
    match frame:
        case v.AppF(arg):
            return apply(value, arg)
        case v.FstF():
            return project_fst(value)
        case v.SndF():
            return project_snd(value)
        case v.JF(motive, base):
            return j_elim(motive, base, value)
        case v.NatElimF(motive, base, step):
            return nat_elim(motive, base, step, value)
        case v.TwoElimF(motive, if0, if1):
            return two_elim(motive, if0, if1, value)
        case v.EmptyElimF(motive):
            return empty_elim(motive, value)
        case _:
            raise KernelBug("bad spine frame")


# --- quotation ---


def quote(depth: int, value: v.Value) -> t.Term:
    match value:
        case v.VUniv(level):
            return t.Univ(level)
        case v.VPi(dom, cod):
            return t.Pi(quote(depth, dom), quote(depth + 1, cod(v.fresh(depth))))
        case v.VLam(body):
            return t.Lam(quote(depth + 1, body(v.fresh(depth))))
        case v.VSigma(fst_ty, snd_ty):
            return t.Sigma(quote(depth, fst_ty), quote(depth + 1, snd_ty(v.fresh(depth))))
        case v.VPair(fst, snd):
            return t.Pair(quote(depth, fst), quote(depth, snd))
        case v.VId(ty, lhs, rhs):
            return t.Id(quote(depth, ty), quote(depth, lhs), quote(depth, rhs))
        case v.VRefl(arg):
            return t.Refl(quote(depth, arg))
        case v.VNat():
            return t.Nat()
        case v.VZero():
            return t.Zero()
        case v.VSuc(pred):
            return t.Suc(quote(depth, pred))
        case v.VEmpty():
            return t.Empty()
        case v.VUnit():
            return t.Unit()
        case v.VStar():
            return t.Star()
        case v.VTwo():
            return t.Two()
        case v.VBit0():
            return t.Bit0()
        case v.VBit1():
            return t.Bit1()
        case v.VNeutral(head, spine):
            return quote_neutral(depth, head, spine)
        case v.VGlued():
            return quote(depth, whnf(value))
        case _:
            raise KernelBug(f"quote: unhandled value {value!r}")


def quote_closure(depth: int, closure: v.Closure) -> t.Term:
    args = tuple(v.fresh(depth + i) for i in range(closure.arity))
    return quote(depth + closure.arity, closure(*args))


def quote_neutral(depth: int, head, spine: tuple) -> t.Term:
    match head:
        case v.VVar(level):
            term: t.Term = t.Var(depth - 1 - level)
        case v.VAxiom(name):
            term = t.Ref(name)
            t.Linked.target.__set__(term, v.VNeutral(head))
        case _:
            raise KernelBug("bad neutral head")
    for frame in spine:
        match frame:
            case v.AppF(arg):
                term = t.App(term, quote(depth, arg))
            case v.FstF():
                term = t.Fst(term)
            case v.SndF():
                term = t.Snd(term)
            case v.JF(motive, base):
                term = t.J(quote_closure(depth, motive), quote_closure(depth, base), term)
            case v.NatElimF(motive, base, step):
                term = t.NatElim(
                    quote_closure(depth, motive),
                    quote(depth, base),
                    quote_closure(depth, step),
                    term,
                )
            case v.TwoElimF(motive, if0, if1):
                term = t.TwoElim(
                    quote_closure(depth, motive),
                    quote(depth, if0),
                    quote(depth, if1),
                    term,
                )
            case v.EmptyElimF(motive):
                term = t.EmptyElim(quote_closure(depth, motive), term)
            case _:
                raise KernelBug("bad spine frame")
    return term


def normalize(env: tuple, term: t.Term) -> t.Term:
    return quote(len(env), evaluate(env, term))
