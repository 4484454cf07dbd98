"""Evaluation into the semantic domain and quotation back to terms.

Every step dispatches once on its node's class: `evaluate` looks the term's
class up in `_EVAL`, `quote` the value's class in `_QUOTE`, and a neutral's
spine frames are quoted through `_QUOTE_FRAME` and unfolded through
`_ELIMINATE`, so a step costs the same whatever its class.  The eliminators
(`apply`, `project_fst`, ...) test `value.__class__ is C`.  A class missing
from a table is a `KernelBug`, never a bare `KeyError`.
"""

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
    try:
        rule = _EVAL[term.__class__]
    except KeyError:
        raise KernelBug(f"evaluate: unhandled term {term!r}") from None
    return rule(env, term)


def _eval_var(env: tuple, term: t.Var) -> v.Value:
    try:
        return env[-1 - term.index]
    except IndexError:
        raise KernelBug(f"unbound de Bruijn index {term.index} at depth {len(env)}") from None


def _eval_ref(env: tuple, term: t.Ref) -> v.Value:
    try:
        return term.target
    except AttributeError:
        raise KernelBug(f"reference to {term.name} was never linked") from None


# Recursive steps call `evaluate` by its module name, so a wrapper installed
# there (a test's memo, say) sees every evaluation.
_EVAL = {
    t.App: lambda env, term: apply(evaluate(env, term.fn), evaluate(env, term.arg)),
    t.Var: _eval_var,
    t.Ref: _eval_ref,
    t.Lam: lambda env, term: v.VLam(v.Closure(env, term.body)),
    t.Pi: lambda env, term: v.VPi(evaluate(env, term.dom), v.Closure(env, term.cod)),
    t.Univ: lambda env, term: v.univ(term.level),
    t.Sigma: lambda env, term: v.VSigma(evaluate(env, term.fst_ty), v.Closure(env, term.snd_ty)),
    t.Pair: lambda env, term: v.VPair(evaluate(env, term.fst), evaluate(env, term.snd)),
    t.Fst: lambda env, term: project_fst(evaluate(env, term.pair)),
    t.Snd: lambda env, term: project_snd(evaluate(env, term.pair)),
    t.Id: lambda env, term: v.VId(evaluate(env, term.ty), evaluate(env, term.lhs), evaluate(env, term.rhs)),
    t.Refl: lambda env, term: v.VRefl(evaluate(env, term.arg)),
    t.J: lambda env, term: j_elim(
        v.Closure(env, term.motive, 3), v.Closure(env, term.base, 1), evaluate(env, term.path)
    ),
    t.Nat: lambda env, term: v.NAT,
    t.Zero: lambda env, term: v.ZERO,
    t.Suc: lambda env, term: v.VSuc(evaluate(env, term.pred)),
    t.NatElim: lambda env, term: nat_elim(
        v.Closure(env, term.motive, 1),
        evaluate(env, term.base),
        v.Closure(env, term.step, 2),
        evaluate(env, term.target),
    ),
    t.Empty: lambda env, term: v.EMPTY,
    t.EmptyElim: lambda env, term: empty_elim(v.Closure(env, term.motive, 1), evaluate(env, term.target)),
    t.Unit: lambda env, term: v.UNIT,
    t.Star: lambda env, term: v.STAR,
    t.Two: lambda env, term: v.TWO,
    t.Bit0: lambda env, term: v.BIT0,
    t.Bit1: lambda env, term: v.BIT1,
    t.TwoElim: lambda env, term: two_elim(
        v.Closure(env, term.motive, 1),
        evaluate(env, term.if0),
        evaluate(env, term.if1),
        evaluate(env, term.target),
    ),
    t.Ann: lambda env, term: evaluate(env, term.term),
}


def apply(fn: v.Value, arg: v.Value) -> v.Value:
    kind = fn.__class__
    if kind is v.VLam:
        return fn.body(arg)
    if kind is v.VNeutral or kind is v.VGlued:
        return fn.extend(v.AppF(arg))
    raise KernelBug(f"apply of non-function value {kind.__name__}")


def project_fst(pair: v.Value) -> v.Value:
    kind = pair.__class__
    if kind is v.VPair:
        return pair.fst
    if kind is v.VNeutral or kind is v.VGlued:
        return pair.extend(v.FST)
    raise KernelBug("fst of non-pair value")


def project_snd(pair: v.Value) -> v.Value:
    kind = pair.__class__
    if kind is v.VPair:
        return pair.snd
    if kind is v.VNeutral or kind is v.VGlued:
        return pair.extend(v.SND)
    raise KernelBug("snd of non-pair value")


def j_elim(motive: v.Closure, base: v.Closure, path: v.Value) -> v.Value:
    kind = path.__class__
    if kind is v.VRefl:
        return base(path.arg)
    if kind is v.VNeutral or kind is v.VGlued:
        return path.extend(v.JF(motive, base))
    raise KernelBug("J applied to non-path value")


def nat_elim(motive: v.Closure, base: v.Value, step: v.Closure, target: v.Value) -> v.Value:
    kind = target.__class__
    if kind is v.VZero:
        return base
    if kind is v.VSuc:
        return step(target.pred, nat_elim(motive, base, step, target.pred))
    if kind is v.VNeutral or kind is v.VGlued:
        return target.extend(v.NatElimF(motive, base, step))
    raise KernelBug("natElim applied to non-numeral value")


def two_elim(motive: v.Closure, if0: v.Value, if1: v.Value, target: v.Value) -> v.Value:
    kind = target.__class__
    if kind is v.VBit0:
        return if0
    if kind is v.VBit1:
        return if1
    if kind is v.VNeutral or kind is v.VGlued:
        return target.extend(v.TwoElimF(motive, if0, if1))
    raise KernelBug("twoElim applied to non-boolean value")


def empty_elim(motive: v.Closure, target: v.Value) -> v.Value:
    kind = target.__class__
    if kind is v.VNeutral or kind is v.VGlued:
        return target.extend(v.EmptyElimF(motive))
    raise KernelBug("emptyElim applied to a closed value")


# --- delta unfolding ---


def whnf(value: v.Value) -> v.Value:
    """Unfold glued definitions until the value's shape is visible."""
    while value.__class__ is v.VGlued:
        if value.unfolded is None:
            value.unfolded = _eliminate(whnf(value.parent), value.frame)
        value = value.unfolded
    return value


def _eliminate(value: v.Value, frame) -> v.Value:
    try:
        rule = _ELIMINATE[frame.__class__]
    except KeyError:
        raise KernelBug("bad spine frame") from None
    return rule(value, frame)


_ELIMINATE = {
    v.AppF: lambda value, frame: apply(value, frame.arg),
    v.FstF: lambda value, frame: project_fst(value),
    v.SndF: lambda value, frame: project_snd(value),
    v.JF: lambda value, frame: j_elim(frame.motive, frame.base, value),
    v.NatElimF: lambda value, frame: nat_elim(frame.motive, frame.base, frame.step, value),
    v.TwoElimF: lambda value, frame: two_elim(frame.motive, frame.if0, frame.if1, value),
    v.EmptyElimF: lambda value, frame: empty_elim(frame.motive, value),
}


# --- quotation ---


def quote(depth: int, value: v.Value) -> t.Term:
    try:
        rule = _QUOTE[value.__class__]
    except KeyError:
        raise KernelBug(f"quote: unhandled value {value!r}") from None
    return rule(depth, value)


_QUOTE = {
    v.VNeutral: lambda depth, value: quote_neutral(depth, value.head, value.spine),
    v.VGlued: lambda depth, value: quote(depth, whnf(value)),
    v.VLam: lambda depth, value: t.Lam(quote(depth + 1, value.body(v.fresh(depth)))),
    v.VPi: lambda depth, value: t.Pi(quote(depth, value.dom), quote(depth + 1, value.cod(v.fresh(depth)))),
    v.VUniv: lambda depth, value: t.Univ(value.level),
    v.VSigma: lambda depth, value: t.Sigma(
        quote(depth, value.fst_ty), quote(depth + 1, value.snd_ty(v.fresh(depth)))
    ),
    v.VPair: lambda depth, value: t.Pair(quote(depth, value.fst), quote(depth, value.snd)),
    v.VId: lambda depth, value: t.Id(quote(depth, value.ty), quote(depth, value.lhs), quote(depth, value.rhs)),
    v.VRefl: lambda depth, value: t.Refl(quote(depth, value.arg)),
    v.VNat: lambda depth, value: t.Nat(),
    v.VZero: lambda depth, value: t.Zero(),
    v.VSuc: lambda depth, value: t.Suc(quote(depth, value.pred)),
    v.VEmpty: lambda depth, value: t.Empty(),
    v.VUnit: lambda depth, value: t.Unit(),
    v.VStar: lambda depth, value: t.Star(),
    v.VTwo: lambda depth, value: t.Two(),
    v.VBit0: lambda depth, value: t.Bit0(),
    v.VBit1: lambda depth, value: t.Bit1(),
}


def quote_closure(depth: int, closure: v.Closure) -> t.Term:
    args = tuple(v.fresh(depth + i) for i in range(closure.arity))
    return quote(depth + closure.arity, closure(*args))


def quote_neutral(depth: int, head, spine: tuple) -> t.Term:
    kind = head.__class__
    if kind is v.VVar:
        term: t.Term = t.Var(depth - 1 - head.level)
    elif kind is v.VAxiom:
        term = t.Ref(head.name)
        t.Linked.target.__set__(term, v.VNeutral(head))
    else:
        raise KernelBug("bad neutral head")
    for frame in spine:
        try:
            rule = _QUOTE_FRAME[frame.__class__]
        except KeyError:
            raise KernelBug("bad spine frame") from None
        term = rule(depth, frame, term)
    return term


# Each rule wraps the quoted neutral `term` in the frame's eliminator.
_QUOTE_FRAME = {
    v.AppF: lambda depth, frame, term: t.App(term, quote(depth, frame.arg)),
    v.FstF: lambda depth, frame, term: t.Fst(term),
    v.SndF: lambda depth, frame, term: t.Snd(term),
    v.JF: lambda depth, frame, term: t.J(
        quote_closure(depth, frame.motive), quote_closure(depth, frame.base), term
    ),
    v.NatElimF: lambda depth, frame, term: t.NatElim(
        quote_closure(depth, frame.motive), quote(depth, frame.base), quote_closure(depth, frame.step), term
    ),
    v.TwoElimF: lambda depth, frame, term: t.TwoElim(
        quote_closure(depth, frame.motive), quote(depth, frame.if0), quote(depth, frame.if1), term
    ),
    v.EmptyElimF: lambda depth, frame, term: t.EmptyElim(quote_closure(depth, frame.motive), term),
}


def normalize(env: tuple, term: t.Term) -> t.Term:
    return quote(len(env), evaluate(env, term))
