"""Evaluation into the semantic domain and quotation back to terms.

Every step dispatches once on its node's class: `evaluate` looks the term's
class up in `_EVAL`, `quote` the value's class in `_QUOTE`, and a glued
value's frame is unfolded by its node's eliminator in `_ELIMINATE`, so a
step costs the same whatever its class.  A universe or a closed constant
is its own value (see `terms`): its rule returns the shared instance, and
`quote` gives it back unchanged.  The eliminators (`apply`, `j_elim`, ...)
take their target first and then a frame's fields (see `values`), and test
`value.__class__ is C`.  `quote_neutral` builds a frame's node from its
quoted fields, a `Closure` through `quote_closure`, and the quoted target.
A class missing from a table, or a node without an eliminator, is a
`KernelBug`, never a bare `KeyError`.
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


def _shared(constant: t.Term):
    return lambda env, term: constant


# Recursive steps call `evaluate` by its module name, so a wrapper installed
# there (a test's memo, say) sees every evaluation.
_EVAL = {
    t.App: lambda env, term: apply(evaluate(env, term.fn), evaluate(env, term.arg)),
    t.Var: _eval_var,
    t.Ref: _eval_ref,
    t.Lam: lambda env, term: v.VLam(v.Closure(env, term.body)),
    t.Pi: lambda env, term: v.VPi(evaluate(env, term.dom), v.Closure(env, term.cod)),
    t.Univ: lambda env, term: t.univ(term.level),
    **{c.__class__: _shared(c) for c in (t.NAT, t.ZERO, t.TWO, t.BIT0, t.BIT1, t.UNIT, t.STAR, t.EMPTY)},
    t.Sigma: lambda env, term: v.VSigma(evaluate(env, term.fst_ty), v.Closure(env, term.snd_ty)),
    t.Pair: lambda env, term: v.VPair(evaluate(env, term.fst), evaluate(env, term.snd)),
    t.Fst: lambda env, term: project_fst(evaluate(env, term.pair)),
    t.Snd: lambda env, term: project_snd(evaluate(env, term.pair)),
    t.Id: lambda env, term: v.VId(evaluate(env, term.ty), evaluate(env, term.lhs), evaluate(env, term.rhs)),
    t.Refl: lambda env, term: v.VRefl(evaluate(env, term.arg)),
    t.J: lambda env, term: j_elim(
        evaluate(env, term.path), v.Closure(env, term.motive, 3), v.Closure(env, term.base, 1)
    ),
    t.Suc: lambda env, term: v.VSuc(evaluate(env, term.pred)),
    t.NatElim: lambda env, term: nat_elim(
        evaluate(env, term.target),
        v.Closure(env, term.motive, 1),
        evaluate(env, term.base),
        v.Closure(env, term.step, 2),
    ),
    t.EmptyElim: lambda env, term: empty_elim(evaluate(env, term.target), v.Closure(env, term.motive, 1)),
    t.TwoElim: lambda env, term: two_elim(
        evaluate(env, term.target), v.Closure(env, term.motive, 1), evaluate(env, term.if0), evaluate(env, term.if1)
    ),
    t.Ann: lambda env, term: evaluate(env, term.term),
}


def apply(fn: v.Value, arg: v.Value) -> v.Value:
    kind = fn.__class__
    if kind is v.VLam:
        return fn.body(arg)
    if kind is v.VNeutral or kind is v.VGlued:
        return fn.extend((t.App, arg))
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


def j_elim(path: v.Value, motive: v.Closure, base: v.Closure) -> v.Value:
    kind = path.__class__
    if kind is v.VRefl:
        return base(path.arg)
    if kind is v.VNeutral or kind is v.VGlued:
        return path.extend((t.J, motive, base))
    raise KernelBug("J applied to non-path value")


def nat_elim(target: v.Value, motive: v.Closure, base: v.Value, step: v.Closure) -> v.Value:
    kind = target.__class__
    if kind is t.Zero:
        return base
    if kind is v.VSuc:
        return step(target.pred, nat_elim(target.pred, motive, base, step))
    if kind is v.VNeutral or kind is v.VGlued:
        return target.extend((t.NatElim, motive, base, step))
    raise KernelBug("natElim applied to non-numeral value")


def two_elim(target: v.Value, motive: v.Closure, if0: v.Value, if1: v.Value) -> v.Value:
    kind = target.__class__
    if kind is t.Bit0:
        return if0
    if kind is t.Bit1:
        return if1
    if kind is v.VNeutral or kind is v.VGlued:
        return target.extend((t.TwoElim, motive, if0, if1))
    raise KernelBug("twoElim applied to non-boolean value")


def empty_elim(target: v.Value, motive: v.Closure) -> v.Value:
    kind = target.__class__
    if kind is v.VNeutral or kind is v.VGlued:
        return target.extend((t.EmptyElim, motive))
    raise KernelBug("emptyElim applied to a closed value")


# --- delta unfolding ---


def whnf(value: v.Value) -> v.Value:
    """Unfold glued definitions until the value's shape is visible."""
    while value.__class__ is v.VGlued:
        if value.unfolded is None:
            value.unfolded = _eliminate(whnf(value.parent), value.frame)
        value = value.unfolded
    return value


def _eliminate(value: v.Value, frame: tuple) -> v.Value:
    try:
        eliminator = _ELIMINATE[frame[0]]
    except KeyError:
        raise KernelBug("bad spine frame") from None
    return eliminator(value, *frame[1:])


_ELIMINATE = {
    t.App: apply,
    t.Fst: project_fst,
    t.Snd: project_snd,
    t.J: j_elim,
    t.NatElim: nat_elim,
    t.TwoElim: two_elim,
    t.EmptyElim: empty_elim,
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
    v.VSigma: lambda depth, value: t.Sigma(
        quote(depth, value.fst_ty), quote(depth + 1, value.snd_ty(v.fresh(depth)))
    ),
    v.VPair: lambda depth, value: t.Pair(quote(depth, value.fst), quote(depth, value.snd)),
    v.VId: lambda depth, value: t.Id(quote(depth, value.ty), quote(depth, value.lhs), quote(depth, value.rhs)),
    v.VRefl: lambda depth, value: t.Refl(quote(depth, value.arg)),
    v.VSuc: lambda depth, value: t.Suc(quote(depth, value.pred)),
    **dict.fromkeys(
        (t.Univ, t.Nat, t.Zero, t.Empty, t.Unit, t.Star, t.Two, t.Bit0, t.Bit1), lambda depth, value: value
    ),
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
        node = frame[0]
        if node is t.App:  # the commonest frame, and the one whose target is the term's first field
            term = t.App(term, quote(depth, frame[1]))
        elif node in _ELIMINATE:
            fields = [quote_closure(depth, f) if f.__class__ is v.Closure else quote(depth, f) for f in frame[1:]]
            term = node(*fields, term)
        else:
            raise KernelBug("bad spine frame")
    return term


def normalize(env: tuple, term: t.Term) -> t.Term:
    return quote(len(env), evaluate(env, term))
