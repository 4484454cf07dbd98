"""Bidirectional type checking against the semantic domain.

Every step dispatches once on its term's class: `Checker.infer` looks the
term's class up in `_INFER`, and `Checker.check` in `_CHECK`, which holds
the terms checked against the shape of the unfolded expected type (`Lam`,
`Pair`, `Refl`); any other term is inferred and compared by `subtype`.
A class missing from `_INFER` is a `KernelBug`, never a bare `KeyError`.
Rules reach `evaluate`, `quote`, `conv`, `subtype` and `printer.print_term`
through module attributes, so that a wrapper installed there sees each call.
"""

from __future__ import annotations

from . import printer
from . import terms as t
from . import values as v
from .conversion import conv, subtype
from .decls import Declaration
from .diagnostics import CheckFailure, Diagnostic, KernelBug, Span
from .evaluate import evaluate, project_fst, quote, whnf
from .globals import Globals
from .records import record


@record
class Context:
    """Ordered telescope of binder types plus the matching neutral environment."""

    entries: tuple = ()  # tuple[(name_hint, Value), ...], innermost last
    env: tuple = ()  # (fresh(0), ..., fresh(depth - 1))

    @property
    def depth(self) -> int:
        return len(self.entries)

    def extend(self, hint: str, ty: v.Value) -> "Context":
        return Context(self.entries + ((hint, ty),), self.env + (v.fresh(self.depth),))

    def lookup(self, index: int) -> v.Value:
        return self.entries[-1 - index][1]


# The type of each constant; for each literal that only checks, the type
# former it checks against and the word its diagnostics use for it.
_CONST_TYPES = {
    **dict.fromkeys((t.Nat, t.Empty, t.Unit, t.Two), v.univ(0)),
    t.Zero: v.NAT,
    t.Star: v.UNIT,
    t.Bit0: v.TWO,
    t.Bit1: v.TWO,
}
_LITERALS = {t.Lam: (v.VPi, "function"), t.Pair: (v.VSigma, "pair")}


class Checker:
    def __init__(self, glob: Globals):
        self.glob = glob

    def fail(self, code: str, message: str, span: Span = Span(0, 0)):
        raise CheckFailure(Diagnostic(code, message, span))

    def show(self, ctx: Context, value: v.Value) -> str:
        return printer.print_term(quote(ctx.depth, value), [hint for hint, _ in ctx.entries])

    def ensure_universe(self, ctx: Context, value: v.Value, what: str) -> int:
        if (forced := whnf(value)).__class__ is v.VUniv:
            return forced.level
        self.fail("not-a-type", f"{what} has type {self.show(ctx, value)}, expected a universe")

    def infer_type(self, ctx: Context, term: t.Term, what: str = "term") -> tuple[v.Value, int]:
        """Infer `term`, require it to be a type; return (its value, universe level)."""
        level = self.ensure_universe(ctx, self.infer(ctx, term), what)
        return evaluate(ctx.env, term), level

    def infer(self, ctx: Context, term: t.Term) -> v.Value:
        try:
            rule = _INFER[term.__class__]
        except KeyError:
            raise KernelBug(f"infer: unhandled term {term!r}") from None
        return rule(self, ctx, term)

    def check(self, ctx: Context, term: t.Term, expected: v.Value) -> None:
        _CHECK.get(term.__class__, Checker._check_inferred)(self, ctx, term, expected)

    def _infer_var(self, ctx: Context, term: t.Var) -> v.Value:
        try:
            return ctx.lookup(term.index)
        except IndexError:
            raise KernelBug(f"unbound de Bruijn index {term.index} at depth {ctx.depth}") from None

    def _infer_univ(self, ctx: Context, term: t.Univ) -> v.Value:
        if term.level + 1 > (max_level := self.glob.config.max_level):
            self.fail("level-overflow", f"universe U{term.level} exceeds max_level {max_level}")
        return v.univ(term.level + 1)

    def _infer_quantifier(self, ctx: Context, term: t.Pi | t.Sigma) -> v.Value:
        dom, cod = (getattr(term, field) for field in term.__match_args__)
        dom_v, i = self.infer_type(ctx, dom, "domain")
        cod_ctx = ctx.extend("x", dom_v)
        j = self.ensure_universe(cod_ctx, self.infer(cod_ctx, cod), "codomain")
        return v.univ(max(i, j))

    def _infer_literal(self, ctx: Context, term: t.Lam | t.Pair) -> v.Value:
        self.fail("cannot-infer", f"unannotated {_LITERALS[term.__class__][1]} in inference position")

    def _infer_app(self, ctx: Context, term: t.App) -> v.Value:
        fn_ty = whnf(self.infer(ctx, term.fn))
        if fn_ty.__class__ is not v.VPi:
            self.fail("not-a-function", f"application head has type {self.show(ctx, fn_ty)}, expected a function")
        self.check(ctx, term.arg, fn_ty.dom)
        return fn_ty.cod(evaluate(ctx.env, term.arg))

    def _infer_projection(self, ctx: Context, term: t.Fst | t.Snd) -> v.Value:
        pair_ty = whnf(self.infer(ctx, term.pair))
        first = term.__class__ is t.Fst
        if pair_ty.__class__ is not v.VSigma:
            self.fail("not-a-pair", f"{'fst' if first else 'snd'} of a term of type {self.show(ctx, pair_ty)}")
        return pair_ty.fst_ty if first else pair_ty.snd_ty(project_fst(evaluate(ctx.env, term.pair)))

    def _infer_id(self, ctx: Context, term: t.Id) -> v.Value:
        ty_v, level = self.infer_type(ctx, term.ty, "identity-type carrier")
        self.check(ctx, term.lhs, ty_v)
        self.check(ctx, term.rhs, ty_v)
        return v.univ(level)

    def _infer_refl(self, ctx: Context, term: t.Refl) -> v.Value:
        arg_ty, arg_v = self.infer(ctx, term.arg), evaluate(ctx.env, term.arg)
        return v.VId(arg_ty, arg_v, arg_v)

    def _infer_j(self, ctx: Context, term: t.J) -> v.Value:
        path_ty = whnf(self.infer(ctx, term.path))
        if path_ty.__class__ is not v.VId:
            self.fail("not-a-path", f"J applied to a term of type {self.show(ctx, path_ty)}")
        carrier, x, y = path_ty.ty, v.fresh(ctx.depth), v.fresh(ctx.depth + 1)
        xyp = ctx.extend("x", carrier).extend("y", carrier).extend("p", v.VId(carrier, x, y))
        self.infer_type(xyp, term.motive, "J motive")
        motive = v.Closure(ctx.env, term.motive, 3)
        self.check(ctx.extend("x", carrier), term.base, motive(x, x, v.VRefl(x)))
        return motive(path_ty.lhs, path_ty.rhs, evaluate(ctx.env, term.path))

    def _elim_motive(self, ctx: Context, term, hint: str, target_ty: v.Value) -> v.Closure:
        """Check an eliminator's target, then its one-binder motive; return the motive."""
        self.check(ctx, term.target, target_ty)
        self.infer_type(ctx.extend(hint, target_ty), term.motive, "motive")
        return v.Closure(ctx.env, term.motive, 1)

    def _infer_nat_elim(self, ctx: Context, term: t.NatElim) -> v.Value:
        motive = self._elim_motive(ctx, term, "n", v.NAT)
        self.check(ctx, term.base, motive(v.ZERO))
        n = v.fresh(ctx.depth)
        self.check(ctx.extend("n", v.NAT).extend("ih", motive(n)), term.step, motive(v.VSuc(n)))
        return motive(evaluate(ctx.env, term.target))

    def _infer_two_elim(self, ctx: Context, term: t.TwoElim) -> v.Value:
        motive = self._elim_motive(ctx, term, "b", v.TWO)
        self.check(ctx, term.if0, motive(v.BIT0))
        self.check(ctx, term.if1, motive(v.BIT1))
        return motive(evaluate(ctx.env, term.target))

    def _infer_suc(self, ctx: Context, term: t.Suc) -> v.Value:
        self.check(ctx, term.pred, v.NAT)
        return v.NAT

    def _infer_ann(self, ctx: Context, term: t.Ann) -> v.Value:
        ty_v, _ = self.infer_type(ctx, term.ty, "annotation")
        self.check(ctx, term.term, ty_v)
        return ty_v

    # Checking reads the unfolded type but passes `expected` itself to
    # `subtype`, which can compare glued definitions without unfolding.

    def _check_literal(self, ctx: Context, term: t.Lam | t.Pair, expected: v.Value) -> None:
        former, noun = _LITERALS[term.__class__]
        if (ty := whnf(expected)).__class__ is not former:
            message = f"{noun} literal checked against non-{noun} type {self.show(ctx, expected)}"
            self.fail("type-mismatch", message)
        if term.__class__ is t.Lam:
            self.check(ctx.extend("x", ty.dom), term.body, ty.cod(v.fresh(ctx.depth)))
        else:
            self.check(ctx, term.fst, ty.fst_ty)
            self.check(ctx, term.snd, ty.snd_ty(evaluate(ctx.env, term.fst)))

    def _check_refl(self, ctx: Context, term: t.Refl, expected: v.Value) -> None:
        if (ty := whnf(expected)).__class__ is not v.VId:
            return self._check_inferred(ctx, term, expected)
        self.check(ctx, term.arg, ty.ty)
        arg_v, eta_sigma = evaluate(ctx.env, term.arg), self.glob.config.eta_sigma
        if not all(conv(ctx.depth, arg_v, end, ty.ty, eta_sigma=eta_sigma) for end in (ty.lhs, ty.rhs)):
            arg, lhs, rhs = (self.show(ctx, value) for value in (arg_v, ty.lhs, ty.rhs))
            message = f"refl {arg} checked against Id {lhs} {rhs}"
            self.fail("endpoint-mismatch", f"refl endpoints do not match: {message}")

    def _check_inferred(self, ctx: Context, term: t.Term, expected: v.Value) -> None:
        actual = self.infer(ctx, term)
        if not subtype(ctx.depth, actual, expected, eta_sigma=self.glob.config.eta_sigma):
            self.fail("type-mismatch", f"expected {self.show(ctx, expected)}, found {self.show(ctx, actual)}")

    # -- declarations --

    def check_declaration(self, decl: Declaration) -> None:
        ctx = Context()
        ty_v, _ = self.infer_type(ctx, decl.ty, f"type of {decl.name}")
        if decl.kind == "axiom":
            if decl.body is not None:
                self.fail("axiom-with-body", f"axiom {decl.name} must not have a body", decl.span)
            self.glob.add_axiom(decl.name, ty_v)
            return
        if decl.body is None:
            self.fail("missing-body", f"{decl.kind} {decl.name} requires a body", decl.span)
        self.check(ctx, decl.body, ty_v)
        if decl.kind == "def":
            self.glob.add_def(decl.name, ty_v, evaluate((), decl.body))
        # goals are checked and reported but bind nothing


_INFER = {
    **dict.fromkeys(_CONST_TYPES, lambda self, ctx, term: _CONST_TYPES[term.__class__]),
    **dict.fromkeys(_LITERALS, Checker._infer_literal),
    t.Var: Checker._infer_var,
    # `Resolver.resolve` has rejected every unknown or rejected name
    t.Ref: lambda self, ctx, term: self.glob.entries[term.name].type_value,
    t.Univ: Checker._infer_univ,
    **dict.fromkeys((t.Pi, t.Sigma), Checker._infer_quantifier),
    t.App: Checker._infer_app,
    **dict.fromkeys((t.Fst, t.Snd), Checker._infer_projection),
    t.Id: Checker._infer_id,
    t.Refl: Checker._infer_refl,
    t.J: Checker._infer_j,
    t.Suc: Checker._infer_suc,
    t.NatElim: Checker._infer_nat_elim,
    t.TwoElim: Checker._infer_two_elim,
    t.EmptyElim: lambda self, ctx, term: self._elim_motive(ctx, term, "e", v.EMPTY)(
        evaluate(ctx.env, term.target)
    ),
    t.Ann: Checker._infer_ann,
}
_CHECK = {**dict.fromkeys(_LITERALS, Checker._check_literal), t.Refl: Checker._check_refl}
