"""Bidirectional type checking against the semantic domain."""

from __future__ import annotations

from . import terms as t
from . import values as v
from .conversion import conv, subtype
from .decls import Declaration
from .diagnostics import CheckFailure, Diagnostic, Span
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


class Checker:
    def __init__(self, glob: Globals):
        self.glob = glob

    # -- helpers --

    def fail(self, code: str, message: str, span: Span = Span(0, 0)):
        raise CheckFailure(Diagnostic(code, message, span))

    def show(self, ctx: Context, value: v.Value) -> str:
        from .printer import print_term

        return print_term(quote(ctx.depth, value), [hint for hint, _ in ctx.entries])

    def eval_in(self, ctx: Context, term: t.Term) -> v.Value:
        return evaluate(ctx.env, term)

    def conv(self, ctx: Context, a: v.Value, b: v.Value, ty: v.Value | None = None) -> bool:
        return conv(ctx.depth, a, b, ty, eta_sigma=self.glob.config.eta_sigma)

    def ensure_universe(self, ctx: Context, value: v.Value, what: str) -> int:
        if isinstance(forced := whnf(value), v.VUniv):
            return forced.level
        self.fail("not-a-type", f"{what} has type {self.show(ctx, value)}, expected a universe")

    def infer_type(self, ctx: Context, term: t.Term, what: str = "term") -> tuple[v.Value, int]:
        """Infer `term`, require it to be a type; return (its value, universe level)."""
        level = self.ensure_universe(ctx, self.infer(ctx, term), what)
        return self.eval_in(ctx, term), level

    # -- inference --

    def infer(self, ctx: Context, term: t.Term) -> v.Value:
        match term:
            case t.Var(index):
                if index >= ctx.depth:
                    self.fail("unbound-variable", f"de Bruijn index {index} out of range")
                return ctx.lookup(index)
            case t.Univ(level):
                if level + 1 > self.glob.config.max_level:
                    self.fail(
                        "level-overflow",
                        f"universe U{level} exceeds max_level {self.glob.config.max_level}",
                    )
                return v.VUniv(level + 1)
            case t.Pi(dom, cod) | t.Sigma(dom, cod):
                dom_v, i = self.infer_type(ctx, dom, "domain")
                cod_ctx = ctx.extend("x", dom_v)
                j = self.ensure_universe(cod_ctx, self.infer(cod_ctx, cod), "codomain")
                return v.VUniv(max(i, j))
            case t.Lam(_):
                self.fail("cannot-infer", "unannotated function in inference position")
            case t.Pair(_, _):
                self.fail("cannot-infer", "unannotated pair in inference position")
            case t.App(fn, arg):
                fn_ty = whnf(self.infer(ctx, fn))
                if not isinstance(fn_ty, v.VPi):
                    self.fail(
                        "not-a-function",
                        f"application head has type {self.show(ctx, fn_ty)}, expected a function",
                    )
                self.check(ctx, arg, fn_ty.dom)
                return fn_ty.cod(self.eval_in(ctx, arg))
            case t.Fst(pair):
                pair_ty = whnf(self.infer(ctx, pair))
                if not isinstance(pair_ty, v.VSigma):
                    self.fail("not-a-pair", f"fst of a term of type {self.show(ctx, pair_ty)}")
                return pair_ty.fst_ty
            case t.Snd(pair):
                pair_ty = whnf(self.infer(ctx, pair))
                if not isinstance(pair_ty, v.VSigma):
                    self.fail("not-a-pair", f"snd of a term of type {self.show(ctx, pair_ty)}")
                return pair_ty.snd_ty(project_fst(self.eval_in(ctx, pair)))
            case t.Id(ty, lhs, rhs):
                ty_v, level = self.infer_type(ctx, ty, "identity-type carrier")
                self.check(ctx, lhs, ty_v)
                self.check(ctx, rhs, ty_v)
                return v.VUniv(level)
            case t.Refl(arg):
                arg_ty = self.infer(ctx, arg)
                arg_v = self.eval_in(ctx, arg)
                return v.VId(arg_ty, arg_v, arg_v)
            case t.J(motive, base, path):
                return self.infer_j(ctx, motive, base, path)
            case t.Nat() | t.Empty() | t.Unit() | t.Two():
                return v.VUniv(0)
            case t.Zero():
                return v.VNat()
            case t.Suc(pred):
                self.check(ctx, pred, v.VNat())
                return v.VNat()
            case t.NatElim(motive, base, step, target):
                return self.infer_nat_elim(ctx, motive, base, step, target)
            case t.EmptyElim(motive, target):
                self.check(ctx, target, v.VEmpty())
                motive_ctx = ctx.extend("e", v.VEmpty())
                self.infer_type(motive_ctx, motive, "motive")
                cl = v.Closure(ctx.env, motive, 1)
                return cl(self.eval_in(ctx, target))
            case t.Star():
                return v.VUnit()
            case t.Bit0() | t.Bit1():
                return v.VTwo()
            case t.TwoElim(motive, if0, if1, target):
                self.check(ctx, target, v.VTwo())
                motive_ctx = ctx.extend("b", v.VTwo())
                self.infer_type(motive_ctx, motive, "motive")
                cl = v.Closure(ctx.env, motive, 1)
                self.check(ctx, if0, cl(v.VBit0()))
                self.check(ctx, if1, cl(v.VBit1()))
                return cl(self.eval_in(ctx, target))
            case t.Ref(name):
                # `Resolver.resolve` has rejected every unknown or rejected name
                return self.glob.entries[name].type_value
            case t.Ann(inner, ty):
                ty_v, _ = self.infer_type(ctx, ty, "annotation")
                self.check(ctx, inner, ty_v)
                return ty_v
            case _:
                self.fail("internal", f"infer: unhandled term {term!r}")

    def infer_j(self, ctx: Context, motive: t.Term, base: t.Term, path: t.Term) -> v.Value:
        path_ty = whnf(self.infer(ctx, path))
        if not isinstance(path_ty, v.VId):
            self.fail("not-a-path", f"J applied to a term of type {self.show(ctx, path_ty)}")
        carrier = path_ty.ty
        x = ctx.extend("x", carrier)
        xy = x.extend("y", carrier)
        xyp = xy.extend("p", v.VId(carrier, v.fresh(ctx.depth), v.fresh(ctx.depth + 1)))
        self.infer_type(xyp, motive, "J motive")
        motive_cl = v.Closure(ctx.env, motive, 3)
        base_ctx = ctx.extend("x", carrier)
        base_var = v.fresh(ctx.depth)
        self.check(base_ctx, base, motive_cl(base_var, base_var, v.VRefl(base_var)))
        return motive_cl(path_ty.lhs, path_ty.rhs, self.eval_in(ctx, path))

    def infer_nat_elim(self, ctx: Context, motive, base, step, target) -> v.Value:
        self.check(ctx, target, v.VNat())
        motive_ctx = ctx.extend("n", v.VNat())
        self.infer_type(motive_ctx, motive, "motive")
        cl = v.Closure(ctx.env, motive, 1)
        self.check(ctx, base, cl(v.VZero()))
        n_var = v.fresh(ctx.depth)
        step_ctx = ctx.extend("n", v.VNat()).extend("ih", cl(n_var))
        self.check(step_ctx, step, cl(v.VSuc(n_var)))
        return cl(self.eval_in(ctx, target))

    # -- checking --

    def check(self, ctx: Context, term: t.Term, expected: v.Value) -> None:
        # Match on the unfolded type but pass `expected` itself to
        # `subtype`, which can compare glued definitions without unfolding.
        match (term, whnf(expected)):
            case (t.Lam(body), v.VPi(dom, cod)):
                inner = ctx.extend("x", dom)
                self.check(inner, body, cod(v.fresh(ctx.depth)))
                return
            case (t.Lam(_), _):
                self.fail(
                    "type-mismatch",
                    f"function literal checked against non-function type {self.show(ctx, expected)}",
                )
            case (t.Pair(fst, snd), v.VSigma(fst_ty, snd_ty)):
                self.check(ctx, fst, fst_ty)
                self.check(ctx, snd, snd_ty(self.eval_in(ctx, fst)))
                return
            case (t.Pair(_, _), _):
                self.fail(
                    "type-mismatch",
                    f"pair literal checked against non-pair type {self.show(ctx, expected)}",
                )
            case (t.Refl(arg), v.VId(ty, lhs, rhs)):
                self.check(ctx, arg, ty)
                arg_v = self.eval_in(ctx, arg)
                if not (self.conv(ctx, arg_v, lhs, ty) and self.conv(ctx, arg_v, rhs, ty)):
                    self.fail(
                        "endpoint-mismatch",
                        "refl endpoints do not match: "
                        f"refl {self.show(ctx, arg_v)} checked against "
                        f"Id {self.show(ctx, lhs)} {self.show(ctx, rhs)}",
                    )
                return
            case _:
                actual = self.infer(ctx, term)
                if not subtype(ctx.depth, actual, expected, eta_sigma=self.glob.config.eta_sigma):
                    self.fail(
                        "type-mismatch",
                        f"expected {self.show(ctx, expected)}, found {self.show(ctx, actual)}",
                    )

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
