"""Surface syntax tree: named variables, every node carries a source span."""

from __future__ import annotations

from .diagnostics import Span
from .records import record


class STerm:
    __slots__ = ()


@record
class SVar(STerm):
    name: str
    span: Span


@record
class SUniv(STerm):
    level: int
    span: Span


@record
class SPi(STerm):
    binder: str | None  # None for the non-dependent arrow
    dom: STerm
    cod: STerm
    span: Span


@record
class SSigma(STerm):
    binder: str | None
    fst_ty: STerm
    snd_ty: STerm
    span: Span


@record
class SLam(STerm):
    names: tuple[str, ...]
    body: STerm
    span: Span


@record
class SApp(STerm):
    fn: STerm
    arg: STerm
    span: Span


@record
class SPair(STerm):
    fst: STerm
    snd: STerm
    span: Span


@record
class SAnn(STerm):
    term: STerm
    ty: STerm
    span: Span


@record
class SConst(STerm):
    """Nullary builtin: Nat, Empty, Unit, Two, star, zero2, one2."""

    name: str
    span: Span


@record
class SNatLit(STerm):
    value: int
    span: Span


@record
class SElim(STerm):
    """Fixed-arity builtin head: fst, snd, suc, refl, Id, J, natElim, twoElim, emptyElim."""

    head: str
    args: tuple[STerm, ...]
    span: Span


@record
class SDecl:
    kind: str  # "def" | "axiom" | "goal"
    name: str
    ty: STerm
    body: STerm | None
    span: Span
    source_ref: str = ""


class SModule:
    """A parsed file: its declarations and `--!` pragmas, in source order."""

    __slots__ = ("decls", "pragmas")

    def __init__(self) -> None:
        self.decls: list[SDecl] = []
        self.pragmas: list[str] = []
