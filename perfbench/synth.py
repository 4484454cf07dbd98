"""Seeded generator of the `synth` workload's program.

The program is a few thousand closed declarations over Nat, Two, Unit,
function and pair types. Declarations refer to earlier ones by name. About
one in ten is deliberately annotated with a type its body does not have;
the generator knows which, so the expected verdicts do not come from the
checker. Well-typed declarations refer only to earlier well-typed ones, so
a rejection never cascades into an unbound-name error.
"""

from __future__ import annotations

import random

DECLARATIONS = 3000
BAD_SHARE = 0.1
BASE = ("Nat", "Two", "Unit")


def program(seed: int, count: int = DECLARATIONS) -> tuple[str, list[tuple[str, str, str | None]]]:
    """Return (source text, expected [(name, status, diagnostic code)]) for `seed`."""
    return _Generator(random.Random(seed)).run(count)


def _type_text(ty: tuple) -> str:
    match ty:
        case ("fun", a, b):
            return f"({_type_text(a)} -> {_type_text(b)})"
        case ("pair", a, b):
            return f"({_type_text(a)} * {_type_text(b)})"
        case (name,):
            return name


class _Generator:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.by_type: dict[tuple, list[str]] = {}  # well-typed declarations by type
        self.elims: dict[tuple, list[tuple]] = {}  # (how, name, arg type) by result type

    def gen_type(self, depth: int) -> tuple:
        if depth == 0 or self.rng.random() < 0.4:
            return (self.rng.choice(BASE),)
        return (self.rng.choice(("fun", "pair")), self.gen_type(depth - 1), self.gen_type(depth - 1))

    def mutate(self, ty: tuple) -> tuple:
        """`ty` with one base-type leaf replaced by another base type."""
        if len(ty) == 1:
            return (self.rng.choice([b for b in BASE if b != ty[0]]),)
        kind, a, b = ty
        if self.rng.random() < 0.5:
            return (kind, self.mutate(a), b)
        return (kind, a, self.mutate(b))

    def term(self, ty: tuple, ctx: list[tuple[str, tuple]], depth: int) -> str:
        rng = self.rng
        roll = rng.random()
        local = [name for name, t in ctx if t == ty]
        if local and roll < 0.25:
            return rng.choice(local)
        known = self.by_type.get(ty)
        if known and roll < 0.45:
            return rng.choice(known[-64:])
        if depth > 0 and roll < 0.65:
            elims = self.elims.get(ty, [])[-64:] + [
                ("app", name, t[1]) for name, t in ctx if t[0] == "fun" and t[2] == ty
            ]
            if elims:
                how, name, arg = rng.choice(elims)
                if how == "app":
                    return f"({name} {self.term(arg, ctx, depth - 1)})"
                return f"({how} {name})"
            if rng.random() < 0.5:
                return (
                    f"(twoElim (fun b => {_type_text(ty)}) {self.term(ty, ctx, depth - 1)} "
                    f"{self.term(ty, ctx, depth - 1)} {self.term(('Two',), ctx, depth - 1)})"
                )
        match ty:
            case ("Nat",):
                if depth > 0 and rng.random() < 0.3:
                    return f"(suc {self.term(ty, ctx, depth - 1)})"
                return str(rng.randrange(4))
            case ("Two",):
                return rng.choice(("zero2", "one2"))
            case ("Unit",):
                return "star"
            case ("fun", a, b):
                name = f"v{len(ctx)}"
                return f"(fun {name} => {self.term(b, ctx + [(name, a)], max(depth - 1, 0))})"
            case ("pair", a, b):
                return f"({self.term(a, ctx, max(depth - 1, 0))}, {self.term(b, ctx, max(depth - 1, 0))})"

    def bad_declaration(self, name: str) -> str:
        """A declaration the checker must reject with `type-mismatch`."""
        rng = self.rng
        known = [(ty, names) for ty, names in self.by_type.items() if names]
        roll = rng.random()
        if known and roll < 0.6:
            ty, names = rng.choice(known)
            return f"def {name} : {_type_text(self.mutate(ty))} := {rng.choice(names[-64:])}"
        if roll < 0.8:
            fn = ("fun", self.gen_type(1), self.gen_type(1))
            return f"def {name} : {rng.choice(BASE)} := {self.term(fn, [], 2)}"
        pair = ("pair", self.gen_type(1), self.gen_type(1))
        return f"def {name} : {_type_text(('fun', ('Nat',), ('Two',)))} := {self.term(pair, [], 2)}"

    def run(self, count: int) -> tuple[str, list[tuple[str, str, str | None]]]:
        lines = ["-- generated program for the synth benchmark workload"]
        expected: list[tuple[str, str, str | None]] = []
        for i in range(count):
            name = f"s{i}"
            if i > 0 and self.rng.random() < BAD_SHARE:
                lines.append(self.bad_declaration(name))
                expected.append((name, "rejected", "type-mismatch"))
                continue
            ty = self.gen_type(2)
            lines.append(f"def {name} : {_type_text(ty)} := {self.term(ty, [], 3)}")
            expected.append((name, "accepted", None))
            self.by_type.setdefault(ty, []).append(name)
            if ty[0] == "fun":
                self.elims.setdefault(ty[2], []).append(("app", name, ty[1]))
            elif ty[0] == "pair":
                self.elims.setdefault(ty[1], []).append(("fst", name, None))
                self.elims.setdefault(ty[2], []).append(("snd", name, None))
        return "\n\n".join(lines) + "\n", expected
