"""Surface-syntax declarations and files of the generated corpus.

The corpus is plain text; `atom` keeps an emitted argument
well-parenthesized without hand-counting parentheses.
"""

from __future__ import annotations

import re

_SIMPLE = re.compile(r"^[A-Za-z_][A-Za-z0-9_']*$|^[0-9]+$|^U[0-9]+$")


def atom(part: str) -> str:
    """Wrap a term so it can stand as an application argument."""
    part = part.strip()
    if _SIMPLE.match(part) or _wrapped(part):
        return part
    return f"({part})"


def _wrapped(part: str) -> bool:
    if not (part.startswith("(") and part.endswith(")")):
        return False
    depth = 0
    for i, ch in enumerate(part):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return i == len(part) - 1
    return False


class Decl:
    """One surface declaration plus its manifest metadata."""

    def __init__(self, kind: str, name: str, ty: str, body: str | None = None,
                 ref: str = "", comment: str = ""):
        self.kind = kind
        self.name = name
        self.ty = ty
        self.body = body
        self.ref = ref
        self.comment = comment

    def render(self) -> str:
        lines = []
        if self.comment:
            for line in self.comment.splitlines():
                lines.append(f"-- {line}".rstrip())
        if self.ref:
            lines.append(f"--@ {self.ref}")
        if self.kind == "axiom":
            lines.append(f"axiom {self.name} : {self.ty}")
        else:
            lines.append(f"{self.kind} {self.name} : {self.ty}")
            lines.append(f"  := {self.body}")
        return "\n".join(lines)


class HottFile:
    def __init__(self, relpath: str, pragmas: list[str] | None = None,
                 header: str = "", generality: str = ""):
        self.relpath = relpath
        self.pragmas = list(pragmas or [])
        self.header = header
        self.generality = generality
        self.decls: list[Decl] = []

    def d(self, kind: str, name: str, ty: str, body: str | None = None,
          ref: str = "", comment: str = "") -> str:
        self.decls.append(Decl(kind, name, ty, body, ref, comment))
        return name

    def render(self) -> str:
        lines = []
        for line in self.header.splitlines():
            lines.append(f"-- {line}".rstrip())
        if self.generality:
            lines.append(f"-- generality: {self.generality}")
        for p in self.pragmas:
            lines.append(f"--! {p}")
        out = "\n".join(lines)
        for decl in self.decls:
            out += "\n\n" + decl.render()
        return out + "\n"
