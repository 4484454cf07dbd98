"""Declarations, shared between the parser and the checker."""

from __future__ import annotations

from .diagnostics import Span
from .records import record
from .terms import Term


@record
class Declaration:
    """A resolved top-level declaration (core syntax)."""

    kind: str  # "def" | "axiom" | "goal"
    name: str
    ty: Term
    body: Term | None  # absent exactly for axioms
    span: Span = Span(0, 0)
    source_ref: str = ""  # free-text lemma tag carried from the surface file
