"""Top-level environment: checked definitions and the axiom registry."""

from __future__ import annotations

from . import values as v
from .records import record

DEFAULT_MAX_LEVEL = 8


@record
class Config:
    max_level: int = DEFAULT_MAX_LEVEL
    eta_sigma: bool = True


@record
class GlobalEntry:
    kind: str  # "def" | "axiom"
    type_value: v.Value
    ref: v.Value  # what a reference to the name evaluates to
    value: v.Value | None = None  # definitions only: the unfolding


class Globals:
    """Append-only registry of checked definitions and axioms.

    A reference to an axiom evaluates to an opaque neutral head; a
    reference to a definition evaluates to a glued value whose unfolding
    is the definition's value, forced only where its shape is needed.
    `resolver.Resolver` links each reference to its entry's `ref`, so
    evaluation never looks a name up here.
    """

    __slots__ = ("config", "entries")

    def __init__(self, config: Config | None = None) -> None:
        self.config = Config() if config is None else config
        self.entries: dict[str, GlobalEntry] = {}

    def lookup(self, name: str) -> GlobalEntry | None:
        return self.entries.get(name)

    def add_def(self, name: str, type_value: v.Value, value: v.Value) -> None:
        ref = v.VGlued(name, (), None, None, value)
        self.entries[name] = GlobalEntry("def", type_value, ref, value)

    def add_axiom(self, name: str, type_value: v.Value) -> None:
        ref = v.VNeutral(v.VAxiom(name))
        self.entries[name] = GlobalEntry("axiom", type_value, ref)
