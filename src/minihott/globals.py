"""Top-level environment: checked definitions and the axiom registry."""

from __future__ import annotations

from dataclasses import dataclass, field

from . import values as v


@dataclass(frozen=True)
class Config:
    max_level: int = 8
    eta_sigma: bool = True


@dataclass(frozen=True, slots=True)
class GlobalEntry:
    kind: str  # "def" | "axiom"
    name: str
    type_value: v.Value
    ref: v.Value  # what a reference to the name evaluates to
    value: v.Value | None = None  # definitions only: the unfolding


@dataclass
class Globals:
    """Append-only registry of checked definitions and axioms.

    A reference to an axiom evaluates to an opaque neutral head; a
    reference to a definition evaluates to a glued value whose unfolding
    is the definition's value, forced only where its shape is needed.
    """

    config: Config = field(default_factory=Config)
    entries: dict[str, GlobalEntry] = field(default_factory=dict)

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def lookup(self, name: str) -> GlobalEntry | None:
        return self.entries.get(name)

    def add_def(self, name: str, type_value: v.Value, value: v.Value) -> None:
        ref = v.VGlued(name, (), None, None, value)
        self.entries[name] = GlobalEntry("def", name, type_value, ref, value)

    def add_axiom(self, name: str, type_value: v.Value) -> None:
        ref = v.VNeutral(v.VAxiom(name))
        self.entries[name] = GlobalEntry("axiom", name, type_value, ref)

    def value_of(self, name: str) -> v.Value:
        return self.entries[name].ref

    def names(self) -> set[str]:
        return set(self.entries)
