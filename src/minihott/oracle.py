"""Brute-force finite-model oracle.

Types are modeled as finite sets and paths between types as bijections
(the skeletal, 1-truncated model).  Every claim of dimension at most 1
is verified by exhaustive enumeration; dimension-2 claims are out of
this model's reach and are covered only by kernel checking.

Composition is diagrammatic: `compose(p, q)` is "p then q", so the
transport of a loop p along a loop q is the conjugate q⁻¹ · p · q.

Each suite's verdict is an `OracleReport`, a `diagnostics.DeclReport` of
kind `oracle`; `run_suites` gathers them in the `CheckReport` of the
pseudo-file `<oracle>`, so `oracle` writes the report format `check` does.
"""

from __future__ import annotations

import itertools
import math
import time

from .diagnostics import CheckReport, DeclReport, Diagnostic, Span
from .records import record

DEFAULT_BOUND = 4
MAX_BOUND = 6


@record
class FinSet:
    """A finite set {0, .., size-1} with a display label."""

    size: int
    label: str = ""

    def __post_init__(self):
        if self.size < 0:
            raise ValueError("FinSet size must be non-negative")

    @property
    def elements(self) -> range:
        return range(self.size)


@record
class FinBij:
    """A bijection: `mapping[i]` is the image of element i of `domain`."""

    domain: FinSet
    codomain: FinSet
    mapping: tuple

    def __post_init__(self):
        if self.domain.size != self.codomain.size:
            raise ValueError("bijection endpoints must have equal size")
        if sorted(self.mapping) != list(range(self.domain.size)):
            raise ValueError(f"not a permutation table: {self.mapping}")

    def __call__(self, x: int) -> int:
        return self.mapping[x]


_set_domain = FinBij.domain.__set__
_set_codomain = FinBij.codomain.__set__
_set_mapping = FinBij.mapping.__set__


def _composite(domain: FinSet, codomain: FinSet, mapping: tuple) -> FinBij:
    """A `FinBij` built without `__post_init__`'s checks, for a table that
    is a permutation by construction: the composite of two bijections,
    whose endpoints `compose` has matched, is one."""
    bij = object.__new__(FinBij)
    _set_domain(bij, domain)
    _set_codomain(bij, codomain)
    _set_mapping(bij, mapping)
    return bij


def identity(a: FinSet) -> FinBij:
    return FinBij(a, a, tuple(range(a.size)))


def compose(p: FinBij, q: FinBij) -> FinBij:
    """Diagrammatic composition: first p, then q."""
    if p.codomain is not q.domain and p.codomain != q.domain:
        raise ValueError("composition endpoints do not match")
    return _composite(p.domain, q.codomain, tuple(map(q.mapping.__getitem__, p.mapping)))


def inverse(p: FinBij) -> FinBij:
    table = [0] * p.domain.size
    for x, y in enumerate(p.mapping):
        table[y] = x
    return FinBij(p.codomain, p.domain, tuple(table))


def transport_loop(q: FinBij, p: FinBij) -> FinBij:
    """Transport of the loop p along the loop q in the family x ↦ Id(x, x):
    the conjugate q⁻¹ · p · q."""
    return compose(compose(inverse(q), p), q)


def enumerate_bijections(a: FinSet, b: FinSet, bound: int = DEFAULT_BOUND) -> list[FinBij]:
    """All bijections a → b, duplicate-free, lexicographic by mapping table."""
    _check_bound(bound)
    if a.size > bound or b.size > bound:
        raise ValueError(f"set size exceeds bound {bound}")
    if a.size != b.size:
        return []
    return [FinBij(a, b, perm) for perm in itertools.permutations(range(a.size))]


def automorphisms(a: FinSet, bound: int = DEFAULT_BOUND) -> list[FinBij]:
    return enumerate_bijections(a, a, bound)


def _check_bound(bound: int) -> None:
    if not 0 <= bound <= MAX_BOUND:
        raise ValueError(f"bound {bound} is outside the allowed range 0..{MAX_BOUND}")


# --- reporting ---


class OracleReport(DeclReport):
    """A suite's verdict, in the report format of a declaration's: rejected,
    with the first five witnesses as its diagnostic, once a case fails."""

    __slots__ = ("counterexamples",)

    def __init__(self, name: str) -> None:
        super().__init__(name, "oracle", 0.0, "", cases=0)
        self.counterexamples: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def record(self, condition: bool, template: str, *args) -> None:
        """Count one case; if it fails, keep `template.format(*args)` as its
        witness.  Formatting only on failure keeps a passing suite from
        building thousands of strings it never shows."""
        self.cases += 1
        if not condition:
            witnesses = self.counterexamples
            witnesses.append(template.format(*args))
            if len(witnesses) <= 5:
                self.diagnostic = Diagnostic("counterexample", "; ".join(witnesses), Span(0, 0))


# --- suites ---


def check_enumeration(bound: int = DEFAULT_BOUND) -> OracleReport:
    """Completeness of bijection enumeration: |Bij(A, A)| = |A|!, cross-size
    emptiness, no duplicates, lexicographic order."""
    report = OracleReport("enumeration")
    for n in range(bound + 1):
        a = FinSet(n, f"S{n}")
        bijs = enumerate_bijections(a, a, bound)
        report.record(
            len(bijs) == math.factorial(n), "|Bij({0},{0})| = {1} != {0}!", n, len(bijs)
        )
        tables = [b.mapping for b in bijs]
        report.record(len(set(tables)) == len(tables), "duplicate tables at size {}", n)
        report.record(tables == sorted(tables), "non-lexicographic order at size {}", n)
        for m in range(bound + 1):
            if m != n:
                other = enumerate_bijections(a, FinSet(m, f"S{m}"), bound)
                report.record(other == [], "nonempty Bij({},{})", n, m)
    return report


def check_groupoid_laws(bound: int = DEFAULT_BOUND) -> OracleReport:
    """Associativity, left/right identity, and inverse laws of composition
    over all automorphisms of every set of size ≤ bound.

    Associativity compares (p·q)·r with p·(q·r) for every triple; the
    inner products p·q and q·r are composed once per pair, not per triple.
    The products also form a Cayley table: each is mapped to the index of
    the automorphism it equals (record equality: both endpoints and the
    table).  When every product is an automorphism (the table is closed)
    the indices are injective, so for a pair p, q all triples hold
    exactly when the row of p·q equals p's row read at the indices of
    q's row; such a row counts as one case per r.  A row that differs,
    and every size whose table is not closed, falls back to composing
    and comparing each triple, so the cases and witnesses are the
    per-triple ones.  This holds for any `compose` whose result depends
    only on the values of its arguments.
    """
    report = OracleReport("groupoid-laws")
    for n in range(bound + 1):
        a = FinSet(n, f"S{n}")
        auts = automorphisms(a, bound)
        ident = identity(a)
        for p in auts:
            report.record(compose(ident, p) == p, "id·p != p for p={}", p.mapping)
            report.record(compose(p, ident) == p, "p·id != p for p={}", p.mapping)
            report.record(compose(p, inverse(p)) == ident, "p·p⁻¹ != id for p={}", p.mapping)
            report.record(compose(inverse(p), p) == ident, "p⁻¹·p != id for p={}", p.mapping)
        products = [[compose(p, q) for q in auts] for p in auts]
        index = {aut: i for i, aut in enumerate(auts)}.get
        table = [list(map(index, p_then)) for p_then in products]
        closed = all(None not in row for row in table)
        for p, p_then, p_row in zip(auts, products, table):
            for q, pq, q_then, pq_at, q_row in zip(auts, p_then, products, p_row, table):
                if closed and table[pq_at] == list(map(p_row.__getitem__, q_row)):
                    report.cases += len(auts)
                    continue
                for r, qr in zip(auts, q_then):
                    report.record(
                        compose(pq, r) == compose(p, qr),
                        "associativity fails at {},{},{}", p.mapping, q.mapping, r.mapping,
                    )
    return report


def check_path_container(bound: int = DEFAULT_BOUND) -> OracleReport:
    """The model's path set between sets is, by definition, its bijection
    set: the same container backs both, and composition/inverse of paths
    are composition/inverse of bijections (checked by round-tripping)."""
    report = OracleReport("path-container")
    for n in range(bound + 1):
        a = FinSet(n, f"S{n}")
        b = FinSet(n, f"T{n}")
        paths = enumerate_bijections(a, b, bound)
        bijs = enumerate_bijections(a, b, bound)
        report.record(paths == bijs, "path/bijection containers differ at size {}", n)
        for p in paths:
            report.record(inverse(inverse(p)) == p, "double inverse differs for {}", p.mapping)
            report.record(
                compose(p, inverse(p)) == identity(a), "path inverse law fails for {}", p.mapping
            )
    return report


def check_transport_conjugation(bound: int = DEFAULT_BOUND) -> OracleReport:
    """For every set X of size ≤ bound and all automorphisms p, q:
    transport of p along q is the conjugate q⁻¹ · p · q, and the two
    distinguished instances hold: transporting along the identity loop
    leaves p fixed, and p is a fixed point of transport along itself."""
    report = OracleReport("transport-conjugation")
    for n in range(bound + 1):
        x = FinSet(n, f"S{n}")
        auts = automorphisms(x, bound)
        ident = identity(x)
        tables = [(q, q.mapping, inverse(q).mapping) for q in auts]
        for p in auts:
            p_map = p.mapping
            for q, q_map, q_inv in tables:
                # The conjugate q⁻¹ · p · q written out, x ↦ q(p(q⁻¹(x))):
                # not through `compose`, which `transport_loop` uses.
                conj = _composite(x, x, tuple([q_map[p_map[y]] for y in q_inv]))
                report.record(
                    transport_loop(q, p) == conj,
                    "transport != conjugation at p={}, q={}", p.mapping, q.mapping,
                )
        for p in auts:
            report.record(
                transport_loop(ident, p) == p, "transport along refl moves p={}", p.mapping
            )
            report.record(
                transport_loop(p, p) == p, "p not fixed by transport along itself: {}", p.mapping
            )
    return report


def two_set() -> FinSet:
    return FinSet(2, "two")


def swap_bij() -> FinBij:
    a = two_set()
    return FinBij(a, a, (1, 0))


def commutation_witness_refl(p: FinBij) -> tuple[FinBij, FinBij]:
    """Model shadow of the commuting-loop witness whose first component is
    the identity loop: (refl-shadow, the loop it commutes with)."""
    return (identity(p.domain), p)


def commutation_witness_self(p: FinBij) -> tuple[FinBij, FinBij]:
    """Model shadow of the commuting-loop witness whose first component is
    the loop itself."""
    return (p, p)


def check_commutation_witnesses() -> OracleReport:
    """The two commuting-loop witnesses at (two-element set, swap): first
    components are the identity and swap, both commute with swap, and
    the two first components are distinct."""
    report = OracleReport("commutation-witnesses")
    p = swap_bij()
    first_refl, _ = commutation_witness_refl(p)
    first_self, _ = commutation_witness_self(p)
    report.record(first_refl == identity(p.domain), "refl-witness first component is not the identity")
    report.record(first_self == p, "self-witness first component is not swap")
    for name, q in (("refl-witness", first_refl), ("self-witness", first_self)):
        report.record(compose(p, q) == compose(q, p), "{} does not commute with swap", name)
    report.record(first_refl != first_self, "witness first components coincide")
    return report


# --- Σ/Ω cardinality shadows ---


@record
class PointedFamilyInstance:
    """A pointed base set with a constant fiber: the dimension-1 shadow of
    a pointed family over a pointed type."""

    name: str
    base: FinSet
    basepoint: int
    fiber: FinSet
    fiberpoint: int


SIGMA_LOOP_INSTANCES = (
    PointedFamilyInstance("two/unit", FinSet(2, "two"), 0, FinSet(1, "unit"), 0),
    PointedFamilyInstance("two/two", FinSet(2, "two"), 0, FinSet(2, "two"), 0),
    PointedFamilyInstance("three/two", FinSet(3, "three"), 0, FinSet(2, "two"), 0),
)


def sigma_loops_direct(inst: PointedFamilyInstance) -> list[tuple]:
    """Loops of the total space at its basepoint, enumerated directly over
    the pairs of the total set.

    In the skeletal model elements of a set are discrete, so a loop of
    (a₀, u₀) is an equality of pairs; the enumeration walks every pair
    and keeps those equal to the basepoint pair.
    """
    basepair = (inst.basepoint, inst.fiberpoint)
    return [
        (a, u)
        for a in inst.base.elements
        for u in inst.fiber.elements
        if (a, u) == basepair
    ]


def sigma_loops_split(inst: PointedFamilyInstance) -> list[tuple]:
    """The split side: pairs of a base loop and a fiber transport equation,
    enumerated componentwise."""
    base_loops = [a for a in inst.base.elements if a == inst.basepoint]
    return [
        (a, u)
        for a in base_loops
        for u in inst.fiber.elements
        if u == inst.fiberpoint  # transport along a base loop is trivial here
    ]


def check_sigma_loop_cardinality(bound: int = DEFAULT_BOUND) -> OracleReport:
    """Both enumerations of the loop space of a pointed total space agree:
    equal cardinality and an explicit matching, for every configured
    instance."""
    report = OracleReport("sigma-loop-cardinality")
    for inst in SIGMA_LOOP_INSTANCES:
        if inst.base.size > bound or inst.fiber.size > bound:
            raise ValueError(f"instance {inst.name} exceeds bound {bound}")
        direct = sigma_loops_direct(inst)
        split = sigma_loops_split(inst)
        report.record(
            len(direct) == len(split),
            "{}: cardinalities differ ({} vs {})", inst.name, len(direct), len(split),
        )
        report.record(
            sorted(direct) == sorted(split),
            "{}: no matching between the two enumerations", inst.name,
        )
    return report


SUITES = {
    "enumeration": check_enumeration,
    "groupoid-laws": check_groupoid_laws,
    "path-container": check_path_container,
    "transport-conjugation": check_transport_conjugation,
    "commutation-witnesses": lambda bound=DEFAULT_BOUND: check_commutation_witnesses(),
    "sigma-loop-cardinality": check_sigma_loop_cardinality,
}


def run_suites(names: list[str] | None = None, bound: int = DEFAULT_BOUND) -> CheckReport:
    """Run the named suites once each, in the order first named (all by
    default); return the `<oracle>` pseudo-file's report, one verdict per suite."""
    _check_bound(bound)
    selected = list(SUITES) if names is None else list(dict.fromkeys(names))
    unknown = [n for n in selected if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(unknown)}")
    report = CheckReport("<oracle>")
    for name in selected:
        start = time.perf_counter()
        suite = SUITES[name](bound)
        suite.ms = (time.perf_counter() - start) * 1000
        report.declarations.append(suite)
        report.ms += suite.ms
    return report
