"""Finite-model oracle: exact counts, law suites, determinism, and the
corrupted-operation fixture that proves the suites can fail."""

import json
import math
import time

import jsonschema
import pytest
from conftest import SCHEMA, report_json, without_ms

from minihott import oracle
from minihott.diagnostics import CheckReport


# --- exact values ---


def test_bijection_counts_are_factorials():
    for n in range(5):
        a = oracle.FinSet(n, f"S{n}")
        bijs = oracle.enumerate_bijections(a, a, bound=5)
        assert len(bijs) == math.factorial(n)


def test_two_element_set_has_exactly_two_automorphisms():
    auts = oracle.automorphisms(oracle.FinSet(2, "two"))
    assert [b.mapping for b in auts] == [(0, 1), (1, 0)]


def test_three_element_set_has_exactly_six_automorphisms():
    auts = oracle.automorphisms(oracle.FinSet(3, "three"))
    assert len(auts) == 6
    assert len({b.mapping for b in auts}) == 6


def test_cross_size_bijection_sets_are_empty():
    assert oracle.enumerate_bijections(oracle.FinSet(2), oracle.FinSet(3)) == []


def test_composition_is_diagrammatic():
    a = oracle.FinSet(3)
    p = oracle.FinBij(a, a, (1, 2, 0))
    q = oracle.FinBij(a, a, (1, 0, 2))
    # "p then q": x ↦ q(p(x))
    assert oracle.compose(p, q).mapping == tuple(q(p(x)) for x in range(3))


def test_transport_is_conjugation_with_distinguished_instances():
    x = oracle.FinSet(3)
    auts = oracle.automorphisms(x)
    ident = oracle.identity(x)
    for p in auts:
        assert oracle.transport_loop(ident, p) == p
        assert oracle.transport_loop(p, p) == p
    for p in auts:
        for q in auts:
            expected = oracle.compose(oracle.compose(oracle.inverse(q), p), q)
            assert oracle.transport_loop(q, p) == expected


def test_commutation_witnesses_are_distinct_and_commute():
    report = oracle.check_commutation_witnesses()
    assert report.ok, report.counterexamples
    swap = oracle.swap_bij()
    refl_first, _ = oracle.commutation_witness_refl(swap)
    self_first, _ = oracle.commutation_witness_self(swap)
    assert refl_first == oracle.identity(swap.domain)
    assert self_first == swap
    assert refl_first != self_first


def test_sigma_loop_shadows_agree_on_every_instance():
    for inst in oracle.SIGMA_LOOP_INSTANCES:
        direct = oracle.sigma_loops_direct(inst)
        split = oracle.sigma_loops_split(inst)
        assert len(direct) == len(split) == 1
        assert direct == split == [(inst.basepoint, inst.fiberpoint)]


# --- full suites ---


def test_all_suites_pass_within_budget():
    start = time.perf_counter()
    reports = oracle.run_suites().declarations
    elapsed = time.perf_counter() - start
    assert all(r.ok for r in reports), [
        (r.name, r.counterexamples) for r in reports if not r.ok
    ]
    assert [r.name for r in reports] == list(oracle.SUITES)
    assert all(r.cases > 0 for r in reports)
    assert elapsed < 0.5


def test_suite_reports_are_deterministic_modulo_timing():
    def fingerprint():
        return json.dumps(without_ms(oracle.run_suites()), sort_keys=True)

    assert len({fingerprint() for _ in range(3)}) == 1


def test_report_json_shape():
    payload = without_ms(oracle.run_suites(["enumeration"]))
    assert payload["file"] == "<oracle>"
    assert payload["totals"]["rejected"] == 0
    [decl] = payload["declarations"]
    assert decl["kind"] == "oracle"
    assert decl["status"] == "accepted"
    assert decl["cases"] > 0


# --- the corrupted-operation fixture ---


def drop_first_factor(p, q):
    """A broken composition: `q` alone."""
    return oracle.FinBij(p.domain, q.codomain, q.mapping)


REAL_COMPOSE = oracle.compose
ROT = (1, 2, 0)  # rot·rot is (2, 0, 1)


def wrong_once(p, q):
    """A broken composition: the identity for rot·rot, right elsewhere."""
    if p.mapping == q.mapping == ROT:
        return oracle.FinBij(p.domain, q.codomain, (0, 1, 2))
    return REAL_COMPOSE(p, q)


def collapsing(p, q):
    """A broken composition: a constant table, built unchecked."""
    return oracle._composite(p.domain, q.codomain, tuple(q.mapping[0] for _ in p.mapping))


def reversed_order(p, q):
    """`q` then `p`: the opposite groupoid, which satisfies every law the
    suite checks; `test_composition_is_diagrammatic` tells it apart."""
    return REAL_COMPOSE(q, p)


def _s3(mapping):
    a = oracle.FinSet(3, "S3")
    return oracle.FinBij(a, a, mapping)


# The triple (rot, swap, rot) of S3, and the two pairs whose products it
# compares: (rot·swap, rot) and (rot, swap·rot).
TRIPLE = ((1, 2, 0), (1, 0, 2), (1, 2, 0))
UNEQUAL_PAIRS = {
    (REAL_COMPOSE(_s3(TRIPLE[0]), _s3(TRIPLE[1])).mapping, TRIPLE[2]),
    (TRIPLE[0], REAL_COMPOSE(_s3(TRIPLE[1]), _s3(TRIPLE[2])).mapping),
}


def two_non_permutations(p, q):
    """A broken composition: on the two `UNEQUAL_PAIRS`, a constant table of
    p's image of 0, built unchecked. Both sides of the triple are then
    non-permutations, unequal yet at the same place of one row, and no
    other place of that row differs: a row check that ignored whether the
    table is closed would pass the triple."""
    if (p.mapping, q.mapping) in UNEQUAL_PAIRS:
        return oracle._composite(p.domain, q.codomain, (p.mapping[0],) * len(p.mapping))
    return REAL_COMPOSE(p, q)


def test_corrupted_composition_is_caught(monkeypatch):
    """Replacing composition with a variant that drops the first factor
    must produce counterexamples naming the offending tables."""
    monkeypatch.setattr(oracle, "compose", drop_first_factor)
    report = oracle.check_groupoid_laws(bound=3)
    assert not report.ok
    assert any("p·id != p" in c for c in report.counterexamples)
    # the witness pinpoints a concrete permutation table
    assert any("(" in c and ")" in c for c in report.counterexamples)
    # Witnesses are formatted only when a case fails, to these exact texts.
    assert (report.cases, len(report.counterexamples)) == (266, 18)
    assert report.counterexamples[:5] == [
        "p·id != p for p=(1, 0)",
        "p·p⁻¹ != id for p=(1, 0)",
        "p⁻¹·p != id for p=(1, 0)",
        "p·id != p for p=(0, 2, 1)",
        "p·p⁻¹ != id for p=(0, 2, 1)",
    ]


def test_rejected_suite_report_validates_against_schema(monkeypatch):
    """A failing suite's JSON: the schema holds, and its diagnostic is the
    first five witnesses in the shape every checker diagnostic has."""
    monkeypatch.setattr(oracle, "compose", drop_first_factor)
    report = CheckReport("<oracle>")
    report.declarations.append(oracle.check_groupoid_laws(bound=3))
    payload = report_json(report)
    jsonschema.validate(payload, SCHEMA)
    assert payload["totals"]["rejected"] == 1
    [decl] = payload["declarations"]
    assert decl["status"] == "rejected"
    assert decl["diagnostic"] == {
        "severity": "error",
        "code": "counterexample",
        "message": "p·id != p for p=(1, 0); p·p⁻¹ != id for p=(1, 0); p⁻¹·p != id for p=(1, 0); "
        "p·id != p for p=(0, 2, 1); p·p⁻¹ != id for p=(0, 2, 1)",
        "span": [0, 0],
    }


def test_composition_wrong_for_one_pair_breaks_associativity(monkeypatch):
    """A composition that is wrong only for rot·rot, two non-identity tables
    whose product is not the identity, still returns a permutation: only
    associativity can notice, and it must."""
    monkeypatch.setattr(oracle, "compose", wrong_once)
    report = oracle.check_groupoid_laws(bound=3)
    assert not report.ok
    assert all(c.startswith("associativity fails at ") for c in report.counterexamples)
    assert report.counterexamples[0] == "associativity fails at (0, 2, 1),(1, 0, 2),(1, 2, 0)"


def test_composition_returning_a_non_permutation_is_caught(monkeypatch):
    """`compose` builds its result without `FinBij`'s permutation check, so
    a composition that collapses its table must be caught by the laws."""
    monkeypatch.setattr(oracle, "compose", collapsing)
    report = oracle.check_groupoid_laws(bound=3)
    assert not report.ok
    assert report.counterexamples[0] == "id·p != p for p=(0, 1)"


def test_composites_are_the_validated_bijections():
    """Every composite `compose` builds unchecked passes `FinBij`'s checks
    and equals the bijection they accept."""
    for n in range(oracle.DEFAULT_BOUND + 1):
        a = oracle.FinSet(n, f"S{n}")
        auts = oracle.automorphisms(a)
        for p in auts:
            for q in auts:
                composite = oracle.compose(p, q)
                checked = oracle.FinBij(a, a, tuple(q(p(x)) for x in a.elements))
                assert composite == checked and hash(composite) == hash(checked)
                assert repr(composite) == repr(checked)
    with pytest.raises(ValueError):
        oracle.compose(oracle.identity(oracle.FinSet(2)), oracle.identity(oracle.FinSet(3)))


def test_corrupted_inverse_is_caught(monkeypatch):
    monkeypatch.setattr(oracle, "inverse", lambda p: p)
    report = oracle.check_groupoid_laws(bound=3)
    assert not report.ok


def test_transport_conjugating_the_wrong_way_is_caught(monkeypatch):
    """Transport as q · p · q⁻¹ is still a loop, and equals q⁻¹ · p · q
    whenever q is its own inverse, as every loop of a set of at most two
    elements is: only the written-out conjugate on three or more notices."""
    def backwards(q, p):
        return oracle.compose(oracle.compose(q, p), oracle.inverse(q))

    assert oracle.check_transport_conjugation().ok
    monkeypatch.setattr(oracle, "transport_loop", backwards)
    report = oracle.check_transport_conjugation()
    assert not report.ok and report.cases == 686
    assert report.counterexamples[0] == "transport != conjugation at p=(0, 2, 1), q=(1, 2, 0)"
    assert all(c.startswith("transport != conjugation at ") for c in report.counterexamples)
    assert oracle.check_transport_conjugation(bound=2).ok


# --- the Cayley table against every triple ---


def reference_groupoid_laws(bound):
    """`check_groupoid_laws` as it was before the Cayley table: every
    associativity triple is composed and compared. It reads
    `oracle.compose` and `oracle.inverse` at each call, so a patched
    composition reaches it."""
    compose, inverse = oracle.compose, oracle.inverse
    report = oracle.OracleReport("groupoid-laws")
    for n in range(bound + 1):
        a = oracle.FinSet(n, f"S{n}")
        auts = oracle.automorphisms(a, bound)
        ident = oracle.identity(a)
        for p in auts:
            report.record(compose(ident, p) == p, "id·p != p for p={}", p.mapping)
            report.record(compose(p, ident) == p, "p·id != p for p={}", p.mapping)
            report.record(compose(p, inverse(p)) == ident, "p·p⁻¹ != id for p={}", p.mapping)
            report.record(compose(inverse(p), p) == ident, "p⁻¹·p != id for p={}", p.mapping)
        products = [[compose(p, q) for q in auts] for p in auts]
        for p, p_then in zip(auts, products):
            for q, pq, q_then in zip(auts, p_then, products):
                for r, qr in zip(auts, q_then):
                    report.record(
                        compose(pq, r) == compose(p, qr),
                        "associativity fails at {},{},{}", p.mapping, q.mapping, r.mapping,
                    )
    return report


# Each variant of `compose`, and whether the suite kills it.
COMPOSE_VARIANTS = {
    "real": (REAL_COMPOSE, False),
    "drop_first_factor": (drop_first_factor, True),
    "wrong_once": (wrong_once, True),
    "collapsing": (collapsing, True),
    "reversed_order": (reversed_order, False),
    "two_non_permutations": (two_non_permutations, True),
}


@pytest.mark.parametrize("name", list(COMPOSE_VARIANTS))
def test_cayley_table_agrees_with_every_triple(monkeypatch, name):
    """Under each variant, the same cases and the same witnesses in the same
    order as composing every triple, at every bound up to the default."""
    variant, killed = COMPOSE_VARIANTS[name]
    monkeypatch.setattr(oracle, "compose", variant)
    for bound in range(oracle.DEFAULT_BOUND + 1):
        report = oracle.check_groupoid_laws(bound)
        reference = reference_groupoid_laws(bound)
        assert (report.cases, report.counterexamples) == (
            reference.cases, reference.counterexamples
        ), bound
    assert report.ok is not killed


def test_two_non_permutations_differ_at_one_place_of_a_row():
    p, q, r = map(_s3, TRIPLE)
    left = two_non_permutations(two_non_permutations(p, q), r)
    right = two_non_permutations(p, two_non_permutations(q, r))
    assert left != right
    assert sorted(left.mapping) != [0, 1, 2] and sorted(right.mapping) != [0, 1, 2]


@pytest.mark.parametrize(
    "bound,cases", [(0, 5), (1, 10), (2, 26), (3, 266), (4, 14_186), (5, 1_742_666)]
)
def test_groupoid_law_cases_have_a_closed_form(bound, cases):
    """Four identity and inverse cases per automorphism and one per triple:
    a row of the table counts each of its triples once. Bound 5, with
    its 1.7 M cases, must take less than 2 s."""
    start = time.perf_counter()
    report = oracle.check_groupoid_laws(bound)
    elapsed = time.perf_counter() - start
    assert report.ok
    closed_form = sum(4 * math.factorial(n) + math.factorial(n) ** 3 for n in range(bound + 1))
    assert report.cases == cases == closed_form
    assert elapsed < 2.0


# --- bounds and errors ---


def test_bound_is_enforced():
    with pytest.raises(ValueError):
        oracle.enumerate_bijections(oracle.FinSet(5), oracle.FinSet(5), bound=4)
    with pytest.raises(ValueError):
        oracle.run_suites(bound=oracle.MAX_BOUND + 1)


def test_unknown_suite_is_an_error():
    with pytest.raises(ValueError, match=r"^unknown suite\(s\): no-such-suite$"):
        oracle.run_suites(["no-such-suite"])


def test_invalid_permutation_table_rejected():
    a = oracle.FinSet(2)
    with pytest.raises(ValueError):
        oracle.FinBij(a, a, (0, 0))
    with pytest.raises(ValueError):
        oracle.FinBij(a, oracle.FinSet(3), (0, 1))
