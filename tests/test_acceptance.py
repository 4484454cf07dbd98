"""Acceptance gate: wall-time budgets for the corpus levels, the oracle
budget, a ratchet on the kernel's call counts, symbol coverage, the
mutation suite (no false accepts), and a differential check of lazy
definition unfolding in conversion."""

import importlib
import json
import pathlib
import time

import pytest

from conftest import CorpusRun

from minihott import checker, conversion, oracle
from minihott import evaluate as evaluation
from minihott import terms as t
from minihott.corpus.manifest import emit_corpus, missing_symbols
from minihott.pipeline import run_deep

PRELUDE_AND_GENERIC = ["prelude/", "generic/"]

LEVEL0_BUDGET_SECONDS = 10.0
LEVEL1_BUDGET_SECONDS = 10.0
LEVEL2_BUDGET_SECONDS = 10.0
ORACLE_BUDGET_SECONDS = 0.5


# --- criterion: each level checks within its budget ---


def test_level0_results_within_budget(corpus_run):
    elapsed = corpus_run.seconds_through(PRELUDE_AND_GENERIC + ["levels/level0/"])
    assert elapsed < LEVEL0_BUDGET_SECONDS, f"level 0 took {elapsed:.1f}s"
    assert corpus_run.status_of("universeZeroNotSet") == "accepted"
    assert corpus_run.status_of("swapPathNontrivial") == "accepted"
    assert corpus_run.status_of("subUniverseNotTrunc1") == "accepted"


def test_level1_results_within_budget(corpus_run):
    elapsed = corpus_run.seconds_through(
        PRELUDE_AND_GENERIC + ["levels/level0/", "levels/level1/"]
    )
    assert elapsed < LEVEL1_BUDGET_SECONDS, f"through level 1: {elapsed:.1f}s"
    # the direct commuting-loops construction, with both witnesses
    assert corpus_run.status_of("commuteChoice") == "accepted"
    assert corpus_run.status_of("reflCommuter") == "accepted"
    assert corpus_run.status_of("selfCommuter") == "accepted"
    assert corpus_run.status_of("universeOneNotGroupoid") == "accepted"
    assert corpus_run.status_of("universeOneNotGroupoidFromLoops") == "accepted"


def test_level2_results_within_budget(corpus_run):
    elapsed = corpus_run.seconds_through([""])  # everything
    assert elapsed < LEVEL2_BUDGET_SECONDS, f"whole corpus took {elapsed:.1f}s"
    assert corpus_run.status_of("universeTwoNotTwoType") == "accepted"
    assert corpus_run.status_of("subUniverseNotTrunc2") == "accepted"
    assert corpus_run.status_of("loopTypeNotTrunc2") == "accepted"
    # the level-2 machinery this route exercises
    for name in ("loopLift2", "loopCell2", "forgetLoops2", "localGlobal1"):
        assert corpus_run.status_of(name) == "accepted"


# --- criterion: the kernel does no more work than recorded ---

# Calls of the module attributes that the kernel's recursion goes through,
# in one check of the whole corpus.  The counts are deterministic and the
# same under CPython 3.10 to 3.13.  A change that lowers one records the
# new number here, so the gate ratchets.
KERNEL_COUNTS = pathlib.Path(__file__).resolve().parent / "data" / "kernel_counts.json"
KERNEL_COUNT_MARGIN = 0.01


def test_kernel_call_counts_do_not_rise(monkeypatch):
    recorded = json.loads(KERNEL_COUNTS.read_text(encoding="utf-8"))
    counts = dict.fromkeys(recorded, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in recorded:
        module, attr = name.split(".")
        module = importlib.import_module(f"minihott.{module}")
        monkeypatch.setattr(module, attr, counting(name, getattr(module, attr)))
    assert CorpusRun().all_ok
    assert all(counts.values()), counts  # each wrapper sits where the recursion goes
    risen = [
        f"{name}: {counts[name]} calls, {recorded[name]} recorded"
        for name in recorded
        if counts[name] > recorded[name] * (1 + KERNEL_COUNT_MARGIN)
    ]
    assert not risen, "; ".join(risen)


# --- criterion: oracle exactness and budget ---


def test_oracle_suites_exact_and_fast():
    start = time.perf_counter()
    reports = oracle.run_suites()
    elapsed = time.perf_counter() - start
    assert elapsed < ORACLE_BUDGET_SECONDS
    assert all(r.ok for r in reports)
    by_name = {r.suite: r for r in reports}
    assert set(by_name) == set(oracle.SUITES)
    assert len(oracle.automorphisms(oracle.FinSet(2))) == 2
    assert len(oracle.automorphisms(oracle.FinSet(3))) == 6


# --- criterion: symbol coverage ---


def test_symbol_coverage_complete():
    assert missing_symbols() == []


# --- criterion: the mutation suite has zero false accepts ---


def corpus_sources() -> dict:
    return {f.relpath: f.render() for f in emit_corpus(2)}


def pragma_set(pragma: str) -> set:
    return {f.relpath for f in emit_corpus(2) if pragma in f.pragmas}


def failing_files(run: CorpusRun) -> set:
    return {f.relpath for f, report in run.files if not report.ok}


def first_rejection(run: CorpusRun, relpath_suffix: str) -> str:
    for decl in run.report_for(relpath_suffix).declarations:
        if decl.status == "rejected":
            return decl.name
    raise AssertionError(f"no rejection in {relpath_suffix}")


SWAP_BODY = (
    "def swapTwo : Two -> Two\n"
    "  := fun b => twoElim (fun x => Two) one2 zero2 b"
)
SWAP_MUTANT = "def swapTwo : Two -> Two\n  := fun b => b"

SELF_WITNESS_BODY = "def selfCommuter : commuteChoice\n  := fun X p => (p, refl"
SELF_WITNESS_MUTANT = "def selfCommuter : commuteChoice\n  := fun X p => (refl X, refl"


def mutated_run(path: str, old: str, new: str, prefixes=("",)) -> CorpusRun:
    sources = corpus_sources()
    assert old in sources[path], "mutation anchor drifted"
    sources[path] = sources[path].replace(old, new)
    return CorpusRun(sources=sources, prefixes=prefixes)


def drop_axiom_run(path: str, axiom_name: str) -> CorpusRun:
    sources = corpus_sources()
    needle = f"axiom {axiom_name} "
    kept = [l for l in sources[path].splitlines() if not l.startswith(needle)]
    assert len(kept) < len(sources[path].splitlines()), "axiom anchor drifted"
    sources[path] = "\n".join(kept) + "\n"
    return CorpusRun(sources=sources)


def test_mutation_swap_to_identity_is_rejected():
    """Replacing the boolean swap by the identity must break exactly the
    proof that its loop is nontrivial; the equivalence structure of the
    mutated map still checks."""
    run = mutated_run("prelude/07-two.hott", SWAP_BODY, SWAP_MUTANT)
    assert run.status_of("swapPathNontrivial") == "rejected"
    assert run.status_of("swapInvol") == "accepted"
    assert run.status_of("swapIsEquiv") == "accepted"
    assert run.report_for("prelude/07-two.hott").ok


def test_mutation_remove_univalence_axioms():
    """Deleting the path-equivalence axioms must break exactly the files
    tagged as depending on them."""
    sources = corpus_sources()
    path = "prelude/06-univalence.hott"
    kept = [
        l for l in sources[path].splitlines() if not l.startswith("axiom univalence")
    ]
    assert len(kept) == len(sources[path].splitlines()) - 4
    sources[path] = "\n".join(kept) + "\n"
    run = CorpusRun(sources=sources)
    assert failing_files(run) == pragma_set("requires-ua")


def test_mutation_remove_function_extensionality_axiom():
    run = drop_axiom_run("prelude/05-funext.hott", "happlyIsEquiv")
    assert failing_files(run) == pragma_set("requires-funext")


def test_mutation_degenerate_commutation_witness_is_rejected():
    """Collapsing the self-commuting witness's first component to the
    trivial loop is caught: composition with the trivial loop on the
    right does not compute away."""
    run = mutated_run(
        "levels/level1/30-commuting-loops.hott",
        SELF_WITNESS_BODY,
        SELF_WITNESS_MUTANT,
    )
    assert run.status_of("selfCommuter") == "rejected"
    assert first_rejection(run, "30-commuting-loops.hott") == "selfCommuter"


# --- criterion: lazy unfolding answers every conversion query as eager
# unfolding does ---

THROUGH_LEVEL1 = PRELUDE_AND_GENERIC + ["levels/level0/", "levels/level1/"]


def test_lazy_unfolding_agrees_with_eager_unfolding(monkeypatch):
    """Record each subtype and conv query the checker makes through level 1,
    on the corpus and on two mutants, then replay it with the same-head
    shortcut off, so that every definition is unfolded before comparison.
    The answers must agree, and the mutants must contribute rejections."""
    queries = []  # (function, args, kwargs, answer)

    def recorded(fn):
        def wrapper(*args, **kwargs):
            answer = fn(*args, **kwargs)
            queries.append((fn, args, kwargs, answer))
            return answer

        return wrapper

    monkeypatch.setattr(checker, "subtype", recorded(conversion.subtype))
    monkeypatch.setattr(checker, "conv", recorded(conversion.conv))
    corpus = CorpusRun(prefixes=THROUGH_LEVEL1)
    assert corpus.all_ok
    swap = mutated_run("prelude/07-two.hott", SWAP_BODY, SWAP_MUTANT, THROUGH_LEVEL1)
    assert swap.status_of("swapPathNontrivial") == "rejected"
    path = "levels/level1/30-commuting-loops.hott"
    witness = mutated_run(path, SELF_WITNESS_BODY, SELF_WITNESS_MUTANT, THROUGH_LEVEL1)
    assert witness.status_of("selfCommuter") == "rejected"
    assert any(answer is False for *_, answer in queries)

    # Unfolding every definition is slow without memos, so the reference
    # side gets its own: keyed by identity, they keep their keys alive.
    evaluated, compared, alive = {}, {}, []
    evaluate, conv_structural = evaluation.evaluate, conversion.conv_structural

    def memo_evaluate(env, term):
        if type(term) in (t.Var, t.Ref):
            return evaluate(env, term)
        key = (id(term), *map(id, env))
        if key not in evaluated:
            evaluated[key] = evaluate(env, term)
            alive.append((env, term))
        return evaluated[key]

    def memo_conv_structural(depth, a, b, *, eta_sigma):
        key = (id(a), id(b), eta_sigma)
        if key not in compared:
            compared[key] = conv_structural(depth, a, b, eta_sigma=eta_sigma)
            alive.append((a, b))
        return compared[key]

    monkeypatch.setattr(evaluation, "evaluate", memo_evaluate)
    monkeypatch.setattr(conversion, "conv_structural", memo_conv_structural)
    monkeypatch.setattr(conversion, "_same_glued", lambda *args, **kwargs: False)
    disagreements = run_deep(
        lambda: [
            (fn.__name__, answer)
            for fn, args, kwargs, answer in queries
            if fn(*args, **kwargs) != answer
        ]
    )
    assert disagreements == []
