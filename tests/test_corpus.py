"""Generated corpus: structure, manifest integrity, symbol coverage, and
the lemmas that must check at every instantiated level."""

import json
import pathlib

import pytest

from conftest import CorpusRun

from minihott.corpus.manifest import (
    MAX_SUPPORTED_LEVEL,
    SYMBOL_TABLE,
    build_manifest,
    emit_corpus,
    missing_symbols,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
GENERATED = ROOT / "corpus" / "generated"


def corpus_text(relpath: str) -> str:
    for f in emit_corpus(2):
        if f.relpath == relpath:
            return f.render()
    raise KeyError(relpath)


# --- every file checks ---


def test_whole_corpus_is_accepted(corpus_run):
    rejected = [
        (f.relpath, d.name)
        for f, report in corpus_run.files
        for d in report.declarations
        if d.status != "accepted"
    ]
    assert rejected == []
    assert corpus_run.all_ok


def test_lemma_instances_check_at_every_level(corpus_run):
    """The loop-space commutation lemmas for pairs and functions, the
    fiber-forgetting lemma, and the local-to-global loop description all
    check at each instantiated universe level."""
    for i in (1, 2, 3):
        assert corpus_run.status_of(f"omSigmaCommEqv{i}") == "accepted"
        assert corpus_run.status_of(f"omPiCommEqv{i}") == "accepted"
        assert corpus_run.status_of(f"forgetLoops{i}") == "accepted"
    for i in (0, 1, 2):
        assert corpus_run.status_of(f"localGlobal{i}") == "accepted"


def test_headline_results_are_accepted(corpus_run):
    for name in (
        "universeZeroNotSet",
        "universeOneNotGroupoid",
        "universeOneNotGroupoidFromLoops",
        "universeTwoNotTwoType",
        "subUniverseTrunc1",
        "subUniverseTrunc2",
        "subUniverseNotTrunc1",
        "subUniverseNotTrunc2",
        "loopTypeIsTrunc1",
        "loopTypeIsTrunc2",
        "loopTypeNotTrunc1",
        "loopTypeNotTrunc2",
    ):
        assert corpus_run.status_of(name) == "accepted", name


# --- structural facts about the generated sources ---


def test_level_step_reuses_the_previous_level_result():
    """Each sub-universe nontriviality proof invokes the result one level
    below rather than re-proving it."""
    assert "subLoopNontrivial0" in corpus_text("levels/level1/32-subuniverse1.hott")
    assert "subLoopNontrivial1" in corpus_text("levels/level2/41-theorems2.hott")


def test_base_loop_family_is_the_boolean_type():
    text = corpus_text("levels/level0/20-swap-loop.hott")
    assert "def loopFamilyBase : U0\n  := Two" in text


def test_forgetting_base_case_applies_the_collapse_lemma():
    """The zero case of the fiber-forgetting induction is the
    contractible-fiber collapse lemma applied, not an inlined re-proof."""
    for i in (1, 2, 3):
        text = corpus_text(f"generic/{7 + i:02d}-pointed-level{i}.hott")
        assert f"fun X P h => contrFiberCollapse{i} X P h" in text


def test_commuting_witness_bodies():
    text = corpus_text("levels/level1/30-commuting-loops.hott")
    assert "def reflCommuter : commuteChoice" in text
    assert "def selfCommuter : commuteChoice" in text


# --- manifest ---


def test_manifest_reflects_emitted_files():
    manifest = build_manifest(2)
    assert manifest["max_level"] == MAX_SUPPORTED_LEVEL == 2
    emitted = [f.relpath for f in emit_corpus(2)]
    assert [f["path"] for f in manifest["files"]] == emitted


def test_manifest_declarations_are_in_dependency_order(corpus_run):
    """Every checked file is accepted with only earlier files in scope,
    which is exactly the dependency-order guarantee."""
    seen = set()
    manifest = build_manifest(2)
    for entry in manifest["files"]:
        for decl in entry["declarations"]:
            assert decl["name"] not in seen, f"duplicate {decl['name']}"
            seen.add(decl["name"])


def test_checked_in_manifest_is_current():
    on_disk = json.loads((GENERATED / "manifest.json").read_text())
    assert on_disk == build_manifest(2)


def test_emit_corpus_rejects_out_of_range_levels():
    with pytest.raises(ValueError):
        emit_corpus(3)
    with pytest.raises(ValueError):
        emit_corpus(-1)


# --- symbol coverage ---


def test_symbol_table_covers_all_tracked_names():
    assert missing_symbols() == []


def test_symbol_table_targets_are_accepted_declarations(corpus_run):
    for symbol, target in SYMBOL_TABLE.items():
        assert corpus_run.status_of(target) == "accepted", (symbol, target)


# --- pragma polarity for the structural-pair flag ---


def test_eta_sigma_pragma_is_exact():
    """With definitional pair extensionality disabled, exactly the files
    carrying the requires-eta-sigma pragma fail."""
    from minihott.globals import Config

    run = CorpusRun(config=Config(eta_sigma=False))
    failing = {f.relpath for f, report in run.files if not report.ok}
    tagged = {f.relpath for f in emit_corpus(2) if "requires-eta-sigma" in f.pragmas}
    assert failing == tagged
    assert len(tagged) == 13
