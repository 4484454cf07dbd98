import pytest

from minihott.corpus.manifest import emit_corpus
from minihott.globals import Config, Globals
from minihott.parser import parse_module
from minihott.pipeline import check_files, run_deep
from minihott.resolver import Resolver
from minihott.terms import Term


class CorpusRun:
    """One check of the emitted corpus, with each file's wall time in its
    report.

    `prefixes` limits the run to the files whose paths start with one of
    them (all files by default), keeping manifest order.  The run's
    `Globals` is `glob`.
    """

    def __init__(self, config: Config | None = None, sources=None, prefixes=("",)):
        files = [f for f in emit_corpus(2) if f.relpath.startswith(tuple(prefixes))]
        pairs = ((f.relpath, f.render() if sources is None else sources[f.relpath]) for f in files)
        reports, self.glob = run_deep(lambda: check_files(pairs, config))
        self.files = list(zip(files, reports))  # (HottFile, CheckReport)

    def report_for(self, suffix: str):
        for f, report in self.files:
            if f.relpath.endswith(suffix):
                return report
        raise KeyError(suffix)

    def seconds_through(self, prefix_list) -> float:
        return sum(
            report.ms / 1000
            for f, report in self.files
            if any(f.relpath.startswith(p) for p in prefix_list)
        )

    def status_of(self, name: str) -> str:
        for _, report in self.files:
            for decl in report.declarations:
                if decl.name == name:
                    return decl.status
        raise KeyError(name)

    @property
    def all_ok(self) -> bool:
        return all(report.ok for _, report in self.files)


@pytest.fixture(scope="session")
def corpus_run() -> CorpusRun:
    return CorpusRun()


def check_one(source: str, config: Config | None = None):
    """Check a single standalone source string; returns its CheckReport."""
    [report], _ = run_deep(lambda: check_files([("<input>", source)], config))
    return report


def core_term(text: str, glob: Globals | None = None) -> Term:
    """The core term of the surface term `text`, with the names of `glob`
    as its globals and its references linked to them; a resolve error
    raises `CheckFailure`."""
    module = parse_module(f"def tmp : U0 := {text}")
    Resolver(Globals() if glob is None else glob).resolve(module.pending[0])
    return module.decls[0].body
