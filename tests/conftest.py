import time

import pytest

from minihott.corpus.manifest import emit_corpus
from minihott.globals import Config, Globals
from minihott.parser import parse_module
from minihott.pipeline import check_source, run_deep
from minihott.resolver import Resolver
from minihott.terms import Term


class CorpusRun:
    """One check of the emitted corpus with per-file wall times.

    `prefixes` limits the run to the files whose paths start with one of
    them (all files by default), keeping manifest order.  The run's
    `Globals` is `glob`.
    """

    def __init__(self, config: Config | None = None, sources=None, prefixes=("",)):
        self.files = []  # (HottFile, FileResult, seconds)
        self.glob = glob = Globals(config or Config())

        def main():
            for f in emit_corpus(2):
                if not f.relpath.startswith(tuple(prefixes)):
                    continue
                source = f.render() if sources is None else sources[f.relpath]
                start = time.perf_counter()
                result = check_source(source, glob, file=f.relpath)
                self.files.append((f, result, time.perf_counter() - start))

        run_deep(main)

    def result_for(self, suffix: str):
        for f, result, _ in self.files:
            if f.relpath.endswith(suffix):
                return result
        raise KeyError(suffix)

    def seconds_through(self, prefix_list) -> float:
        return sum(
            sec
            for f, _, sec in self.files
            if any(f.relpath.startswith(p) for p in prefix_list)
        )

    def status_of(self, name: str) -> str:
        for _, result, _ in self.files:
            for decl in result.report.declarations:
                if decl.name == name:
                    return decl.status
        raise KeyError(name)

    @property
    def all_ok(self) -> bool:
        return all(result.ok for _, result, _ in self.files)


@pytest.fixture(scope="session")
def corpus_run() -> CorpusRun:
    return CorpusRun()


def check_one(source: str, config: Config | None = None):
    """Check a single standalone source string; returns the FileResult."""
    glob = Globals(config or Config())
    return run_deep(lambda: check_source(source, glob))


def core_term(text: str, glob: Globals | None = None) -> Term:
    """The core term of the surface term `text`, with the names of `glob`
    as its globals and its references linked to them; a resolve error
    raises `CheckFailure`."""
    module = parse_module(f"def tmp : U0 := {text}")
    Resolver(Globals() if glob is None else glob).resolve(module.pending[0])
    return module.decls[0].body
