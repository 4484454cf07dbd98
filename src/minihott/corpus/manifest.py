"""Corpus manifest: file ordering, source-notation table, generation.

The manifest lists every corpus file in dependency order together with
its pragmas and per-declaration source-reference tags, and carries a
symbol table mapping each piece of source notation to the one corpus
declaration that realizes it.  `write_corpus` materializes the corpus
on disk (byte-identical across runs).  Generation needs no part of the
kernel, and this module imports none: `minihott check` over the written
files is what checks the corpus.
"""

from __future__ import annotations

import json
import os

from . import generic, levels, prelude
from .build import HottFile

MAX_SUPPORTED_LEVEL = 2

# Source notation -> corpus declaration.  Each entry names exactly one
# checked declaration; the coverage tests fail if any entry is missing
# from the emitted corpus.
SYMBOL_TABLE: dict[str, str] = {
    "Ω": "pOm1",
    "Ω̃": "pOmFam1",
    "Σ•": "pSigma1",
    "Π•": "pPi1",
    "𝒰•": "pT1",
    "𝒰≤n": "subUniverse2",
    "is-trunc": "isTrunc",
    "idtoeqv": "idtoeqv0",
    "ua": "univalence0",
    "happly/funext": "happlyIsEquiv",
    "IsEquiv": "isEquiv0",
    "iseq^id": "idIsEquiv0",
    "iseq^swap": "swapIsEquiv",
    "swap": "swapTwo",
    "transport": "transport",
    "path composition/inverse": "pathComp",
    "L": "loopsInUniverse0",
    "K": "commuteChoice",
    "α": "reflCommuter",
    "β": "selfCommuter",
    "u": "reflCommutes",
    "P_n": "universeLoops2",
    "Loop_n": "loopType2",
    "Loop₋₁": "loopFamilyBase",
    "h_n": "loopTypeIsTrunc1",
    "ξ": "loopLift2",
    "d_q": "loopCell2",
    "q̃": "subLoop2",
}


def emit_corpus(n_max: int = MAX_SUPPORTED_LEVEL) -> list[HottFile]:
    """All corpus files in dependency order, up to level `n_max`."""
    if not 0 <= n_max <= MAX_SUPPORTED_LEVEL:
        raise ValueError(f"unsupported level {n_max} (supported: 0..{MAX_SUPPORTED_LEVEL})")
    return prelude.emit_prelude() + generic.emit_generic() + levels.emit_levels(n_max)


def build_manifest(n_max: int = MAX_SUPPORTED_LEVEL, files: list[HottFile] | None = None) -> dict:
    """The manifest of the corpus up to level `n_max`, whose files are
    `files` if they are already emitted."""
    if files is None:
        files = emit_corpus(n_max)
    return {
        "max_level": n_max,
        "files": [
            {
                "path": f.relpath,
                "pragmas": list(f.pragmas),
                "declarations": [
                    {"name": d.name, "kind": d.kind, "ref": d.ref} for d in f.decls
                ],
            }
            for f in files
        ],
        "symbol_table": dict(SYMBOL_TABLE),
    }


def missing_symbols(n_max: int = MAX_SUPPORTED_LEVEL) -> list[str]:
    """Symbol-table entries whose declaration is absent from the corpus."""
    declared = {d.name for f in emit_corpus(n_max) for d in f.decls}
    return [sym for sym, name in SYMBOL_TABLE.items() if name not in declared]


def write_corpus(out_dir: str, n_max: int = MAX_SUPPORTED_LEVEL) -> list[str]:
    """Write corpus files and manifest.json under `out_dir`; idempotent.

    Returns the relative paths written (manifest.json last).
    """
    files = emit_corpus(n_max)
    written = []
    for f in files:
        path = os.path.join(out_dir, f.relpath)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        _write_if_changed(path, f.render())
        written.append(f.relpath)
    manifest_path = os.path.join(out_dir, "manifest.json")
    _write_if_changed(manifest_path, json.dumps(build_manifest(n_max, files), ensure_ascii=False, indent=2) + "\n")
    written.append("manifest.json")
    return written


def _write_if_changed(path: str, content: str) -> None:
    data = content.encode("utf-8")
    if os.path.exists(path):
        with open(path, "rb") as handle:
            if handle.read() == data:
                return
    with open(path, "wb") as handle:
        handle.write(data)

