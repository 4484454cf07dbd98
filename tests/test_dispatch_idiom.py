"""The kernel keeps one dispatch idiom: each step looks its node's class up
in a table (see `evaluate.py`), so no kernel module has a `match`
statement.  The parser's `match` on token kinds is not kernel code."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "minihott"


@pytest.mark.parametrize("module", ["checker", "conversion", "evaluate", "printer", "values"])
def test_the_kernel_has_no_match_statement(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Match)] == []
