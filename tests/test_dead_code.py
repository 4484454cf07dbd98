"""No dead code: every top-level function and class of the package is named
somewhere other than its own definition, in `src/`, `tests/` or
`pyproject.toml` (where the console script names its entry point).

A name counts as a use of the definition it refers to: a bare name in the
defining module, a name imported from that module (an import is a use,
so a re-export counts), or an attribute of that module, as in `t.Pi`.
"""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def module_of(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC if SRC in path.parents else path.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def imports(tree: ast.AST, module: str, is_package: bool) -> dict:
    """Each name a file imports, mapped to (module, name), or to (module,
    None) for an imported module."""
    package = module if is_package else module.rpartition(".")[0]
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                out[local] = (alias.name if alias.asname else local, None)
        elif isinstance(node, ast.ImportFrom):
            base = package.rsplit(".", node.level - 1)[0] if node.level > 1 else package
            source = ".".join(filter(None, [base if node.level else "", node.module]))
            for alias in node.names:
                is_module = (SRC / source.replace(".", "/") / alias.name).with_suffix(".py").exists()
                target = (f"{source}.{alias.name}", None) if is_module else (source, alias.name)
                out[alias.asname or alias.name] = target
    return out


def uses(node: ast.AST, module: str, aliases: dict) -> collections.Counter:
    """(module, name) of each definition that `node` names."""
    found = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.alias):
            target = aliases.get(sub.asname or sub.name)
            if target is not None and target[1] is not None:
                found[target] += 1
        elif isinstance(sub, ast.Name):
            target = aliases.get(sub.id)
            found[target if target is not None and target[1] is not None else (module, sub.id)] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            target = aliases.get(sub.value.id)
            if target is not None and target[1] is None:
                found[(target[0], sub.attr)] += 1
    return found


def test_every_top_level_function_and_class_is_used():
    files = [*SRC.rglob("*.py"), *(ROOT / "tests").rglob("*.py")]
    parsed = {}
    used = collections.Counter()
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = module_of(path)
        aliases = imports(tree, module, path.name == "__init__.py")
        parsed[path] = (tree, module, aliases)
        used += uses(tree, module, aliases)
    used.update(re.findall(r"([\w.]+):(\w+)", (ROOT / "pyproject.toml").read_text(encoding="utf-8")))
    unused = []
    for path in SRC.rglob("*.py"):
        tree, module, aliases = parsed[path]
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("__"):
                # a recursive call or a reference in its own body is no use
                key = (module, node.name)
                if used[key] - uses(node, module, aliases)[key] <= 0:
                    unused.append(f"{module}.{node.name}")
    assert unused == []
