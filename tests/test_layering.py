"""The import layering of the `linemaps` modules, read from their source.

`exact` is the bottom layer and `grid` sits directly on it; the oracles build
on `grid`, and only the CLI and the package's `__init__` reach the
collineation oracles.  The package's `__init__` imports nothing at load time:
its table of public names, by module, gives its edges.  Only the CLI imports
inside a function body (each command loads what it runs), and those imports
count too, so the graph read here is the whole graph.
"""

from __future__ import annotations

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import linemaps

PACKAGE = Path(linemaps.__file__).parent


def _package_modules(node: ast.AST):
    """The linemaps modules an import statement names."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 1:
            return [node.module] if node.module else [alias.name for alias in node.names]
        if node.level == 0 and (node.module or "").startswith("linemaps."):
            return [node.module.split(".", 1)[1]]
    if isinstance(node, ast.Import):
        return [alias.name.split(".", 1)[1] for alias in node.names
                if alias.name.startswith("linemaps.")]
    return []


def _lazy_table_modules(tree: ast.AST):
    """The modules named by the keys of an `_EXPORTS` table: `__init__`'s
    lazy table of public names."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                and [getattr(t, "id", None) for t in node.targets] == ["_EXPORTS"]):
            return {key.value for key in node.value.keys}
    return set()


def test_the_modules_import_in_layers():
    graph = {}
    nested = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        graph[path.stem] = ({m for node in ast.walk(tree) for m in _package_modules(node)}
                            | _lazy_table_modules(tree))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [f"{path.name}:{node.lineno}" for node in ast.walk(func)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert [site for site in nested if not site.startswith("cli.py:")] == [], \
        "imports inside a function body outside the CLI"
    assert graph["__init__"] == {"exact", "grid", "multiaffine", "collineations",
                                 "constraints", "projective", "scalars"}
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        pytest.fail("import cycle: " + " -> ".join(exc.args[1]))
    assert graph["grid"] == {"exact"}
    assert sorted(m for m, deps in graph.items() if "collineations" in deps) == ["__init__", "cli"]
