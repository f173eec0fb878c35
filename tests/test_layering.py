"""The import layering of the `linemaps` modules, read from their source.

`exact` is the bottom layer and `grid` sits directly on it; the oracles build
on `grid`, and only the CLI and the package's `__init__` reach the
collineation oracles.  Every import is made at module level, so the graph read
here is the whole graph.
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


def test_the_modules_import_in_layers():
    graph = {}
    nested = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        graph[path.stem] = {m for node in ast.walk(tree) for m in _package_modules(node)}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [f"{path.name}:{node.lineno}" for node in ast.walk(func)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == [], "imports inside a function body"
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        pytest.fail("import cycle: " + " -> ".join(exc.args[1]))
    assert graph["grid"] == {"exact"}
    assert sorted(m for m, deps in graph.items() if "collineations" in deps) == ["__init__", "cli"]
