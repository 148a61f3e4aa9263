"""Every import in the package sits at module level, so the module graph
(trees -> equilibrium -> subforms -> gaps -> pruning, ...) is read from the
top of each file."""

from __future__ import annotations

import ast
from pathlib import Path

import provergames


def test_no_import_inside_a_function():
    hits = set()
    for path in sorted(Path(provergames.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                hits.update(
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                )
    assert sorted(hits) == []
