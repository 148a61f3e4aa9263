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


def test_fraction_passes_called_only_where_allowed():
    """Reach, Bayes and one-shot-gain arithmetic lives on the integer core;
    the Fraction passes `reach_map` and `continuation_values` are the public
    definitions, read only by trees.py's wrappers, the brute-force SSE oracle
    and `prune_nature`."""
    passes = {"reach_map", "continuation_values"}
    callers, importers = set(), set()
    for path in sorted(Path(provergames.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        module = path.stem
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                importers.update((module, a.name) for a in node.names if a.name in passes)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                called = {
                    getattr(call.func, "id", getattr(call.func, "attr", None))
                    for call in ast.walk(node)
                    if isinstance(call, ast.Call)
                }
                if called & passes:
                    callers.add(f"{module}.{node.name}")
    assert sorted(callers) == [
        "equilibrium.is_sse_bruteforce",
        "pruning.prune_nature",
        "trees.conditional_utility",
        "trees.expected_utility",
        "trees.utility_vector",
    ]
    assert sorted(importers) == [
        ("equilibrium", "reach_map"),
        ("pruning", "continuation_values"),
    ]


def test_integer_core_compiled_only_by_core_of():
    """Every analysis takes its core from `trees._core_of`, which keeps the
    last one compiled, so a chain of calls on one tree compiles it once; a
    call that builds its own `_IntCore` would compile once per call again."""
    sites = []
    for path in sorted(Path(provergames.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}  # node -> innermost enclosing function; `ast.walk` goes outside in
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, f"{path.stem}.{fn.name}") for node in ast.walk(fn))
        sites += [
            owner.get(call, f"{path.stem}.<module>")
            for call in ast.walk(tree)
            if isinstance(call, ast.Call)
            and getattr(call.func, "id", getattr(call.func, "attr", None)) == "_IntCore"
        ]
    assert sites == ["trees._core_of"]
