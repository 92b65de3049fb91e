"""Module layout: imports sit at module top, and relative ones form no cycle."""

import ast
from graphlib import TopologicalSorter
from pathlib import Path

import meshknit

PACKAGE = Path(meshknit.__file__).parent
SOURCES = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def test_no_import_inside_a_function():
    """Every import of the package, relative or not, sits at module top."""
    found = {
        (stem, node.name, ast.unparse(inner))
        for stem, source in SOURCES.items()
        for node in ast.walk(source)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    }
    assert not found


def test_relative_imports_are_acyclic():
    """The modules and their relative imports, wherever they sit, form an
    acyclic graph; ``from . import m`` counts as an import of m."""
    graph = {stem: set() for stem in SOURCES}
    for stem, source in SOURCES.items():
        for node in ast.walk(source):
            if isinstance(node, ast.ImportFrom) and node.level:
                graph[stem].update([node.module] if node.module else [a.name for a in node.names])
    assert graph["mesh"] >= {"ztquiver"} and graph["cli"] >= {"classify", "present"}
    order = list(TopologicalSorter(graph).static_order())  # CycleError on a cycle
    assert sorted(order) == sorted(SOURCES)
