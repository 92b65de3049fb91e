"""Module layout: imports inside functions only where they break a cycle."""

import ast
from pathlib import Path

import meshknit

PACKAGE = Path(meshknit.__file__).parent


def test_function_level_imports_only_break_cycles():
    """Every ``from .`` import inside a function of the package is one of the
    two that break a cycle through ``classify``, which imports ``mesh`` and,
    through ``knitting``, ``ztquiver``; all others sit at module top."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    if isinstance(inner, ast.ImportFrom) and inner.level:
                        found.add((path.stem, node.name, inner.module))
    assert found == {("mesh", "projective_quiver", "classify"), ("ztquiver", "table_groups", "classify")}
