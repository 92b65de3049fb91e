"""Module layout: imports sit at module top, relative ones form no cycle, and
the package exports a pinned surface that README names."""

import ast
import inspect
from graphlib import TopologicalSorter
from pathlib import Path

import meshknit

PACKAGE = Path(meshknit.__file__).parent
README = (Path(__file__).parents[1] / "README.md").read_text()
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


SURFACE = [
    "AdmissibleGroup",
    "Configuration",
    "ConfigurationClass",
    "DynkinTree",
    "MeshknitError",
    "Pt",
    "QuiverPresentation",
    "Section",
    "check_combinatorial_configuration",
    "configurations_up_to_aut",
    "dims_on_section",
    "enumerate_configurations",
    "knit_and_knot",
    "make_tree",
    "quiver_of_AC",
    "table_groups",
    "trivial_extension_presentation",
]


def test_the_package_exports_the_pinned_surface():
    """``__all__`` is the pinned list, and the package binds no other public
    name but its submodules."""
    assert meshknit.__all__ == SURFACE
    extra = {n for n, v in vars(meshknit).items() if not n.startswith("_") and not inspect.ismodule(v)}
    assert extra == set(SURFACE)


def test_readme_names_every_exported_name():
    assert [n for n in SURFACE if f"`{n}`" not in README] == []


def test_readme_library_tour_runs():
    """The tour's code block runs as written."""
    tour = README.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(tour, "README.md", "exec"), {})
