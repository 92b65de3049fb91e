"""The benchmark tracer must find every library name it wraps.

``perfbench/tracer.py`` is loaded from its file, not modified: ``install``
raises on a traced function or method that the library no longer has, so a
rename or deletion shows up here instead of in a broken ``--trace 1`` run.
"""

import importlib.util
from pathlib import Path

from meshknit import mesh, present
from meshknit.classify import enumerate_configurations
from meshknit.dynkin import make_tree

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_traced_name():
    original = mesh.ProjectiveQuiver.__dict__["path_nonzero"]
    tracer = load_tracer().Tracer()
    try:
        tracer.install()
        config = enumerate_configurations(make_tree("A", 3))[0]
        tracer.begin_item("a3")
        # a module function is wrapped where the library binds it
        fund = present.fundamental_algebras(config)[0]
        pres = present.trivial_extension_presentation(config, fund)
        # the presentation reads the quiver by index; path_nonzero is the Pt entry
        assert mesh.projective_quiver(config).path_nonzero(list(fund))
        tracer.end_item()
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert mesh.ProjectiveQuiver.__dict__["path_nonzero"] is original
    assert metrics["mesh.path_nonzero.calls"] > 0
    assert metrics["present.relations"] == len(pres.relations)
