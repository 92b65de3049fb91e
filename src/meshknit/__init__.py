"""meshknit: combinatorics of selfinjective representation-finite algebras.

Stable translation quivers over Dynkin trees, configurations and the
knit-and-knot algorithm, enumeration and symmetry classes, and
quiver-with-relations presentations of the resulting algebras.

The package exports the calls of README's library tour and the types they
take and return; everything else is imported from its module.
"""

from .dynkin import DynkinTree, make_tree
from .errors import MeshknitError
from .knitting import dims_on_section, knit_and_knot
from .classify import ConfigurationClass, configurations_up_to_aut, enumerate_configurations
from .present import QuiverPresentation, quiver_of_AC, trivial_extension_presentation
from .ztquiver import AdmissibleGroup, Configuration, Pt, Section, check_combinatorial_configuration, table_groups

__all__ = [
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
__version__ = "0.1.0"
