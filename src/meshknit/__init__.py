"""meshknit: combinatorics of selfinjective representation-finite algebras.

Stable translation quivers over Dynkin trees, configurations and the
knit-and-knot algorithm, enumeration and symmetry classes, and
quiver-with-relations presentations of the resulting algebras.
"""

from .dynkin import AffineMap, DynkinTree, loewy_number, make_tree, tree_automorphisms
from .errors import MeshknitError
from .knitting import (
    DimensionVector,
    Pattern,
    dims_on_section,
    knit_and_knot,
    knit_pattern,
    knit_run,
    propagate_dims,
)
from .mesh import hom_dim_oracle, nakayama, nu_inverse, precedes, starting_function
from .classify import (
    ConfigurationClass,
    Pedigree,
    configurations_up_to_aut,
    dn_corner_count,
    enumerate_configurations,
    enumerate_pedigrees,
    pedigree_count,
    pedigree_dimension_vector,
    pedigree_from_dims,
)
from .present import (
    BrauerQuiver,
    QuiverPresentation,
    brauer_from_pedigree,
    cartan_matrix,
    d3m_quotient_presentations,
    exceptional_cycle_presentation,
    fundamental_algebras,
    pedigree_from_brauer,
    quiver_of_AC,
    reflect_fundamental,
    trivial_extension_presentation,
)
from .ztquiver import (
    AdmissibleGroup,
    Configuration,
    Pt,
    QuiverWindow,
    Section,
    build_window,
    check_combinatorial_configuration,
    equioriented_section,
    is_admissible,
    plus_admissible_enumeration,
    quotient,
    section_move,
    table_groups,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
