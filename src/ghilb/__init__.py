"""Exact G-Hilbert scheme computations for finite abelian subgroups of SL3(C).

Given diagonal generators, the package enumerates the torus-fixed points of
the G-Hilbert scheme as classified monomial staircases, computes the McKay
quiver and its wedge tensor matrices, assembles and checks the crepant
toric resolution, and verifies the equivariant Hom dimensions and the
exactness of the associated complexes with exact rational arithmetic.
"""

from .ggraph import (
    GGraph,
    MonomialIdeal,
    brute_force_fixed_points,
    complement,
    enumerate_fixed_points,
    is_ggraph,
)
from .groups import AbelianGroup, GroupSpec, GroupSpecError
from .homcalc import hom_dim, hom_matrix
from .koszul import (
    Chart,
    ModuleRep,
    build_rep,
    cpxnil_homology,
    koszul_homology,
)
from .mckay import intersection_matrix, mckay_matrices, quiver_dot
from .toric import Fan, build_fan, chart_cone
from .verify import verification_report

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "Chart",
    "Fan",
    "GGraph",
    "GroupSpec",
    "GroupSpecError",
    "ModuleRep",
    "MonomialIdeal",
    "brute_force_fixed_points",
    "build_fan",
    "build_rep",
    "chart_cone",
    "complement",
    "cpxnil_homology",
    "enumerate_fixed_points",
    "hom_dim",
    "hom_matrix",
    "intersection_matrix",
    "is_ggraph",
    "koszul_homology",
    "mckay_matrices",
    "quiver_dot",
    "verification_report",
]
