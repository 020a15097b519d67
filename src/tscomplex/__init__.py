"""Total simplicial complexes of finite simple graphs.

Build the complex of a labeled graph, compute exact simplicial homology
over the rationals or a prime field, decide Cohen-Macaulay / Buchsbaum /
CM_t properties, and enumerate minimal vertex covers and facet-ideal
decompositions.
"""

from .cohen_macaulay import (
    CmReport,
    CmWitness,
    is_cm,
    is_cm_t,
    vertex_links_connected,
)
from .complexes import (
    Face,
    SimplicialComplex,
    complex_dumps,
    complex_loads,
)
from .covers import (
    CoverReport,
    PrimeComponent,
    facet_ideal_decomposition,
    friendship_cover_count,
    minimal_vertex_covers,
    stanley_reisner_generators,
)
from .graphs import (
    Graph,
    TotalLabeling,
    default_labeling,
    gen_c42,
    gen_friendship,
    graph_dumps,
    graph_loads,
    is_connected,
    total_graph,
)
from .homology import (
    DEFAULT_FIELD,
    BoundaryMatrix,
    FieldSpec,
    HomologySummary,
    PrimeField,
    Rationals,
    boundary_matrix,
    homology_summary,
    matrix_rank,
    parse_field,
)
from .tsc import (
    build_tsc,
    c42_fixture,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryMatrix",
    "CmReport",
    "CmWitness",
    "CoverReport",
    "DEFAULT_FIELD",
    "Face",
    "FieldSpec",
    "Graph",
    "HomologySummary",
    "PrimeComponent",
    "PrimeField",
    "Rationals",
    "SimplicialComplex",
    "TotalLabeling",
    "boundary_matrix",
    "build_tsc",
    "c42_fixture",
    "complex_dumps",
    "complex_loads",
    "default_labeling",
    "facet_ideal_decomposition",
    "friendship_cover_count",
    "gen_c42",
    "gen_friendship",
    "graph_dumps",
    "graph_loads",
    "homology_summary",
    "is_cm",
    "is_cm_t",
    "is_connected",
    "matrix_rank",
    "minimal_vertex_covers",
    "parse_field",
    "stanley_reisner_generators",
    "total_graph",
    "vertex_links_connected",
]
