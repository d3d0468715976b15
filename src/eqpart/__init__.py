"""Exact-arithmetic equitable partitions, completely regular codes, and
their weight distributions on graphs."""

from .distributions import (
    Distribution,
    distribution,
    fiber_distribution,
    lattice_distribution,
    pcube_distribution,
    reconstruct_from_first_row,
    subcube_distribution,
    vertex_distribution,
)
from .drg import (
    IntersectionArray,
    PPolynomials,
    eberlein,
    halved_cube_intersection_array,
    hamming_intersection_array,
    intersection_array,
    johnson_intersection_array,
    krawtchouk,
    krawtchouk_p_polynomials,
    krawtchouk_recurrence_check,
    p_polynomials,
    spec_intersection_array,
)
from .equitable import (
    Coloring,
    CompletelyRegularCode,
    PerfectStructure,
    all_one_coloring,
    check_completely_regular,
    coloring_from_list,
    distance_coloring,
    fiber_coloring,
    lattice_coloring,
    quotient_matrix,
    structure_from_coloring,
    tensor_params,
    trivial_coloring,
    verify_structure,
)
from .errors import (
    EqpartError,
    NotDistanceRegularError,
    NotEquitableError,
    NotTridiagonalError,
    ReconstructionError,
    ShapeError,
    StructureError,
    UnreachableVertexError,
    VertexBudgetError,
)
from .graphs import (
    DEFAULT_VERTEX_BUDGET,
    Graph,
    direct_product,
    distance_w_sum,
    distances_from_set,
    graph_from_edges,
    halved_cube,
    hamming_graph,
    johnson_graph,
    load_graph,
)
from .localdist import (
    RearrangedDistribution,
    TensorStructure,
    extract_local,
    rearrange,
    reconstruct_local,
    tensor_distribution,
    tensor_structure,
    unrearrange,
)
from .oracle import brute_distribution, brute_pair_distribution
from .ratmat import RatMatrix, Rational, mat_poly_eval, solve, tensor

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
