"""Distributions over tensor products of perfect structures.

If g1 and g2 are perfect structures over two graphs, their Kronecker product
is a perfect structure over the direct product graph, with parameters
R1 (x) I + I (x) R2.  The distribution h of a third structure f (over the
product) with respect to g1 (x) g2 has rows indexed by color pairs; writing
the first index as the row number and the pair (second index, f-color) as
the column produces the rearranged matrix h*, which is itself a perfect
structure over R1^T with parameters I (x) S - R2 (x) I.  That turns the
reconstruction machinery of :mod:`eqpart.distributions` loose on h*: when g1
is the distance coloring of a vertex of a distance-regular graph, all rows
of h* — hence both local distributions of f — follow from the first row
and the left factor's intersection array.  That formula,
:func:`reconstruct_local`, and the parameters of h*, :func:`star_params`,
are defined in :mod:`eqpart.distributions` with the other closed forms, so
that it runs without this module and the graph code it imports; both names
are bound here too.  :func:`tensor_distribution` returns h, certified with
h*, and :func:`rearrange` gives h* from it.

Index flattening is frozen as rows (i1 * k2 + i2) and columns
(i2 * m + j): h* is the row-major reshape of h.
"""
from __future__ import annotations

from .distributions import reconstruct_local, star_params  # noqa: F401 - re-exported
from .equitable import Coloring, PerfectStructure, tensor_params
from .errors import ShapeError, StructureError
from .graphs import DEFAULT_VERTEX_BUDGET, Graph, class_sums, direct_product, is_direct_product
from .ratmat import RatMatrix, first_difference, tensor


def _pair_colors(g1: PerfectStructure, g2: PerfectStructure) -> list[int] | None:
    """The pair coloring (i1, i2) -> i1 * k2 + i2 of the direct product, in
    its vertex order, when the values of both factors are colorings; None
    otherwise."""
    c1, c2 = g1.values, g2.values
    if not (isinstance(c1, Coloring) and isinstance(c2, Coloring)):
        return None
    k2 = c2.n_colors
    return [i1 * k2 + i2 for i1 in c1.colors for i2 in c2.colors]


def tensor_structure(
    g1: PerfectStructure, g2: PerfectStructure, budget: int = DEFAULT_VERTEX_BUDGET
) -> PerfectStructure:
    """The product of two verified structures over the direct product of
    their graphs, with parameters :func:`tensor_params`: the pair coloring
    of two colorings (whose indicator is the Kronecker product of theirs),
    else the Kronecker product of the value matrices.  Construction
    re-verifies the defining equation on the product graph, so a successful
    return is itself the structural proof.
    """
    prod_graph = direct_product(g1.graph, g2.graph, budget)
    pairs = _pair_colors(g1, g2)
    if pairs is not None:
        values = Coloring(prod_graph, tuple(pairs), g1.n_colors * g2.n_colors)
    else:
        values = tensor(g1.value_matrix(), g2.value_matrix())
    return PerfectStructure(prod_graph, values, tensor_params(g1.params, g2.params))


def rearrange(h: RatMatrix, n_left: int, n_right: int) -> RatMatrix:
    """(n_left*n_right) x m  ->  n_left x (n_right*m), entrywise bijection:
    the row-major reshape, so row i1 of h* is rows (i1, 0..n_right-1) of h."""
    if h.rows != n_left * n_right:
        raise ShapeError(f"{h.rows} rows cannot split as {n_left} x {n_right}")
    return h.reshape(n_left, n_right * h.cols)


def tensor_distribution(g1: PerfectStructure, g2: PerfectStructure,
                        f: PerfectStructure) -> RatMatrix:
    """The distribution h of f with respect to g1 (x) g2, with its identity
    and that of h* = ``rearrange(h, k1, k2)`` asserted before returning.  f
    must be over the direct product of the factors' graphs, which is checked
    row by row, not built again.  When g1 and g2 are distance colorings of a
    vertex, rows (0, i2) and (i1, 0) of h are the local distributions of f
    on the fibers through the right and the left factor."""
    if not isinstance(f.host, Graph) or not is_direct_product(f.host, g1.graph, g2.graph):
        raise ShapeError("f is over a different graph than the direct product of the factors")
    k1, k2 = g1.n_colors, g2.n_colors
    pairs = _pair_colors(g1, g2)
    if pairs is None:
        h = tensor(g1.value_matrix(), g2.value_matrix()).transpose() @ f.value_matrix()
    else:
        # the contingency sums of f over the pair colors
        h = class_sums(f.values, pairs, k1 * k2)
    lhs, rhs = tensor_params(g1.params.transpose(), g2.params.transpose()) @ h, h @ f.params
    if lhs != rhs:
        raise StructureError("product distribution identity failed: "
                             + first_difference(lhs, rhs, "(R1 (+) R2)^T h", "h S"))
    h_star = rearrange(h, k1, k2)
    lhs, rhs = g1.params.transpose() @ h_star, h_star @ star_params(g2.params, f.params)
    if lhs != rhs:
        raise StructureError("rearranged distribution identity failed: "
                             + first_difference(lhs, rhs, "R1^T h*", "h* S*"))
    return h
