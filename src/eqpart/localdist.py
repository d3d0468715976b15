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
of h* — hence both local distributions of f — follow from the first row.
That formula, :func:`reconstruct_local`, and the parameters of h*,
:func:`star_params`, are defined in :mod:`eqpart.distributions` with the
other closed forms, so that it runs without this module and the graph code
it imports; both names are bound here too.

Index flattening is frozen as rows (i1 * k2 + i2) and columns
(i2 * m + j); the round-trip between h and h* is exact.
"""
from __future__ import annotations

from ._record import Record
from .distributions import reconstruct_local, star_params  # noqa: F401 - re-exported
from .equitable import Coloring, PerfectStructure, indicator, tensor_params
from .errors import EqpartError, ShapeError, StructureError
from .graphs import (
    DEFAULT_VERTEX_BUDGET,
    Graph,
    class_sums,
    direct_product,
    is_direct_product,
    vertex_values,
)
from .ratmat import RatMatrix, tensor


class TensorStructure(Record):
    """Product of two perfect structures, verified over the product graph."""

    left: PerfectStructure
    right: PerfectStructure
    product: PerfectStructure

    @property
    def params(self) -> RatMatrix:
        return self.product.params


def _pair_colors(g1: PerfectStructure, g2: PerfectStructure) -> list[int] | None:
    """The pair coloring (i1, i2) -> i1 * k2 + i2 of the direct product, in
    its vertex order, when the values of both factors are unit vectors, read
    from the values themselves; None otherwise."""
    c1, c2 = g1.values.unit_columns(), g2.values.unit_columns()
    if c1 is None or c2 is None:
        return None
    k2 = g2.values.cols
    return [i1 * k2 + i2 for i1 in c1 for i2 in c2]


def tensor_structure(
    g1: PerfectStructure, g2: PerfectStructure, budget: int = DEFAULT_VERTEX_BUDGET
) -> TensorStructure:
    """Combine two verified structures into one over the direct product.

    Construction re-verifies the defining equation on the product graph, so
    a successful return is itself the structural proof.  If both inputs are
    colorings the product values are the indicator rows of the pair
    coloring, which are the Kronecker product of theirs.
    """
    prod_graph = direct_product(g1.graph, g2.graph, budget)
    params = tensor_params(g1.params, g2.params)
    pairs = _pair_colors(g1, g2)
    coloring = None
    if pairs is None:
        values = tensor(g1.values, g2.values)
    else:
        k = g1.values.cols * g2.values.cols
        values = indicator(pairs, k)
        if g1.coloring is not None and g2.coloring is not None:
            coloring = Coloring(prod_graph, tuple(pairs), k)
    product = PerfectStructure(prod_graph, values, params, coloring=coloring)
    return TensorStructure(g1, g2, product)


def rearrange(h: RatMatrix, n_left: int, n_right: int) -> RatMatrix:
    """(n_left*n_right) x m  ->  n_left x (n_right*m), entrywise bijection:
    the row-major reshape, so row i1 of h* is rows (i1, 0..n_right-1) of h."""
    if h.rows != n_left * n_right:
        raise ShapeError(f"{h.rows} rows cannot split as {n_left} x {n_right}")
    return h.reshape(n_left, n_right * h.cols)


def unrearrange(h_star: RatMatrix, n_right: int) -> RatMatrix:
    """Inverse of :func:`rearrange`."""
    if h_star.cols % n_right:
        raise ShapeError(f"{h_star.cols} columns do not split into {n_right} groups")
    return h_star.reshape(h_star.rows * n_right, h_star.cols // n_right)


class RearrangedDistribution(Record):
    """The pair (h, h*) with its index metadata.

    ``left_is_distance`` / ``right_is_distance`` record whether the factor
    structures were distance colorings, which is what makes the first row
    and column blocks of h local distributions.
    """

    h: RatMatrix
    h_star: RatMatrix
    n_left: int
    n_right: int
    n_values: int
    left_is_distance: bool = False
    right_is_distance: bool = False

    def to_json(self) -> dict:
        return {
            "n_left": self.n_left,
            "n_right": self.n_right,
            "k": self.n_values,
            "h": self.h.to_strings(),
            "h_star": self.h_star.to_strings(),
        }


def _is_distance(g: PerfectStructure) -> bool:
    return g.coloring is not None and g.coloring.distance_code is not None


def tensor_distribution(
    g1: PerfectStructure,
    g2: PerfectStructure,
    f: PerfectStructure,
) -> RearrangedDistribution:
    """Distribution of f with respect to g1 (x) g2, with both governing
    identities asserted before returning.  f must be over the direct product
    of the factors' graphs, which is checked row by row, not built again."""
    if not isinstance(f.host, Graph) or not is_direct_product(f.host, g1.graph, g2.graph):
        raise ShapeError("f is over a different graph than the direct product of the factors")
    k1, k2, m = g1.values.cols, g2.values.cols, f.values.cols
    pairs = _pair_colors(g1, g2)
    if pairs is None:
        h = tensor(g1.values, g2.values).transpose() @ f.values
    else:
        # the contingency sums of f over the pair colors
        h = class_sums(vertex_values(f.host, f.values), pairs, k1 * k2)
    lhs = tensor_params(g1.params.transpose(), g2.params.transpose()) @ h
    if lhs != h @ f.params:
        raise StructureError("product distribution identity failed")
    h_star = rearrange(h, k1, k2)
    if g1.params.transpose() @ h_star != h_star @ star_params(g2.params, f.params):
        raise StructureError("rearranged distribution identity failed")
    return RearrangedDistribution(
        h,
        h_star,
        k1,
        k2,
        m,
        left_is_distance=_is_distance(g1),
        right_is_distance=_is_distance(g2),
    )


def extract_local(rd: RearrangedDistribution) -> tuple[RatMatrix, RatMatrix]:
    """The two local distributions inside h.

    First: rows (0, i2) of h — the distribution of f restricted to the fiber
    through the right factor.  Second: rows (i1, 0) — the restriction to the
    fiber through the left factor.  Both factor structures must be distance
    colorings for this reading to hold.
    """
    if not (rd.left_is_distance and rd.right_is_distance):
        raise EqpartError("local blocks need distance colorings on both factors")
    first = rd.h.sum_rows([i2] for i2 in range(rd.n_right))
    second = rd.h.sum_rows([i1 * rd.n_right] for i1 in range(rd.n_left))
    return first, second
