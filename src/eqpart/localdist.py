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

Index flattening is frozen as rows (i1 * k2 + i2) and columns
(i2 * m + j); the round-trip between h and h* is exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .drg import IntersectionArray, PPolynomials, p_polynomials_of
from .equitable import PerfectStructure, tensor_params
from .errors import EqpartError, ShapeError, StructureError
from .graphs import DEFAULT_VERTEX_BUDGET, Graph, direct_product
from .ratmat import RatMatrix, row_poly_eval, tensor


@dataclass(frozen=True)
class TensorStructure:
    """Product of two perfect structures, verified over the product graph."""

    left: PerfectStructure
    right: PerfectStructure
    product: PerfectStructure

    @property
    def params(self) -> RatMatrix:
        return self.product.params


def tensor_structure(
    g1: PerfectStructure, g2: PerfectStructure, budget: int = DEFAULT_VERTEX_BUDGET
) -> TensorStructure:
    """Combine two verified structures into one over the direct product.

    Construction re-verifies the defining equation on the product graph, so
    a successful return is itself the structural proof.  If both inputs are
    colorings the product values are again indicator rows.
    """
    prod_graph = direct_product(g1.graph, g2.graph, budget)
    values = tensor(g1.values, g2.values)
    params = tensor_params(g1.params, g2.params)
    coloring = None
    if g1.coloring is not None and g2.coloring is not None:
        k2 = g2.coloring.n_colors
        colors = tuple(
            g1.coloring.colors[v // g2.graph.n] * k2 + g2.coloring.colors[v % g2.graph.n]
            for v in range(prod_graph.n)
        )
        from .equitable import Coloring

        coloring = Coloring(prod_graph, colors, g1.coloring.n_colors * k2)
    product = PerfectStructure(prod_graph, values, params, coloring=coloring)
    return TensorStructure(g1, g2, product)


def rearrange(h: RatMatrix, n_left: int, n_right: int) -> RatMatrix:
    """(n_left*n_right) x m  ->  n_left x (n_right*m), entrywise bijection."""
    if h.rows != n_left * n_right:
        raise ShapeError(f"{h.rows} rows cannot split as {n_left} x {n_right}")
    m = h.cols
    rows = []
    for i1 in range(n_left):
        row: list[Fraction] = []
        for i2 in range(n_right):
            row.extend(h.row(i1 * n_right + i2))
        rows.append(row)
    return RatMatrix(rows)


def unrearrange(h_star: RatMatrix, n_right: int) -> RatMatrix:
    """Inverse of :func:`rearrange`."""
    if h_star.cols % n_right:
        raise ShapeError(f"{h_star.cols} columns do not split into {n_right} groups")
    m = h_star.cols // n_right
    rows = []
    for i1 in range(h_star.rows):
        full = h_star.row(i1)
        for i2 in range(n_right):
            rows.append(full[i2 * m : (i2 + 1) * m])
    return RatMatrix(rows)


def star_params(r2: RatMatrix, s: RatMatrix) -> RatMatrix:
    """Parameters governing h*: I (x) S - R2 (x) I."""
    return tensor(RatMatrix.identity(r2.rows), s) - tensor(r2, RatMatrix.identity(s.rows))


@dataclass(frozen=True)
class RearrangedDistribution:
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
    budget: int = DEFAULT_VERTEX_BUDGET,
) -> RearrangedDistribution:
    """Distribution of f with respect to g1 (x) g2, with both governing
    identities asserted before returning."""
    prod_graph = direct_product(g1.graph, g2.graph, budget)
    if not isinstance(f.host, Graph) or not f.host.same_adjacency(prod_graph):
        raise ShapeError("f is not a structure over the direct product of the factors")
    k1, k2, m = g1.values.cols, g2.values.cols, f.values.cols
    h = tensor(g1.values, g2.values).transpose() @ f.values
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


def reconstruct_local(
    g1: Graph | IntersectionArray,
    r2: RatMatrix,
    s: RatMatrix,
    h_star_0,
    ppolys: PPolynomials | None = None,
) -> RatMatrix:
    """All rows of h* from its first row, for a distance-regular left factor
    given as a graph or its intersection array:
    row i = row_0 p_i(I (x) S - R2 (x) I)."""
    if ppolys is None:
        ppolys = p_polynomials_of(g1)
    mat = star_params(r2, s)
    if isinstance(h_star_0, RatMatrix):
        row0 = h_star_0
    else:
        row0 = RatMatrix.row_vector(h_star_0)
    if row0.rows != 1 or row0.cols != mat.rows:
        raise ShapeError(
            f"first row has shape {row0.shape()}, expected 1 x {mat.rows}"
        )
    rows = [row_poly_eval(row0, ppolys[i], mat).row(0) for i in range(len(ppolys))]
    return RatMatrix(rows)


def extract_local(rd: RearrangedDistribution) -> tuple[RatMatrix, RatMatrix]:
    """The two local distributions inside h.

    First: rows (0, i2) of h — the distribution of f restricted to the fiber
    through the right factor.  Second: rows (i1, 0) — the restriction to the
    fiber through the left factor.  Both factor structures must be distance
    colorings for this reading to hold.
    """
    if not (rd.left_is_distance and rd.right_is_distance):
        raise EqpartError("local blocks need distance colorings on both factors")
    first = RatMatrix([rd.h.row(i2) for i2 in range(rd.n_right)])
    second = RatMatrix([rd.h.row(i1 * rd.n_right) for i1 in range(rd.n_left)])
    return first, second
