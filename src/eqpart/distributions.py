"""Weight distributions of perfect structures.

The pairwise distribution of two perfect structures f (params S) and g
(params R) over the same host is the matrix g^T f; it is itself a perfect
structure with parameters S over R^T.  When R^T vanishes above its
superdiagonal and the superdiagonal is nonzero, every row of such a
structure follows from the first one, either by direct recursion or through
degree-i polynomials applied to S; both routes are implemented and checked
against each other on every call.

The remaining functions are closed forms for specific code families:
distributions with respect to a vertex of a distance-regular graph, to the
zero class of the block-sum coloring, to a factor fiber of a direct product,
and to a smaller-alphabet subcube (where the polynomial parameter becomes a
genuine non-integer rational).
"""
from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .drg import (
    IntersectionArray,
    PPolynomials,
    krawtchouk_p_polynomials,
    p_polynomials_of,
    poly_add,
    poly_mul_x,
    poly_scale,
)
from .errors import EqpartError, ReconstructionError, ShapeError, StructureError
from .graphs import Graph
from .ratmat import RatMatrix, parse_rational, row_poly_eval


class Distribution(Record):
    """Stack of row vectors, one per color of g (or per distance class)."""

    matrix: RatMatrix
    source: str = ""

    @property
    def n_rows(self) -> int:
        return self.matrix.rows

    def row(self, i: int):
        return self.matrix.row(i)

    def to_json(self) -> dict:
        return {"rows": self.matrix.to_strings()}


def _as_row(v, width: int | None = None) -> RatMatrix:
    if isinstance(v, RatMatrix):
        if v.rows != 1:
            raise ShapeError(f"expected a single row, got {v.shape()}")
        row = v
    else:
        row = RatMatrix.row_vector([parse_rational(x) for x in v])
    if width is not None and row.cols != width:
        raise ShapeError(f"row has {row.cols} entries, expected {width}")
    return row


def _same_host(g: PerfectStructure, f: PerfectStructure) -> bool:
    if isinstance(g.host, Graph) and isinstance(f.host, Graph):
        return g.host.same_adjacency(f.host)
    if isinstance(g.host, RatMatrix) and isinstance(f.host, RatMatrix):
        # g lives over the transpose of f's host
        return g.host == f.host.transpose()
    return False


def distribution(g: PerfectStructure, f: PerfectStructure) -> Distribution:
    """g^T f, with the governing identity R^T (g^T f) = (g^T f) S asserted."""
    if g.values.rows != f.values.rows:
        raise ShapeError(
            f"structures live on {g.values.rows} and {f.values.rows} vertices"
        )
    if not _same_host(g, f):
        raise ShapeError("structures are not over compatible hosts")
    h = g.values.transpose() @ f.values
    if g.params.transpose() @ h != h @ f.params:
        raise StructureError("distribution identity failed; inputs are inconsistent")
    return Distribution(h, source="pairwise")


def _check_pattern(b: RatMatrix, n_rows: int):
    if not b.is_square():
        raise ShapeError(f"reconstruction matrix must be square, got {b.shape()}")
    if n_rows > b.rows:
        raise ShapeError(f"cannot produce {n_rows} rows from a {b.rows}-row matrix")
    for i in range(n_rows - 1):
        if b[i, i + 1] == 0:
            raise ReconstructionError(f"superdiagonal entry ({i},{i + 1}) is zero")
        for j in range(i + 2, b.cols):
            if b[i, j] != 0:
                raise ReconstructionError(
                    f"entry ({i},{j}) = {b[i, j]} above the superdiagonal"
                )


def rows_by_recurrence(b: RatMatrix, s: RatMatrix, h0, n_rows: int) -> RatMatrix:
    """Direct recursion: row i = (row_{i-1} S - sum_j B[i-1,j] row_j) / B[i-1,i]."""
    _check_pattern(b, n_rows)
    h0 = _as_row(h0, s.rows)
    rows = [list(h0.row(0))]
    for i in range(1, n_rows):
        prev = RatMatrix.row_vector(rows[i - 1])
        acc = list((prev @ s).row(0))
        for j in range(i):
            coef = b[i - 1, j]
            if coef != 0:
                acc = [x - coef * y for x, y in zip(acc, rows[j])]
        inv = 1 / b[i - 1, i]
        rows.append([inv * x for x in acc])
    return RatMatrix(rows)


def reconstruction_polynomials(b: RatMatrix, n_rows: int) -> list[list[Fraction]]:
    """Degree-i polynomials q_i with row_i = row_0 * q_i(S), mirroring the
    recursion at the polynomial level."""
    _check_pattern(b, n_rows)
    polys: list[list[Fraction]] = [[Fraction(1)]]
    for i in range(1, n_rows):
        acc = poly_mul_x(polys[i - 1])
        for j in range(i):
            coef = b[i - 1, j]
            if coef != 0:
                acc = poly_add(acc, poly_scale(-coef, polys[j]))
        polys.append(poly_scale(1 / b[i - 1, i], acc))
    return polys


def rows_by_matrix_polynomials(b: RatMatrix, s: RatMatrix, h0, n_rows: int) -> RatMatrix:
    """Polynomial route: row i = row_0 applied to the degree-i polynomial of S."""
    h0 = _as_row(h0, s.rows)
    polys = reconstruction_polynomials(b, n_rows)
    return RatMatrix([row_poly_eval(h0, p, s).row(0) for p in polys])


def reconstruct_from_first_row(b: RatMatrix, s: RatMatrix, h0, n_rows: int) -> Distribution:
    """All rows of a perfect structure over ``b`` from its first row.

    Both computation routes run and must agree exactly; drift between them
    would signal an implementation bug.
    """
    direct = rows_by_recurrence(b, s, h0, n_rows)
    via_polys = rows_by_matrix_polynomials(b, s, h0, n_rows)
    assert direct == via_polys, "recursion and polynomial routes disagree"
    return Distribution(direct, source="first-row reconstruction")


def vertex_distribution(
    g: Graph | IntersectionArray, s: RatMatrix, j: int, ppolys: PPolynomials | None = None
) -> Distribution:
    """Distribution of an S-perfect coloring with respect to any color-j
    vertex of a distance-regular graph: row w = e_j p_w(S).

    ``g`` is the graph or just its intersection array.  ``ppolys`` may be
    passed to reuse a precomputed polynomial family.
    """
    if ppolys is None:
        ppolys = p_polynomials_of(g)
    if not 0 <= j < s.rows:
        raise ShapeError(f"color {j} out of range for a {s.rows}-color structure")
    e_j = [Fraction(0)] * s.rows
    e_j[j] = Fraction(1)
    row = RatMatrix.row_vector(e_j)
    rows = [row_poly_eval(row, ppolys[w], s).row(0) for w in range(len(ppolys))]
    return Distribution(RatMatrix(rows), source=f"vertex color {j}")


def lattice_distribution(m: int, k: int, q: int, s: RatMatrix, f0) -> Distribution:
    """Distribution with respect to the zero class of the block-sum coloring
    of the length-(m*k) Hamming graph: row w = f0 p_w(S/m), with the p_w of
    the length-k Hamming graph obtained from the Krawtchouk closed form.
    """
    if m < 1 or k < 1 or q < 2:
        raise EqpartError(f"needs m, k >= 1 and q >= 2, got m={m}, k={k}, q={q}")
    f0 = _as_row(f0, s.rows)
    ppolys = krawtchouk_p_polynomials(k, q)
    scaled = s.scale(Fraction(1, m))
    rows = [row_poly_eval(f0, ppolys[w], scaled).row(0) for w in range(k + 1)]
    return Distribution(RatMatrix(rows), source="lattice")


def fiber_distribution(
    g2: Graph | IntersectionArray, d: int, s: RatMatrix, f0, ppolys: PPolynomials | None = None
) -> Distribution:
    """Distribution with respect to a left-factor fiber of a direct product
    whose left factor is d-regular: row w = f0 p_w(S - d I), with the p_w of
    the (distance-regular) right factor, given as a graph or its array.
    """
    if ppolys is None:
        ppolys = p_polynomials_of(g2)
    f0 = _as_row(f0, s.rows)
    shifted = s - RatMatrix.identity(s.rows).scale(d)
    rows = [row_poly_eval(f0, ppolys[w], shifted).row(0) for w in range(len(ppolys))]
    return Distribution(RatMatrix(rows), source="fiber")


def subcube_distribution(m: int, k: int, q: int, s: RatMatrix, f0) -> Distribution:
    """Fiber specialization for an m-dimensional subcube of the
    length-(m+k) Hamming graph: shift by the subcube degree (q-1)m and use
    the Krawtchouk polynomials of the length-k complement."""
    f0 = _as_row(f0, s.rows)
    ppolys = krawtchouk_p_polynomials(k, q)
    shifted = s - RatMatrix.identity(s.rows).scale((q - 1) * m)
    rows = [row_poly_eval(f0, ppolys[w], shifted).row(0) for w in range(k + 1)]
    return Distribution(RatMatrix(rows), source="subcube")


def pcube_distribution(n: int, p: int, q: int, s: RatMatrix, f0) -> Distribution:
    """Distribution with respect to the same-dimension subcube over the
    smaller alphabet {0..p-1}, p < q.

    Row w = f0 p_w(S') with S' = (S - (p-1) n I) / p and p_w built from
    Krawtchouk polynomials at the rational alphabet parameter q/p.  The
    covering radius of the subcube is n, so rows run w = 0..n.
    """
    if n < 1 or not 1 <= p < q:
        raise EqpartError(f"needs n >= 1 and 1 <= p < q, got n={n}, p={p}, q={q}")
    f0 = _as_row(f0, s.rows)
    ppolys = krawtchouk_p_polynomials(n, Fraction(q, p))
    shifted = (s - RatMatrix.identity(s.rows).scale((p - 1) * n)).scale(Fraction(1, p))
    rows = [row_poly_eval(f0, ppolys[w], shifted).row(0) for w in range(n + 1)]
    return Distribution(RatMatrix(rows), source="small-alphabet subcube")
