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
and to a smaller-alphabet subcube.  Each is row w = f0 p_w(T) for the
polynomials p_w of an integer intersection array and a matrix T = aS + bI,
computed in one call of the three-term recurrence
(:func:`eqpart.ratmat.recurrence_rows`), with no polynomial expanded and no
graph built.  The Hamming arrays of the lattice, subcube and pcube forms
are written out here; :mod:`eqpart.drg`, for any other array, is imported
by the forms that take one.
"""
from __future__ import annotations

from ._record import Record
from .errors import EqpartError, ReconstructionError, ShapeError, StructureError
from .ratmat import RatMatrix, recurrence_rows, row_poly_eval


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
        row = RatMatrix.row_vector(v)
    if width is not None and row.cols != width:
        raise ShapeError(f"row has {row.cols} entries, expected {width}")
    return row


def _same_host(g: PerfectStructure, f: PerfectStructure) -> bool:
    from .graphs import Graph

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
    from fractions import Fraction

    from .polys import poly_add, poly_mul_x, poly_scale

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


def _hamming_array(n: int, q: int, p: int = 1) -> tuple:
    """(b, a, c) of the Hamming graph H(n, q/p) scaled by p:
    b_i = (n-i)(q-p), a_i = i(q-2p), c_i = p*i.

    For p = 1 this is the array of H(n, q).  Scaling an array by p and the
    polynomial argument by p leaves every p_w unchanged, so these integers
    give the polynomials of the rational alphabet q/p at p*x."""
    return (
        tuple((n - i) * (q - p) for i in range(n)),
        tuple(i * (q - 2 * p) for i in range(n + 1)),
        tuple(p * i for i in range(1, n + 1)),
    )


def vertex_distribution(
    g: Graph | IntersectionArray, s: RatMatrix, j: int, ppolys: PPolynomials | None = None
) -> Distribution:
    """Distribution of an S-perfect coloring with respect to any color-j
    vertex of a distance-regular graph: row w = e_j p_w(S).

    ``g`` is the graph or just its intersection array.  ``ppolys`` may be
    passed to use a precomputed polynomial family instead.
    """
    from .drg import closed_form_rows

    if not 0 <= j < s.rows:
        raise ShapeError(f"color {j} out of range for a {s.rows}-color structure")
    e_j = RatMatrix.row_vector([int(i == j) for i in range(s.rows)])
    return Distribution(closed_form_rows(g, s, e_j, ppolys), source=f"vertex color {j}")


def lattice_distribution(m: int, k: int, q: int, s: RatMatrix, f0) -> Distribution:
    """Distribution with respect to the zero class of the block-sum coloring
    of the length-(m*k) Hamming graph: row w = f0 p_w(S/m), with the p_w of
    the length-k Hamming graph H(k, q).
    """
    if m < 1 or k < 1 or q < 2:
        raise EqpartError(f"needs m, k >= 1 and q >= 2, got m={m}, k={k}, q={q}")
    f0 = _as_row(f0, s.rows)
    return Distribution(recurrence_rows(f0, *_hamming_array(k, q), s / m), source="lattice")


def fiber_distribution(
    g2: Graph | IntersectionArray, d: int, s: RatMatrix, f0, ppolys: PPolynomials | None = None
) -> Distribution:
    """Distribution with respect to a left-factor fiber of a direct product
    whose left factor is d-regular: row w = f0 p_w(S - d I), with the p_w of
    the (distance-regular) right factor, given as a graph or its array.
    """
    from .drg import closed_form_rows

    f0 = _as_row(f0, s.rows)
    shifted = s - RatMatrix.identity(s.rows).scale(d)
    return Distribution(closed_form_rows(g2, shifted, f0, ppolys), source="fiber")


def subcube_distribution(m: int, k: int, q: int, s: RatMatrix, f0) -> Distribution:
    """Fiber specialization for an m-dimensional subcube of the
    length-(m+k) Hamming graph: shift by the subcube degree (q-1)m and use
    the polynomials of the length-k complement H(k, q)."""
    f0 = _as_row(f0, s.rows)
    shifted = s - RatMatrix.identity(s.rows).scale((q - 1) * m)
    return Distribution(recurrence_rows(f0, *_hamming_array(k, q), shifted), source="subcube")


def pcube_distribution(n: int, p: int, q: int, s: RatMatrix, f0) -> Distribution:
    """Distribution with respect to the same-dimension subcube over the
    smaller alphabet {0..p-1}, p < q.

    Row w = f0 p_w(S') with S' = (S - (p-1) n I) / p and p_w the Hamming
    polynomials at the rational alphabet parameter q/p, computed as the
    polynomials of that array scaled by p (all integers) at p S' =
    S - (p-1) n I.  The covering radius of the subcube is n, so rows run
    w = 0..n.
    """
    if n < 1 or not 1 <= p < q:
        raise EqpartError(f"needs n >= 1 and 1 <= p < q, got n={n}, p={p}, q={q}")
    f0 = _as_row(f0, s.rows)
    shifted = s - RatMatrix.identity(s.rows).scale((p - 1) * n)
    return Distribution(
        recurrence_rows(f0, *_hamming_array(n, q, p), shifted), source="small-alphabet subcube"
    )
