"""Weight distributions of perfect structures.

The pairwise distribution of two perfect structures f (params S) and g
(params R) over the same host is the matrix g^T f; it is itself a perfect
structure with parameters S over R^T.  When R^T vanishes above its
superdiagonal and the superdiagonal is nonzero, every row of such a
structure follows from the first one: this is how the distribution of a
completely regular code follows from its quotient matrix and the counts of
each colour over the code.  One row kernel computes those rows
(:func:`eqpart.ratmat.recurrence_rows`), and a matrix identity certifies
them on every call.

The remaining functions are closed forms: distributions with respect to a
vertex of a distance-regular graph, to the zero class of the block-sum
coloring, to a factor fiber of a direct product, to a smaller-alphabet
subcube, and the rearranged product distribution h* of :mod:`eqpart.localdist`.
Each is row w = f0 p_w(T) for the polynomials p_w of an integer
intersection array and a matrix T (aS + bI, or I (x) S - R2 (x) I for h*):
the same kernel on the array's tridiagonal matrix, with no polynomial
expanded and no graph built.  :mod:`eqpart.drg` is imported only by the
forms that take an array.  Every function returns the rows as one
RatMatrix, and the kernel is the one reader and checker of a first row.
"""
from __future__ import annotations

from .errors import EqpartError, ShapeError, StructureError
from .ratmat import RatMatrix, recurrence_rows, tensor, tridiagonal


def _same_host(g: PerfectStructure, f: PerfectStructure) -> bool:
    from .graphs import Graph

    if isinstance(g.host, Graph) and isinstance(f.host, Graph):
        return g.host.same_adjacency(f.host)
    if isinstance(g.host, RatMatrix) and isinstance(f.host, RatMatrix):
        # g lives over the transpose of f's host
        return g.host == f.host.transpose()
    return False


def distribution(g: PerfectStructure, f: PerfectStructure) -> RatMatrix:
    """g^T f, with the governing identity R^T (g^T f) = (g^T f) S asserted."""
    gv, fv = g.value_matrix(), f.value_matrix()
    if gv.rows != fv.rows:
        raise ShapeError(f"structures live on {gv.rows} and {fv.rows} vertices")
    if not _same_host(g, f):
        raise ShapeError("structures are not over compatible hosts")
    h = gv.transpose() @ fv
    if g.params.transpose() @ h != h @ f.params:
        raise StructureError("distribution identity failed; inputs are inconsistent")
    return h


def reconstruct_from_first_row(b: RatMatrix, s: RatMatrix, h0) -> RatMatrix:
    """All B.rows rows of a perfect structure over ``b`` from its first row:
    B[i,i+1] h_{i+1} = h_i S - sum_{j<=i} B[i,j] h_j, by the row kernel
    :func:`eqpart.ratmat.recurrence_rows`.

    The rows are then certified by matrix products, independently of the
    kernel: row 0 must be h0, and B[:n-1] H = H[:n-1] S must hold.  With h0
    fixed and every superdiagonal entry of B nonzero, that identity has
    exactly one solution H, so a passing check proves the rows; a failing
    one raises StructureError.
    """
    h = recurrence_rows(h0, b, s)
    if h.sum_rows([[0]]) != (h0 if isinstance(h0, RatMatrix) else RatMatrix.row_vector(h0)):
        raise StructureError("first-row reconstruction does not start at h0")
    n = h.rows
    if n > 1:
        head = [[i] for i in range(n - 1)]
        if b.sum_rows(head) @ h != h.sum_rows(head) @ s:
            raise StructureError("first-row reconstruction fails B[:n-1] H = H[:n-1] S")
    return h


def closed_form_rows(g: Graph | IntersectionArray, t: RatMatrix, f0) -> RatMatrix:
    """Rows f0 p_w(T), w = 0..D, for the intersection array ``g`` (or that
    of the distance-regular graph ``g``): the row kernel on the array's
    tridiagonal matrix."""
    from .drg import IntersectionArray, intersection_array

    ia = g if isinstance(g, IntersectionArray) else intersection_array(g)
    return recurrence_rows(f0, tridiagonal(ia.b, ia.a, ia.c), t)


def _hamming_matrix(n: int, q: int, p: int = 1) -> RatMatrix:
    """The tridiagonal matrix of the Hamming graph H(n, q/p)'s array scaled
    by p: b_i = (n-i)(q-p), a_i = i(q-2p), c_i = p*i.

    For p = 1 this is the array of H(n, q).  Scaling an array by p and the
    polynomial argument by p leaves every p_w unchanged, so these integers
    give the polynomials of the rational alphabet q/p at p*x."""
    return tridiagonal(
        [(n - i) * (q - p) for i in range(n)],
        [i * (q - 2 * p) for i in range(n + 1)],
        [p * i for i in range(1, n + 1)],
    )


def vertex_distribution(g: Graph | IntersectionArray, s: RatMatrix, j: int) -> RatMatrix:
    """Distribution of an S-perfect coloring with respect to any color-j
    vertex of a distance-regular graph: row w = e_j p_w(S).

    ``g`` is the graph or just its intersection array.
    """
    if not 0 <= j < s.rows:
        raise ShapeError(f"color {j} out of range for a {s.rows}-color structure")
    return closed_form_rows(g, s, [int(i == j) for i in range(s.rows)])


def _check_lattice(m: int, k: int, q: int) -> None:
    if m < 1 or k < 1 or q < 2:
        raise EqpartError(f"needs m, k >= 1 and q >= 2, got m={m}, k={k}, q={q}")


def lattice_distribution(m: int, k: int, q: int, s: RatMatrix, f0) -> RatMatrix:
    """Distribution with respect to the zero class of the block-sum coloring
    of the length-(m*k) Hamming graph: row w = f0 p_w(S/m), with the p_w of
    the length-k Hamming graph H(k, q).
    """
    _check_lattice(m, k, q)
    return recurrence_rows(f0, _hamming_matrix(k, q), s / m)


def fiber_distribution(g2: Graph | IntersectionArray, d: int, s: RatMatrix, f0) -> RatMatrix:
    """Distribution with respect to a left-factor fiber of a direct product
    whose left factor is d-regular: row w = f0 p_w(S - d I), with the p_w of
    the (distance-regular) right factor, given as a graph or its array.
    """
    return closed_form_rows(g2, s - RatMatrix.identity(s.rows).scale(d), f0)


def subcube_distribution(m: int, k: int, q: int, s: RatMatrix, f0) -> RatMatrix:
    """Fiber specialization for an m-dimensional subcube of the
    length-(m+k) Hamming graph: shift by the subcube degree (q-1)m and use
    the polynomials of the length-k complement H(k, q)."""
    shifted = s - RatMatrix.identity(s.rows).scale((q - 1) * m)
    return recurrence_rows(f0, _hamming_matrix(k, q), shifted)


def _check_pcube(n: int, p: int, q: int) -> None:
    if n < 1 or not 1 <= p < q:
        raise EqpartError(f"needs n >= 1 and 1 <= p < q, got n={n}, p={p}, q={q}")


def pcube_distribution(n: int, p: int, q: int, s: RatMatrix, f0) -> RatMatrix:
    """Distribution with respect to the same-dimension subcube over the
    smaller alphabet {0..p-1}, p < q.

    Row w = f0 p_w(S') with S' = (S - (p-1) n I) / p and p_w the Hamming
    polynomials at the rational alphabet parameter q/p, computed as the
    polynomials of that array scaled by p (all integers) at p S' =
    S - (p-1) n I.  The covering radius of the subcube is n, so rows run
    w = 0..n.
    """
    _check_pcube(n, p, q)
    shifted = s - RatMatrix.identity(s.rows).scale((p - 1) * n)
    return recurrence_rows(f0, _hamming_matrix(n, q, p), shifted)


def star_params(r2: RatMatrix, s: RatMatrix) -> RatMatrix:
    """Parameters governing the rearranged product distribution h*:
    I (x) S - R2 (x) I."""
    return tensor(RatMatrix.identity(r2.rows), s) - tensor(r2, RatMatrix.identity(s.rows))


def reconstruct_local(
    g1: Graph | IntersectionArray, r2: RatMatrix, s: RatMatrix, h_star_0
) -> RatMatrix:
    """All rows of the rearranged product distribution h* from its first
    row, for a distance-regular left factor given as a graph or its
    intersection array: row i = row_0 p_i(I (x) S - R2 (x) I), by the
    recurrence of that array (see :mod:`eqpart.localdist`)."""
    return closed_form_rows(g1, star_params(r2, s), h_star_0)
