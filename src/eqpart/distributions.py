"""Weight distributions of perfect structures.

The pairwise distribution of two perfect structures f (params S) and g
(params R) over the same host is the matrix g^T f; it is itself a perfect
structure with parameters S over R^T.  When R^T is tridiagonal with a
nonzero superdiagonal, every row of such a structure follows from the first
one by a three-term recurrence: this is how the distribution of a
completely regular code follows from its quotient matrix and the counts of
each colour over the code.  One row kernel computes those rows
(:func:`eqpart.ratmat.recurrence_rows`) from the three diagonals alone, and
an identity read off the same band certifies them on every call.

The remaining functions are closed forms: distributions with respect to a
vertex of a distance-regular graph, to the zero class of the block-sum
coloring, to a factor fiber of a direct product, to a smaller-alphabet
subcube, and the rearranged product distribution h* of :mod:`eqpart.localdist`.
Each is row w = f0 p_w(T) for the polynomials p_w of an integer
intersection array, the diagonals b, a, c of the kernel, and a matrix T:
aS + bI, or I (x) S - R2 (x) I for h*.  Each is one kernel call, with no
polynomial expanded, no (D+1)-square matrix built and no graph built: the
forms over a distance-regular graph take its IntersectionArray, and a
caller with a graph passes ``intersection_array(g)``.  Every function
returns the rows as one RatMatrix, and the kernel is the one reader and
checker of a first row.
"""
from __future__ import annotations

from .errors import EqpartError, ShapeError, StructureError
from .ratmat import RatMatrix, band, band_product, first_difference, recurrence_rows, tensor


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
    lhs, rhs = g.params.transpose() @ h, h @ f.params
    if lhs != rhs:
        raise StructureError("distribution identity failed; inputs are inconsistent: "
                             + first_difference(lhs, rhs, "R^T H", "H S"))
    return h


def reconstruct_from_first_row(b: RatMatrix, s: RatMatrix, h0) -> RatMatrix:
    """All B.rows rows of a perfect structure over a tridiagonal ``b`` from
    its first row: B[i,i+1] h_{i+1} = h_i S - B[i,i] h_i - B[i,i-1] h_{i-1},
    by the row kernel :func:`eqpart.ratmat.recurrence_rows` on B's band.
    A nonzero entry off the band, in the rows the recurrence reads, raises
    ReconstructionError naming it (:func:`eqpart.ratmat.band`).

    The rows are then certified on the band, independently of the kernel:
    row 0 must be h0, and B[:n-1] H = H[:n-1] S must hold.  With h0 fixed
    and every superdiagonal entry of B nonzero, that identity has exactly
    one solution H, so a passing check proves the rows; a failing one raises
    StructureError naming the first differing entry.
    """
    diagonals = band(b)
    h = recurrence_rows(h0, s, *diagonals)
    if h.sum_rows([[0]]) != (h0 if isinstance(h0, RatMatrix) else RatMatrix.row_vector(h0)):
        raise StructureError("first-row reconstruction does not start at h0")
    if h.rows > 1:
        lhs = band_product(h, *diagonals)
        rhs = h.sum_rows([i] for i in range(h.rows - 1)) @ s
        if lhs != rhs:
            raise StructureError("first-row reconstruction fails B[:n-1] H = H[:n-1] S: "
                                 + first_difference(lhs, rhs, "B H", "H S"))
    return h


def _hamming_band(n: int, q: int, p: int = 1) -> tuple[list[int], list[int], list[int]]:
    """The diagonals b, a, c of the Hamming graph H(n, q/p)'s array scaled
    by p: b_i = (n-i)(q-p), a_i = i(q-2p), c_i = p*i.

    For p = 1 this is the array of H(n, q).  Scaling an array by p and the
    polynomial argument by p leaves every p_w unchanged, so these integers
    give the polynomials of the rational alphabet q/p at p*x."""
    return ([(n - i) * (q - p) for i in range(n)], [i * (q - 2 * p) for i in range(n + 1)],
            [p * i for i in range(1, n + 1)])


def _minus(s: RatMatrix, x: int) -> RatMatrix:
    """S - x I."""
    return s - RatMatrix.identity(s.rows).scale(x)


def vertex_distribution(ia: IntersectionArray, s: RatMatrix, j: int) -> RatMatrix:
    """Distribution of an S-perfect coloring with respect to any color-j
    vertex of a distance-regular graph with intersection array ``ia``:
    row w = e_j p_w(S)."""
    if not 0 <= j < s.rows:
        raise ShapeError(f"color {j} out of range for a {s.rows}-color structure")
    return recurrence_rows([int(i == j) for i in range(s.rows)], s, ia.b, ia.a, ia.c)


def _check_lattice(m: int, k: int, q: int) -> None:
    if m < 1 or k < 1 or q < 2:
        raise EqpartError(f"needs m, k >= 1 and q >= 2, got m={m}, k={k}, q={q}")


def lattice_distribution(m: int, k: int, q: int, s: RatMatrix, f0) -> RatMatrix:
    """Distribution with respect to the zero class of the block-sum coloring
    of the length-(m*k) Hamming graph: row w = f0 p_w(S/m), with the p_w of
    the length-k Hamming graph H(k, q).
    """
    _check_lattice(m, k, q)
    return recurrence_rows(f0, s / m, *_hamming_band(k, q))


def fiber_distribution(ia: IntersectionArray, d: int, s: RatMatrix, f0) -> RatMatrix:
    """Distribution with respect to a left-factor fiber of a direct product
    whose left factor is d-regular: row w = f0 p_w(S - d I), with the p_w of
    the intersection array ``ia`` of the distance-regular right factor.
    """
    return recurrence_rows(f0, _minus(s, d), ia.b, ia.a, ia.c)


def subcube_distribution(m: int, k: int, q: int, s: RatMatrix, f0) -> RatMatrix:
    """Fiber specialization for an m-dimensional subcube of the
    length-(m+k) Hamming graph: shift by the subcube degree (q-1)m and use
    the polynomials of the length-k complement H(k, q)."""
    return recurrence_rows(f0, _minus(s, (q - 1) * m), *_hamming_band(k, q))


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
    return recurrence_rows(f0, _minus(s, (p - 1) * n), *_hamming_band(n, q, p))


def star_params(r2: RatMatrix, s: RatMatrix) -> RatMatrix:
    """Parameters governing the rearranged product distribution h*:
    I (x) S - R2 (x) I."""
    return tensor(RatMatrix.identity(r2.rows), s) - tensor(r2, RatMatrix.identity(s.rows))


def reconstruct_local(ia: IntersectionArray, r2: RatMatrix, s: RatMatrix, h_star_0) -> RatMatrix:
    """All rows of the rearranged product distribution h* from its first
    row, for a distance-regular left factor with intersection array ``ia``:
    row i = row_0 p_i(I (x) S - R2 (x) I), by the recurrence of that array
    (see :mod:`eqpart.localdist`)."""
    return recurrence_rows(h_star_0, star_params(r2, s), ia.b, ia.a, ia.c)
