"""Weight distributions of perfect structures, and the one row kernel that
computes them.

The pairwise distribution of two perfect structures f (params S) and g
(params R) over the same host is the matrix g^T f; it is itself a perfect
structure with parameters S over R^T.  When R^T is tridiagonal with a
nonzero superdiagonal, every row of such a structure follows from the first
one by a three-term recurrence: this is how the distribution of a
completely regular code follows from its quotient matrix and the counts of
each colour over the code.  One row kernel computes those rows
(:func:`recurrence_rows`) on the integer numerators of
:class:`eqpart.ratmat.RatMatrix`.  It reads a tridiagonal matrix as its
three diagonals, never as a square one: a graph's or a code's array
(:func:`array_band`) or the band of a code's quotient matrix
(:func:`band`), and an identity read off the same band
(:func:`band_product`) certifies the rows on every call.

The remaining functions are closed forms: distributions with respect to a
vertex of a distance-regular graph, to the zero class of the block-sum
coloring, to a factor fiber of a direct product, to a smaller-alphabet
subcube, and the rearranged product distribution h* of :mod:`eqpart.localdist`.
Each of the first five is row w = f0 p_w(S) for the caller's S and the
polynomials p_w of its completely regular code's integer array: b and c in
closed form, a completed from the degree (:func:`array_band`).
h* takes I (x) S - R2 (x) I and the left factor's array.  Each is one
kernel call, with no polynomial expanded, no (D+1)-square matrix built and
no graph built: the forms over a distance-regular graph take its
IntersectionArray, and a caller with a graph passes ``intersection_array(g)``.
Every function returns the rows as one RatMatrix, and the kernel is the one
reader and checker of a first row.
"""
from __future__ import annotations

from collections.abc import Sequence
from math import gcd, lcm
from operator import mul

from .errors import EqpartError, ReconstructionError, ShapeError, StructureError
from .ratmat import RatMatrix, _text, first_difference, tensor

# -- the row kernel ---------------------------------------------------------


def band(m: RatMatrix) -> tuple[list[int], list[int], list[int], int]:
    """(b, a, c, den): the sub-, main and superdiagonal numerators of a
    square matrix B over its denominator, as :func:`recurrence_rows` reads
    them.  Rows 0..n-2 of B, the rows that recurrence reads, must vanish off
    those three diagonals; a nonzero entry there raises ReconstructionError
    naming it."""
    if not m.is_square():
        raise ShapeError(f"reconstruction matrix must be square, got {m.shape()}")
    num, n = m._num, m.rows
    for i in range(n - 1):
        for j, x in enumerate(num[i]):
            if x and abs(i - j) > 1:
                side = "above the superdiagonal" if j > i else "below the subdiagonal"
                raise ReconstructionError(f"entry ({i},{j}) = {_text(x, m._den)} {side}")
    return ([num[i + 1][i] for i in range(n - 1)], [num[i][i] for i in range(n)],
            [num[i][i + 1] for i in range(n - 1)], m._den)


def array_band(b: Sequence[int], c: Sequence[int], degree: int) -> tuple[list, list, list]:
    """(b, a, c): the diagonals of the array with b_0..b_{D-1}, c_1..c_D
    and the given degree, as :func:`recurrence_rows` reads them:
    a_w = degree - b_w - c_w, with b_D = c_0 = 0."""
    return list(b), [degree - x - y for x, y in zip([*b, 0], [0, *c])], list(c)


def band_product(h: RatMatrix, b: Sequence[int], a: Sequence[int], c: Sequence[int],
                 den: int = 1) -> RatMatrix:
    """Rows 0..D-1, D = len(c) >= 1, of B H for the tridiagonal B of
    :func:`recurrence_rows`, read from its band:
    row i = (b_{i-1} h_{i-1} + a_i h_i + c_{i+1} h_{i+1}) / den."""
    num = h._num
    # at i = 0 the coefficient b_{-1} = 0 meets row -1, the last row of H
    out = tuple(
        tuple(x * u + y * v + z * w for u, v, w in zip(num[i - 1], num[i], num[i + 1]))
        for i, (x, y, z) in enumerate(zip((0, *b), a, c))
    )
    return RatMatrix._of(out, h._den * den)


def recurrence_rows(row, t: RatMatrix, b: Sequence[int], a: Sequence[int], c: Sequence[int],
                    den: int = 1) -> RatMatrix:
    """Rows r_0..r_D, D = len(c), of the three-term recurrence of the
    tridiagonal matrix B with subdiagonal b_0..b_{D-1}, diagonal a_0..a_D and
    superdiagonal c_1..c_D, integer numerators over the positive ``den``:

        r_0 = row,   c_{w+1} r_{w+1} = den r_w T - a_w r_w - b_{w-1} r_{w-1}.

    For an integer array (den 1), a graph's or a code's (:func:`array_band`),
    these are the rows row p_w(T) of its polynomials; in a code's array c_1
    may differ from 1.  For B = R^T, with
    R the quotient matrix of a completely regular code (:func:`band`), and T
    the parameters S of a perfect structure, they are the rows of the
    structure's distribution from its first row.  Every c_w must be nonzero;
    a_D enters no row.  Each row costs one vector-matrix product and two
    combinations, reduced after every step; no matrix of B is built."""
    depth = len(c)
    if len(b) != depth or len(a) != depth + 1:
        raise ShapeError(f"array lengths ({len(b)},{len(a)},{depth}) do not fit together")
    if not t.is_square():
        raise ShapeError(f"the recurrence needs a square matrix, got {t.shape()}")
    if not isinstance(row, RatMatrix):
        row = RatMatrix.row_vector(row)
    if row.rows != 1 or row.cols != t.rows:
        raise ShapeError(f"row of shape {row.shape()} does not fit {t.shape()}")
    cols = list(zip(*t._num))
    dt = t._den
    rows = [(row._num[0], row._den)]
    for w, cw in enumerate(c):
        if not cw:
            raise ReconstructionError(f"superdiagonal entry ({w},{w + 1}) is zero")
        cur, d = rows[w]
        # den r_w T - a_w r_w, over d * dt
        aw = a[w] * dt
        acc = [den * sum(map(mul, cur, col)) - aw * x for col, x in zip(cols, cur)]
        d *= dt
        if w:
            # minus b_{w-1} r_{w-1}, over the lcm of the two denominators
            prev, dp = rows[w - 1]
            g = gcd(d, dp)
            s1, s2 = dp // g, b[w - 1] * (d // g)
            acc = [x * s1 - s2 * y for x, y in zip(acc, prev)]
            d *= s1
        # over c_{w+1}, with its sign moved to the numerators
        if cw < 0:
            acc = [-x for x in acc]
        d *= abs(cw)
        g = gcd(d, *acc)
        if g != 1:
            acc = [x // g for x in acc]
            d //= g
        rows.append((acc, d))
    den = lcm(*(d for _, d in rows))
    num = tuple(tuple(v) if d == den else tuple(x * (den // d) for x in v) for v, d in rows)
    return RatMatrix._of(num, den)


# -- distributions ----------------------------------------------------------


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
    by the row kernel :func:`recurrence_rows` on B's band.
    A nonzero entry off the band, in the rows the recurrence reads, raises
    ReconstructionError naming it (:func:`band`).

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
    of the length-(m*k) Hamming graph: row w = f0 p_w(S), with the p_w of
    that code's array b_w = m(q-1)(k-w), c_w = m w and degree mk(q-1)."""
    _check_lattice(m, k, q)
    b, c = [m * (q - 1) * (k - w) for w in range(k)], [m * w for w in range(1, k + 1)]
    return recurrence_rows(f0, s, *array_band(b, c, m * k * (q - 1)))


def fiber_distribution(ia: IntersectionArray, d: int, s: RatMatrix, f0) -> RatMatrix:
    """Distribution with respect to a left-factor fiber of a direct product
    whose left factor is d-regular: row w = f0 p_w(S), with the p_w of the
    fiber's array: the b_w and c_w of the distance-regular right factor's
    array ``ia``, and degree ia.degree + d."""
    return recurrence_rows(f0, s, *array_band(ia.b, ia.c, ia.degree + d))


def _check_subcube(m: int, k: int, q: int) -> None:
    # H(m+k, q) must be a graph; m = 0 (a vertex) and k = 0 (the whole cube) are subcubes
    if m < 0 or k < 0 or m + k < 1 or q < 2:
        raise EqpartError(f"needs m, k >= 0, m + k >= 1 and q >= 2, got m={m}, k={k}, q={q}")


def subcube_distribution(m: int, k: int, q: int, s: RatMatrix, f0) -> RatMatrix:
    """Fiber specialization for an m-dimensional subcube of the
    length-(m+k) Hamming graph: row w = f0 p_w(S), with the p_w of the
    subcube's array b_w = (q-1)(k-w), c_w = w and degree (q-1)(m+k)."""
    _check_subcube(m, k, q)
    return recurrence_rows(f0, s, *array_band(
        [(q - 1) * (k - w) for w in range(k)], range(1, k + 1), (q - 1) * (m + k)))


def _check_pcube(n: int, p: int, q: int) -> None:
    if n < 1 or not 1 <= p < q:
        raise EqpartError(f"needs n >= 1 and 1 <= p < q, got n={n}, p={p}, q={q}")


def pcube_distribution(n: int, p: int, q: int, s: RatMatrix, f0) -> RatMatrix:
    """Distribution with respect to the same-dimension subcube {0..p-1}^n,
    p < q, of the length-n Hamming graph: row w = f0 p_w(S), with the p_w
    of the subcube's array b_w = (q-p)(n-w), c_w = p w and degree (q-1)n.
    The covering radius of the subcube is n, so rows run w = 0..n."""
    _check_pcube(n, p, q)
    return recurrence_rows(f0, s, *array_band(
        [(q - p) * (n - w) for w in range(n)], [p * w for w in range(1, n + 1)], (q - 1) * n))


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
