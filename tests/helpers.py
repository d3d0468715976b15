"""Shared independent oracles and references for the test suite.

Everything here is deliberately primitive: breadth-first search, direct
counting, integer arithmetic, and Fraction-level polynomials and matrices.
Nothing imports the row kernel or the distribution code it is used to
check.  The polynomial route of first-row reconstruction lives here as the
reference the kernel (``eqpart.distributions.recurrence_rows``) is checked
against.
"""
from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from eqpart.errors import EqpartError, ShapeError
from eqpart.graphs import Graph, bfs_distances, class_sums, graph_to_json
from eqpart.polys import poly_add, poly_mul_x, poly_scale
from eqpart.ratmat import RatMatrix, parse_rational, row_poly_eval


def coloring_to_json(c) -> dict:
    """A coloring as the coloring file that ``load_coloring`` reads."""
    return {"graph": graph_to_json(c.graph), "colors": list(c.colors)}


def all_pairs_distances(g: Graph) -> list[list[int]]:
    return [bfs_distances(g, [v]) for v in range(g.n)]


def distance_w_matrix(g: Graph, dist: list[list[int]], w: int) -> RatMatrix:
    one, zero = Fraction(1), Fraction(0)
    return RatMatrix(
        [[one if dist[u][v] == w else zero for v in range(g.n)] for u in range(g.n)]
    )


def counting_intersection_numbers(g: Graph):
    """(diameter, b, a, c) by direct neighbor counting over all pairs; raises
    AssertionError if the counts are not uniform per distance."""
    dist = all_pairs_distances(g)
    diam = max(max(row) for row in dist)
    degree = len(g.adj[0])
    b: dict[int, int] = {}
    c: dict[int, int] = {}
    for u in range(g.n):
        for v in range(g.n):
            w = dist[u][v]
            closer = sum(1 for t in g.adj[v] if dist[u][t] == w - 1)
            farther = sum(1 for t in g.adj[v] if dist[u][t] == w + 1)
            assert b.setdefault(w, farther) == farther
            assert c.setdefault(w, closer) == closer
    bs = tuple(b[w] for w in range(diam))
    cs = tuple(c[w] for w in range(1, diam + 1))
    as_ = tuple(
        degree - (b[w] if w < diam else 0) - (c[w] if w >= 1 else 0)
        for w in range(diam + 1)
    )
    return diam, bs, as_, cs


def brute_rows_from_code(g: Graph, code, rows_of_values) -> list[list[Fraction]]:
    """Distance-class sums by plain BFS and addition."""
    dist = bfs_distances(g, code)
    rho = max(dist)
    k = len(rows_of_values[0])
    acc = [[Fraction(0)] * k for _ in range(rho + 1)]
    for v, w in enumerate(dist):
        for j in range(k):
            acc[w][j] += rows_of_values[v][j]
    return acc


def label_distance_matrix(g: Graph):
    """All-pairs distances of the structured generators, from vertex labels.

    Hamming graphs: word distance.  Johnson graphs: k minus the support
    intersection.  Halved cubes: half the word distance.  A BFS spot check
    on three vertices keeps the formula honest on every instance.
    """
    import numpy as np

    name = g.name
    if name.startswith("H("):
        words = np.array(g.labels, dtype=np.int64)
        dist = (words[:, None, :] != words[None, :, :]).sum(axis=2).astype(np.int64)
    elif name.startswith("J("):
        k = len(g.labels[0])
        masks = [sum(1 << i for i in lbl) for lbl in g.labels]
        dist = np.array(
            [[k - (mu & mv).bit_count() for mv in masks] for mu in masks],
            dtype=np.int64,
        )
    elif name.startswith("halved("):
        masks = [int("".join(map(str, lbl)), 2) for lbl in g.labels]
        dist = np.array(
            [[(mu ^ mv).bit_count() // 2 for mv in masks] for mu in masks],
            dtype=np.int64,
        )
    else:
        raise ValueError(f"no label metric for {name!r}")
    for v in (0, g.n // 2, g.n - 1):
        assert bfs_distances(g, [v]) == list(dist[v])
    return dist


def candidate_intersection_numbers(g: Graph):
    """(diameter, b, a, c) read off a single BFS tree, without any
    uniformity check; a follow-up identity check must prove the graph is
    really distance-regular."""
    dist = bfs_distances(g, [0])
    diam = max(dist)
    degree = len(g.adj[0])
    b, c = {}, {}
    for w in range(diam + 1):
        v = dist.index(w)
        c[w] = sum(1 for t in g.adj[v] if dist[t] == w - 1)
        b[w] = sum(1 for t in g.adj[v] if dist[t] == w + 1)
    bs = tuple(b[w] for w in range(diam))
    cs = tuple(c[w] for w in range(1, diam + 1))
    as_ = tuple(
        degree - (b[w] if w < diam else 0) - (c[w] if w >= 1 else 0)
        for w in range(diam + 1)
    )
    return diam, bs, as_, cs


def check_polynomials_give_distance_matrices(g: Graph, ia, dist=None) -> None:
    """Assert that the degree-w polynomials of the array, evaluated at the
    adjacency matrix, hit the distance matrices exactly.

    Evaluation is done through the same three-term recurrence that defines
    the polynomials, with denominators cleared, so every step is integer
    arithmetic; numpy int64 keeps it fast and a bound assertion rules out
    overflow.  Each step is compared before the next one builds on it.
    The graph is distance-regular, hence regular, so A T is the sum of T's
    rows over each vertex's neighbours, one gather per neighbour index:
    O(n**2 k) instead of the O(n**3) product.
    """
    import numpy as np

    if dist is None:
        dist = np.array(all_pairs_distances(g), dtype=np.int64)
    adj = np.zeros((g.n, g.n), dtype=np.int64)
    for u in range(g.n):
        for v in g.adj[u]:
            adj[u, v] = 1

    def distance_matrix(w: int):
        return (dist == w).astype(np.int64)

    # T_w = (c_1 * ... * c_w) * p_w(A), built by the cleared recurrence
    # T_{w+1} = (A - a_w I) T_w - b_{w-1} c_w T_{w-1}
    scale_prev, scale = 1, 1
    t_prev = np.eye(g.n, dtype=np.int64)
    assert (t_prev == distance_matrix(0)).all()
    if ia.diameter == 0:
        return
    assert ia.c[0] == 1
    t_cur = adj.copy()
    assert (t_cur == distance_matrix(1)).all()
    degree = ia.degree
    nbrs = np.array(g.adj, dtype=np.intp).reshape(g.n, degree)
    for w in range(1, ia.diameter):
        c_next = ia.c[w]
        assert (degree + ia.a[w]) * scale + ia.b[w - 1] * ia.c[w - 1] * scale_prev < 2**62
        a_t = sum(t_cur[nbrs[:, j]] for j in range(degree))
        t_next = a_t - ia.a[w] * t_cur - (ia.b[w - 1] * ia.c[w - 1]) * t_prev
        scale_prev, scale = scale, scale * c_next
        t_prev, t_cur = t_cur, t_next
        assert (t_cur == scale * distance_matrix(w + 1)).all(), (
            f"distance matrix {w + 1} mismatch"
        )


# -- naive matrices: lists of Fraction rows, the reference for RatMatrix ------------


def ref_add(a, b):
    return [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]


def ref_sub(a, b):
    return [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)]


def ref_scale(c, a):
    return [[c * x for x in row] for row in a]


def ref_matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


def ref_transpose(a):
    return [list(col) for col in zip(*a)]


def ref_tensor(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def ref_row_poly(row, coeffs, m):
    """sum_i coeffs[i] * row m^i, from explicit powers rather than Horner's rule."""
    power = [list(row)]
    total = [[Fraction(0)] * len(row)]
    for c in coeffs:
        total = ref_add(total, ref_scale(c, power))
        power = ref_matmul(power, m)
    return total


def ref_sum_rows(a, groups):
    return [[sum((a[u][j] for u in group), Fraction(0)) for j in range(len(a[0]))]
            for group in groups]


def fractions_of(m: RatMatrix) -> list[list[Fraction]]:
    """The entries of a RatMatrix as Fraction rows, read through its public API."""
    return [list(row) for row in m]


# -- naive references for the graph route ----------------------------------------


def ref_hamming_graph(n: int, q: int) -> tuple[tuple, tuple]:
    """(labels, adjacency rows) of H(n, q): vertex v is the base-q word of v,
    coordinate 0 most significant, and its neighbours are the words that
    differ from it in one coordinate, sorted."""
    labels, adj = [], []
    for v in range(q**n):
        word = tuple(v // q ** (n - 1 - i) % q for i in range(n))
        labels.append(word)
        adj.append(tuple(sorted(
            v + (a - x) * q ** (n - 1 - i) for i, x in enumerate(word) for a in range(q) if a != x
        )))
    return tuple(labels), tuple(adj)


def ref_value_rows(f) -> list[list[Fraction]]:
    """Per-vertex value rows as Fractions: unit rows for a coloring or a
    structure whose values are one, the rows of a RatMatrix or of a
    structure's value matrix otherwise."""
    f = getattr(f, "values", f)
    colors = getattr(f, "colors", None)
    if colors is not None:
        return [[Fraction(int(c == j)) for j in range(f.n_colors)] for c in colors]
    return fractions_of(f)


def ref_class_sums(classes, n_classes: int, rows) -> list[list[Fraction]]:
    """Row i: the sum of ``rows[v]`` over the vertices v of class i."""
    return ref_sum_rows(rows, [[v for v, c in enumerate(classes) if c == i]
                               for i in range(n_classes)])


def ref_residual(g: Graph, f_rows, s_rows) -> list[list[Fraction]]:
    """A f - f S with A the adjacency matrix of g, in Fractions."""
    adjacency = [[Fraction(int(v in g.adj[u])) for v in range(g.n)] for u in range(g.n)]
    return ref_sub(ref_matmul(adjacency, f_rows), ref_matmul(f_rows, s_rows))


def eccentricity(g: Graph, v: int) -> int:
    return max(bfs_distances(g, [v]))


def diameter(g: Graph) -> int:
    return max(eccentricity(g, v) for v in range(g.n))


def distance_w_sum(g: Graph, v: int, w: int, f) -> tuple:
    """Sum of the vector values of ``f`` over all vertices at distance
    exactly ``w`` from ``v``, as a tuple of Fractions.

    ``f`` may be a RatMatrix of per-vertex rows, a perfect structure, or a
    coloring.
    """
    dist = bfs_distances(g, [v])
    if w < 0 or w > max(dist):
        raise EqpartError(f"distance {w} out of range (eccentricity {max(dist)})")
    return class_sums(f, dist, max(dist) + 1).row(w)


# -- Fraction-level matrix polynomials, solves and the polynomial route ------------


def mat_poly_eval(coeffs: Sequence, m: RatMatrix) -> RatMatrix:
    """Evaluate sum(coeffs[i] * m**i) exactly by Horner's rule.

    ``coeffs`` is constant-term first; ``m`` must be square.
    """
    if not m.is_square():
        raise ShapeError(f"polynomial evaluation needs a square matrix, got {m.shape()}")
    cs = [parse_rational(c) for c in coeffs]
    if not cs:
        return RatMatrix.zeros(m.rows, m.rows)
    ident = RatMatrix.identity(m.rows)
    acc = ident.scale(cs[-1])
    for c in reversed(cs[:-1]):
        acc = acc @ m + ident.scale(c)
    return acc


def solve(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Solve a @ x = b exactly for square full-rank ``a`` (Gaussian elimination)."""
    if not a.is_square():
        raise ShapeError(f"solve needs a square matrix, got {a.shape()}")
    if a.rows != b.rows:
        raise ShapeError(f"incompatible right-hand side {b.shape()} for {a.shape()}")
    n = a.rows
    aug = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ShapeError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return RatMatrix([row[n:] for row in aug])


def reconstruction_polynomials(b: RatMatrix, n_rows: int) -> list[list[Fraction]]:
    """Degree-i polynomials q_i with row_i = row_0 * q_i(S), from the
    recursion of a lower-Hessenberg B at the polynomial level:
    B[i-1,i] q_i = x q_{i-1} - sum_{j<i} B[i-1,j] q_j."""
    polys: list[list[Fraction]] = [[Fraction(1)]]
    for i in range(1, n_rows):
        acc = poly_mul_x(polys[i - 1])
        for j in range(i):
            coef = b[i - 1, j]
            if coef != 0:
                acc = poly_add(acc, poly_scale(-coef, polys[j]))
        polys.append(poly_scale(1 / b[i - 1, i], acc))
    return polys


def rows_by_polynomials(row, polys, t: RatMatrix) -> RatMatrix:
    """Row w = row q_w(T) for each polynomial of a family (a list of
    coefficient lists or a ``PPolynomials``), each evaluated by Horner's rule."""
    return RatMatrix([row_poly_eval(row, polys[w], t).row(0) for w in range(len(polys))])


def rows_by_matrix_polynomials(b: RatMatrix, s: RatMatrix, h0, n_rows: int) -> RatMatrix:
    """The polynomial route of first-row reconstruction: row i = h0 q_i(S)."""
    return rows_by_polynomials(h0, reconstruction_polynomials(b, n_rows), s)


def hamming_code_by_enumeration(r: int) -> list[int]:
    """The length-(2**r - 1) Hamming code as the words of zero syndrome
    among all 2**n binary words, parity-check column i+1 for coordinate i,
    as vertex indices (coordinate 0 most significant)."""
    n = 2**r - 1
    out = []
    for v in range(2**n):
        syndrome = 0
        for i in range(n):
            if v >> (n - 1 - i) & 1:
                syndrome ^= i + 1
        if syndrome == 0:
            out.append(v)
    return out
