"""Shared independent oracles for the test suite.

Everything here is deliberately primitive: breadth-first search, direct
counting, and integer arithmetic.  Nothing imports the polynomial or
distribution code paths it is used to check.
"""
from __future__ import annotations

from fractions import Fraction

from eqpart.graphs import Graph, bfs_distances
from eqpart.ratmat import RatMatrix


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
    assert ia.c_at(1) == 1
    t_cur = adj.copy()
    assert (t_cur == distance_matrix(1)).all()
    degree = ia.degree
    for w in range(1, ia.diameter):
        c_next = ia.c_at(w + 1)
        assert (degree + ia.a[w]) * scale + ia.b_at(w - 1) * ia.c_at(w) * scale_prev < 2**62
        t_next = adj @ t_cur - ia.a[w] * t_cur - (ia.b_at(w - 1) * ia.c_at(w)) * t_prev
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
