"""Graph construction and distance machinery.

Graphs are simple, undirected, and stored as sorted adjacency lists; vertex
indices run 0..n-1.  The structured generators carry a label for each vertex
(the word or subset it encodes) so tests can cross-check graph distance
against word distance.

Index conventions are load-bearing: Hamming words are encoded base-q with
coordinate 0 most significant, and product vertices flatten as
i_left * n_right + i_right, which lines up with the Kronecker index pairing
in :mod:`eqpart.ratmat` without any permutation.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter, deque
from collections.abc import Iterable, Sequence

from ._record import Record
from .errors import (
    DEFAULT_VERTEX_BUDGET,
    EqpartError,
    ShapeError,
    UnreachableVertexError,
    VertexBudgetError,
)
from .inputs import read_ints, read_key, read_spec, spec_key  # noqa: F401 - re-exported
from .ratmat import RatMatrix


class Graph(Record):
    """Simple undirected graph; immutable after construction."""

    n: int
    adj: tuple[tuple[int, ...], ...]
    labels: tuple | None = None
    name: str = ""

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def degrees(self) -> list[int]:
        return [len(nbrs) for nbrs in self.adj]

    def is_regular(self) -> bool:
        degs = self.degrees()
        return all(d == degs[0] for d in degs)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def n_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj) // 2

    def adjacency_matrix(self) -> RatMatrix:
        rows = []
        for u in range(self.n):
            row = [0] * self.n
            for v in self.adj[u]:
                row[v] = 1
            rows.append(row)
        return RatMatrix(rows)

    def same_adjacency(self, other: "Graph") -> bool:
        return self.n == other.n and self.adj == other.adj


def _check_budget(n: int, budget: int):
    if n > budget:
        raise VertexBudgetError(f"{n} vertices exceeds the budget of {budget}")


def graph_from_edges(n: int, edges: Iterable[Sequence[int]], name: str = "") -> Graph:
    """Build a graph from an explicit edge list, validating simplicity."""
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for e in edges:
        u, v = int(e[0]), int(e[1])
        if not (0 <= u < n and 0 <= v < n):
            raise EqpartError(f"edge ({u},{v}) out of range for {n} vertices")
        if u == v:
            raise EqpartError(f"self-loop at vertex {u}")
        if v in nbrs[u]:
            raise EqpartError(f"duplicate edge ({u},{v})")
        nbrs[u].add(v)
        nbrs[v].add(u)
    return Graph(n, tuple(tuple(sorted(s)) for s in nbrs), name=name)


def hamming_graph(n: int, q: int, budget: int = DEFAULT_VERTEX_BUDGET) -> Graph:
    """Words of length n over {0..q-1}; adjacent iff they differ in exactly
    one coordinate.  Degree (q-1)*n everywhere.

    Vertex index of (x_0,...,x_{n-1}) is sum(x_i * q**(n-1-i)).
    """
    if n < 1:
        raise EqpartError(f"hamming graph needs n >= 1, got {n}")
    if q < 2:
        raise EqpartError(f"hamming graph needs q >= 2, got {q}")
    size = q**n
    _check_budget(size, budget)
    powers = [q ** (n - 1 - i) for i in range(n)]
    # the offsets u - v from v to its neighbours u that change coordinate i
    # from x, below v and above it.  A change in coordinate i moves v by at
    # least q**(n-1-i) and a change in any later one by less, so the lower
    # offsets in coordinate order, then the upper ones in reverse, are sorted.
    lower = [[[(a - x) * p for a in range(x)] for x in range(q)] for p in powers]
    upper = [[[(a - x) * p for a in range(x + 1, q)] for x in range(q)] for p in powers]
    upper.reverse()
    labels = tuple(itertools.product(range(q), repeat=n))  # in index order
    adj = []
    for v, word in enumerate(labels):
        offsets = []
        for choices, x in zip(lower, word):
            offsets += choices[x]
        for choices, x in zip(upper, reversed(word)):
            offsets += choices[x]
        adj.append(tuple([v + d for d in offsets]))
    return Graph(size, tuple(adj), labels=labels, name=f"H({n},{q})")


def decode_word(index: int, n: int, q: int) -> tuple[int, ...]:
    """Inverse of the Hamming vertex indexing (coordinate 0 most significant)."""
    word = []
    for i in range(n):
        word.append(index // q ** (n - 1 - i) % q)
    return tuple(word)


def encode_word(word: Sequence[int], q: int) -> int:
    index = 0
    for x in word:
        index = index * q + x
    return index


def johnson_graph(n: int, k: int, budget: int = DEFAULT_VERTEX_BUDGET) -> Graph:
    """k-subsets of {0..n-1}; adjacent iff the symmetric difference has size 2.

    Vertices are ordered lexicographically by support tuple; degree k*(n-k).
    """
    if not 0 <= k <= n:
        raise EqpartError(f"johnson graph needs 0 <= k <= n, got k={k}, n={n}")
    _check_budget(math.comb(n, k), budget)
    subsets = list(itertools.combinations(range(n), k))
    index = {s: i for i, s in enumerate(subsets)}
    adj = []
    for s in subsets:
        inside = set(s)
        nbrs = []
        for drop in s:
            for add in range(n):
                if add not in inside:
                    t = tuple(sorted(inside - {drop} | {add}))
                    nbrs.append(index[t])
        adj.append(tuple(sorted(nbrs)))
    return Graph(len(subsets), tuple(adj), labels=tuple(subsets), name=f"J({n},{k})")


def halved_cube(n: int, parity: str = "even", budget: int = DEFAULT_VERTEX_BUDGET) -> Graph:
    """Binary words of length n with the chosen weight parity; adjacent iff
    their Hamming distance is exactly 2.  Degree C(n,2).
    """
    if n < 2:
        raise EqpartError(f"halved cube needs n >= 2, got {n}")
    if parity not in ("even", "odd"):
        raise EqpartError(f"parity must be 'even' or 'odd', got {parity!r}")
    _check_budget(2 ** (n - 1), budget)
    want = 0 if parity == "even" else 1
    words = [w for w in range(2**n) if bin(w).count("1") % 2 == want]
    index = {w: i for i, w in enumerate(words)}
    masks = [(1 << i) | (1 << j) for i in range(n) for j in range(i + 1, n)]
    adj = []
    labels = []
    for w in words:
        adj.append(tuple(sorted(index[w ^ m] for m in masks)))
        # bit n-1-i of w is coordinate i (most significant first)
        labels.append(tuple((w >> (n - 1 - i)) & 1 for i in range(n)))
    return Graph(len(words), tuple(adj), labels=tuple(labels), name=f"halved({n},{parity})")


def direct_product(g1: Graph, g2: Graph, budget: int = DEFAULT_VERTEX_BUDGET) -> Graph:
    """Cartesian-style product: (u',u'') ~ (v',v'') iff u'=v' and u''~v'',
    or u'~v' and u''=v''.

    Vertex (i', i'') flattens to i' * g2.n + i'', so the adjacency matrix is
    tensor(A', I) + tensor(I, A'').
    """
    size = g1.n * g2.n
    _check_budget(size, budget)
    name = f"{g1.name or 'G1'} x {g2.name or 'G2'}"
    return Graph(size, tuple(_product_rows(g1, g2)), name=name)


def _product_rows(g1: Graph, g2: Graph):
    """The adjacency rows of ``direct_product(g1, g2)``, in vertex order.

    The neighbours (v1, u2) of (u1, u2) with v1 < u1 lie below the block of
    u1, those with v1 > u1 above it, and (u1, v2) inside it, so sorted
    factor rows give sorted product rows without a sort."""
    n2 = g2.n
    for u1, nbrs1 in enumerate(g1.adj):
        base = u1 * n2
        lower = [v1 * n2 for v1 in nbrs1 if v1 < u1]
        upper = [v1 * n2 for v1 in nbrs1 if v1 > u1]
        for u2, nbrs2 in enumerate(g2.adj):
            yield tuple(
                [x + u2 for x in lower] + [base + v2 for v2 in nbrs2] + [x + u2 for x in upper]
            )


def is_direct_product(g: Graph, g1: Graph, g2: Graph) -> bool:
    """Whether ``g`` has the adjacency of ``direct_product(g1, g2)``, checked
    row by row without building the product."""
    return g.n == len(g.adj) == g1.n * g2.n and all(
        row == expect for row, expect in zip(g.adj, _product_rows(g1, g2))
    )


def bfs_distances(g: Graph, sources: Iterable[int]) -> list[int]:
    """Multi-source BFS distances; raises if some vertex is unreachable."""
    dist = [-1] * g.n
    queue = deque()
    for s in sources:
        if not 0 <= s < g.n:
            raise EqpartError(f"source vertex {s} out of range")
        if dist[s] != 0:
            dist[s] = 0
            queue.append(s)
    if not queue:
        raise EqpartError("empty source set")
    while queue:
        u = queue.popleft()
        for v in g.adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    if any(d < 0 for d in dist):
        missing = next(v for v, d in enumerate(dist) if d < 0)
        raise UnreachableVertexError(
            f"vertex {missing} is unreachable from the given set"
        )
    return dist


def distances_from_set(g: Graph, code: Iterable[int]) -> tuple[list[int], int]:
    """Per-vertex distance to the set and the covering radius (their max)."""
    dist = bfs_distances(g, code)
    return dist, max(dist)


def vertex_values(g: Graph, f) -> tuple:
    """The per-vertex values of ``f`` over ``g``, as (colors, values, k).

    ``f`` is a coloring, a perfect structure or a RatMatrix with one row per
    vertex.  k is the length of a row and values the RatMatrix of rows (None
    for a coloring).  colors lists each vertex's c when every row is a unit
    vector e_c (a coloring, or rows that ``unit_columns`` reads as unit
    vectors), and is None otherwise."""
    colors = getattr(f, "colors", None)
    if colors is not None:
        values, n, k = None, len(colors), f.n_colors
    else:
        values = f if isinstance(f, RatMatrix) else getattr(f, "values", None)
        if not isinstance(values, RatMatrix):
            raise ShapeError(f"cannot read per-vertex values from {type(f).__name__}")
        n, k, colors = values.rows, values.cols, values.unit_columns()
    if n != g.n:
        raise ShapeError(f"value matrix has {n} rows for {g.n} vertices")
    return colors, values, k


def class_sums(per_vertex: tuple, classes: Sequence[int], n_classes: int) -> RatMatrix:
    """The n_classes-row matrix whose row i sums the values of the vertices v
    with ``classes[v] == i``; ``per_vertex`` is what :func:`vertex_values`
    read.

    Unit-vector values are counted per (class, colour) pair in plain ints;
    other values are summed with ``RatMatrix.sum_rows`` over each class."""
    colors, values, k = per_vertex
    if colors is not None:
        rows = [[0] * k for _ in range(n_classes)]
        for (i, c), count in Counter(zip(classes, colors)).items():
            rows[i][c] = count
        return RatMatrix(rows)
    groups = [[] for _ in range(n_classes)]
    for v, i in enumerate(classes):
        groups[i].append(v)
    return values.sum_rows(groups)


def graph_to_json(g: Graph) -> dict:
    doc: dict = {"n_vertices": g.n, "edges": [[u, v] for u, v in g.edges()]}
    if g.labels is not None:
        doc["labels"] = [list(lbl) for lbl in g.labels]
    return doc


def load_graph(spec: dict, budget: int = DEFAULT_VERTEX_BUDGET, load=None) -> Graph:
    """Build a graph from its JSON description (see :func:`read_spec`).

    ``load``, a function from a spec to its Graph, gives a product's
    factors; by default they are built by this function, with ``budget``."""
    kind, a, b = read_spec(spec)
    if kind == "edges":
        _check_budget(a, budget)
        return graph_from_edges(a, b)
    if kind == "hamming":
        return hamming_graph(a, b, budget)
    if kind == "johnson":
        return johnson_graph(a, b, budget)
    if kind == "halved":
        return halved_cube(a, b, budget)
    load = load or (lambda factor: load_graph(factor, budget))
    return direct_product(load(a), load(b), budget)
