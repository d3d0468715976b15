"""Graph construction and distance machinery.

Graphs are simple, undirected, and stored as sorted adjacency lists; vertex
indices run 0..n-1, and every built graph holds one int object per vertex,
which all its adjacency rows reference.  The structured generators carry a
label for each vertex (the word or subset it encodes) so tests can
cross-check graph distance against word distance; Hamming and halved-cube
words are decoded on demand, not stored.

Index conventions are load-bearing: Hamming words are encoded base-q with
coordinate 0 most significant, and product vertices flatten as
i_left * n_right + i_right, which lines up with the Kronecker index pairing
in :mod:`eqpart.ratmat` without any permutation.
"""
from __future__ import annotations

import itertools
import math
from collections import deque
from collections.abc import Iterable, Sequence

from ._record import Record
from .errors import (
    DEFAULT_VERTEX_BUDGET,
    EqpartError,
    ShapeError,
    UnreachableVertexError,
    check_budget,
)
from .inputs import _check_generator, read_ints, read_key, read_spec  # noqa: F401 - re-exported
from .ratmat import RatMatrix
from .words import Words, decode_word, encode_word, halved_word  # noqa: F401 - re-exported


class Graph(Record):
    """Simple undirected graph; immutable after construction.

    ``labels``, where the generator gives them, is the word or subset each
    vertex encodes, in vertex order: a tuple of the k-subsets of a Johnson
    graph, or a :class:`Words` sequence of the words of a Hamming graph or
    halved cube, which equals the tuple of those words.  It is None
    otherwise."""

    n: int
    adj: tuple[tuple[int, ...], ...]
    labels: Sequence | None = None
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


def _vertex_count(key: tuple, budget: int) -> int:
    """The number of vertices of the graph that ``key``, a spec as
    :func:`read_spec` reads it, describes, after the checks of parameters and
    budget that building it makes, in the same order; nothing is built.  A
    count is computed only until it passes the budget, and a product's
    factors are checked before the product."""
    kind, a, b = _check_generator(key)
    if kind == "hamming":
        counts, what = (b**i for i in range(a + 1)), f"vertices of H({a},{b})"
    elif kind == "johnson":
        counts = (math.comb(a, i) for i in range(min(b, a - b) + 1))
        what = f"vertices of J({a},{b})"
    elif kind == "halved":
        counts, what = (2**i for i in range(a)), f"vertices of halved({a},{b})"
    elif kind == "product":
        counts, what = (_vertex_count(a, budget) * _vertex_count(b, budget),), "vertices"
    else:
        counts, what = (a,), "vertices"
    return check_budget(counts, budget, what)


def graph_from_edges(n: int, edges: Iterable[Sequence[int]], name: str = "") -> Graph:
    """Build a graph from an explicit edge list, validating simplicity."""
    ids = list(range(n))
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for e in edges:
        u, v = int(e[0]), int(e[1])
        if not (0 <= u < n and 0 <= v < n):
            raise EqpartError(f"edge ({u},{v}) out of range for {n} vertices")
        if u == v:
            raise EqpartError(f"self-loop at vertex {u}")
        if v in nbrs[u]:
            raise EqpartError(f"duplicate edge ({u},{v})")
        nbrs[u].add(ids[v])
        nbrs[v].add(ids[u])
    return Graph(n, tuple(tuple(sorted(s)) for s in nbrs), name=name)


def hamming_graph(n: int, q: int, budget: int = DEFAULT_VERTEX_BUDGET) -> Graph:
    """Words of length n over {0..q-1}; adjacent iff they differ in exactly
    one coordinate.  Degree (q-1)*n everywhere.

    Vertex index of (x_0,...,x_{n-1}) is sum(x_i * q**(n-1-i)).  The rows
    share one int per vertex, and ``labels`` is a :class:`Words` sequence
    that decodes a word when it is read, so the graph stores no word.
    """
    size = _vertex_count(("hamming", n, q), budget)
    ids = list(range(size))
    powers = [q ** (n - 1 - i) for i in range(n)]
    # the offsets u - v from v to its neighbours u that change coordinate i
    # from x, below v and above it.  A change in coordinate i moves v by at
    # least q**(n-1-i) and a change in any later one by less, so the lower
    # offsets in coordinate order, then the upper ones in reverse, are sorted.
    lower = [[[(a - x) * p for a in range(x)] for x in range(q)] for p in powers]
    upper = [[[(a - x) * p for a in range(x + 1, q)] for x in range(q)] for p in powers]
    upper.reverse()
    labels = Words(n, q)
    adj = []
    for v, word in enumerate(labels):
        offsets = []
        for choices, x in zip(lower, word):
            offsets += choices[x]
        for choices, x in zip(upper, reversed(word)):
            offsets += choices[x]
        adj.append(tuple([ids[v + d] for d in offsets]))
    return Graph(size, tuple(adj), labels=labels, name=f"H({n},{q})")


def johnson_graph(n: int, k: int, budget: int = DEFAULT_VERTEX_BUDGET) -> Graph:
    """k-subsets of {0..n-1}; adjacent iff the symmetric difference has size 2.

    Vertices are ordered lexicographically by support tuple; degree k*(n-k).
    """
    _vertex_count(("johnson", n, k), budget)
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

    Vertices are the words in increasing order, so word w (coordinate 0 most
    significant) has index w >> 1.  The rows share one int per vertex, and
    ``labels`` is a :class:`Words` sequence that decodes a word when it is
    read.
    """
    size = _vertex_count(("halved", n, parity), budget)
    want = 0 if parity == "even" else 1
    ids = list(range(size))
    masks = [(1 << i) | (1 << j) for i in range(n) for j in range(i + 1, n)]
    adj = []
    for v in range(size):
        w = halved_word(v, want)
        adj.append(tuple(sorted([ids[(w ^ m) >> 1] for m in masks])))
    return Graph(size, tuple(adj), labels=Words(n, 2, want), name=f"halved({n},{parity})")


def direct_product(g1: Graph, g2: Graph, budget: int = DEFAULT_VERTEX_BUDGET) -> Graph:
    """Cartesian-style product: (u',u'') ~ (v',v'') iff u'=v' and u''~v'',
    or u'~v' and u''=v''.

    Vertex (i', i'') flattens to i' * g2.n + i'', so the adjacency matrix is
    tensor(A', I) + tensor(I, A'').  The product has no labels, and its rows
    share one int per vertex.
    """
    size = check_budget((g1.n * g2.n,), budget, "vertices")
    name = f"{g1.name or 'G1'} x {g2.name or 'G2'}"
    return Graph(size, tuple(_product_rows(g1, g2)), name=name)


def _product_rows(g1: Graph, g2: Graph):
    """The adjacency rows of ``direct_product(g1, g2)``, in vertex order.

    The neighbours (v1, u2) of (u1, u2) with v1 < u1 lie below the block of
    u1, those with v1 > u1 above it, and (u1, v2) inside it, so sorted
    factor rows give sorted product rows without a sort.  The rows share
    one int per product vertex."""
    n2 = g2.n
    ids = list(range(g1.n * n2))
    for u1, nbrs1 in enumerate(g1.adj):
        block = ids[u1 * n2:(u1 + 1) * n2]
        lower = [v1 * n2 for v1 in nbrs1 if v1 < u1]
        upper = [v1 * n2 for v1 in nbrs1 if v1 > u1]
        for u2, nbrs2 in enumerate(g2.adj):
            yield tuple(
                [ids[x + u2] for x in lower] + [block[v2] for v2 in nbrs2]
                + [ids[x + u2] for x in upper]
            )


def is_direct_product(g: Graph, g1: Graph, g2: Graph) -> bool:
    """Whether ``g`` has the adjacency of ``direct_product(g1, g2)``, checked
    row by row without building the product."""
    return g.n == len(g.adj) == g1.n * g2.n and all(
        row == expect for row, expect in zip(g.adj, _product_rows(g1, g2))
    )


def _code_labels(n: int, code: Iterable[int], rest=None) -> list:
    """0 at the vertices of ``code`` (once each, however often listed) and
    ``rest`` at the others: the one check of a code's vertices, which BFS
    and the CLI's sum over a code share."""
    labels = [rest] * n
    for v in code:
        if not 0 <= v < n:
            raise EqpartError(f"source vertex {v} out of range")
        labels[v] = 0
    return labels


def bfs_distances(g: Graph, sources: Iterable[int]) -> list[int]:
    """Multi-source BFS distances; raises if some vertex is unreachable."""
    dist = _code_labels(g.n, sources, -1)
    queue = deque(v for v, d in enumerate(dist) if d == 0)
    if not queue:
        raise EqpartError("empty source set")
    while queue:
        u = queue.popleft()
        for v in g.adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    if -1 in dist:
        raise UnreachableVertexError(f"vertex {dist.index(-1)} is unreachable from the given set")
    return dist


def groups_of(labels: Sequence, n_classes: int) -> list[list[int]]:
    """Entry i lists the vertices v with ``labels[v] == i``, in order; a
    vertex labelled None is in no entry."""
    groups = [[] for _ in range(n_classes)]
    for v, i in enumerate(labels):
        if i is not None:
            groups[i].append(v)
    return groups


def class_sums(f, labels: Sequence, n_classes: int) -> RatMatrix:
    """The matrix whose row i sums the values of f over the vertices v with
    ``labels[v] == i`` (None for no row), for i = 0 .. n_classes-1.

    ``f`` is a Coloring, whose value at a vertex is the unit vector e_c of
    its color c, or a RatMatrix with one row per vertex, or a structure
    holding either as its values.  Colors are counted as (label, c) pairs in
    one pass, in plain ints; matrix rows are summed by ``RatMatrix.sum_rows``
    over :func:`groups_of`."""
    f = getattr(f, "values", f)
    colors = getattr(f, "colors", None)
    if colors is None and not isinstance(f, RatMatrix):
        raise ShapeError(f"cannot read per-vertex values from {type(f).__name__}")
    if f.rows != len(labels):
        raise ShapeError(f"value matrix has {f.rows} rows for {len(labels)} vertices")
    if colors is None:
        return f.sum_rows(groups_of(labels, n_classes))
    k = f.cols
    counts = [0] * (n_classes * k)
    for i, c in zip(labels, colors):
        if i is not None:
            counts[i * k + c] += 1
    return RatMatrix([counts[i:i + k] for i in range(0, n_classes * k, k)])


def graph_to_json(g: Graph) -> dict:
    edges = [[u, v] for u, nbrs in enumerate(g.adj) for v in nbrs if u < v]
    doc: dict = {"n_vertices": g.n, "edges": edges}
    if g.labels is not None:
        doc["labels"] = [list(lbl) for lbl in g.labels]
    return doc


def load_graph(spec, budget: int = DEFAULT_VERTEX_BUDGET, load=None) -> Graph:
    """Build a graph from its JSON description or from what :func:`read_spec`
    read from it.  ``load``, a function from either to a Graph, gives a
    product's factors; by default they are built by this function, with
    ``budget``.  A product's budget is checked from the vertex counts its
    spec gives, before either factor is built."""
    key = spec if isinstance(spec, tuple) else read_spec(spec)
    kind, a, b = key
    build = {"hamming": hamming_graph, "johnson": johnson_graph, "halved": halved_cube}.get(kind)
    if build is not None:
        return build(a, b, budget)
    _vertex_count(key, budget)
    if kind == "edges":
        return graph_from_edges(a, b)
    load = load or (lambda factor: load_graph(factor, budget))
    return direct_product(load(a), load(b), budget)
