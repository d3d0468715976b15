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
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import EqpartError, ShapeError, UnreachableVertexError, VertexBudgetError
from .ratmat import RatMatrix

DEFAULT_VERTEX_BUDGET = 2**20


@dataclass(frozen=True)
class Graph:
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
    labels = []
    adj = []
    for v in range(size):
        word = decode_word(v, n, q)
        labels.append(word)
        nbrs = []
        for i in range(n):
            for a in range(q):
                if a != word[i]:
                    nbrs.append(v + (a - word[i]) * powers[i])
        adj.append(tuple(sorted(nbrs)))
    return Graph(size, tuple(adj), labels=tuple(labels), name=f"H({n},{q})")


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
    n2 = g2.n
    adj = []
    for u1 in range(g1.n):
        base = u1 * n2
        right = [tuple(base + v2 for v2 in g2.adj[u2]) for u2 in range(n2)]
        for u2 in range(n2):
            left = tuple(v1 * n2 + u2 for v1 in g1.adj[u1])
            adj.append(tuple(sorted(left + right[u2])))
    name = f"{g1.name or 'G1'} x {g2.name or 'G2'}"
    return Graph(size, tuple(adj), name=name)


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


def eccentricity(g: Graph, v: int) -> int:
    return max(bfs_distances(g, [v]))


def diameter(g: Graph) -> int:
    return max(eccentricity(g, v) for v in range(g.n))


def _values_of(f) -> RatMatrix:
    if isinstance(f, RatMatrix):
        return f
    values = getattr(f, "values", None)
    if isinstance(values, RatMatrix):
        return values
    indicator = getattr(f, "indicator", None)
    if callable(indicator):
        return indicator()
    raise ShapeError(f"cannot read per-vertex values from {type(f).__name__}")


def distance_w_sum(g: Graph, v: int, w: int, f) -> tuple[Fraction, ...]:
    """Sum of the vector values of ``f`` over all vertices at distance
    exactly ``w`` from ``v``.

    ``f`` may be a RatMatrix of per-vertex rows, a perfect structure, or a
    coloring.
    """
    values = _values_of(f)
    if values.rows != g.n:
        raise ShapeError(f"value matrix has {values.rows} rows for {g.n} vertices")
    dist = bfs_distances(g, [v])
    if w < 0 or w > max(dist):
        raise EqpartError(f"distance {w} out of range (eccentricity {max(dist)})")
    total = [Fraction(0)] * values.cols
    for u, d in enumerate(dist):
        if d == w:
            for j, x in enumerate(values.row(u)):
                total[j] += x
    return tuple(total)


def graph_to_json(g: Graph) -> dict:
    doc: dict = {"n_vertices": g.n, "edges": [[u, v] for u, v in g.edges()]}
    if g.labels is not None:
        doc["labels"] = [list(lbl) for lbl in g.labels]
    return doc


def read_key(doc, key: str, what: str):
    """``doc[key]``, where ``doc`` is a JSON object read from a ``what``
    (say "coloring file"); anything else raises EqpartError."""
    if not isinstance(doc, dict):
        raise EqpartError(f"{what} must be a JSON object, got {type(doc).__name__}")
    if key not in doc:
        raise EqpartError(f"{what} has no {key!r} key")
    return doc[key]


def read_ints(values, what: str) -> list[int]:
    """``values`` as a list of ints, where ``values`` is a JSON array read as
    ``what`` (say "colors"); an entry that is not a JSON integer (a bool, a
    string or a float) raises EqpartError naming its index."""
    if isinstance(values, (str, bytes, dict)) or not isinstance(values, Iterable):
        raise EqpartError(f"{what} must be an array of integers, got {type(values).__name__}")
    values = list(values)
    for i, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, int):
            raise EqpartError(f"{what} entry {i} is not an integer: {v!r}")
    return values


def _int_key(spec: dict, key: str) -> int:
    value = read_key(spec, key, f"{spec.get('gen', 'edge-list')} graph spec")
    if isinstance(value, bool) or not isinstance(value, int):
        raise EqpartError(f"graph spec key {key!r} must be an integer, got {value!r}")
    return value


def _is_int_pair(e) -> bool:
    return isinstance(e, list) and len(e) == 2 and all(
        isinstance(x, int) and not isinstance(x, bool) for x in e
    )


def read_spec(spec) -> tuple:
    """Check the keys and types of a JSON graph spec and return it as a tuple:
    ("hamming", n, q), ("johnson", n, k), ("halved", n, sign), ("product",
    left, right) with the factor specs not yet read, or ("edges", n, edges).

    Accepted forms: {"gen":"hamming","n":..,"q":..}, {"gen":"johnson","n":..,
    "k":..}, {"gen":"halved","n":..,"sign":"even"|"odd"}, {"gen":"product",
    "left":<spec>,"right":<spec>}, or {"n_vertices":N,"edges":[[u,v],...]}.
    A missing or mistyped key raises EqpartError.  Parameter ranges are
    checked by the generators and by the closed-form intersection arrays.
    """
    if not isinstance(spec, dict):
        raise EqpartError(f"graph spec must be a JSON object, got {type(spec).__name__}")
    if "edges" in spec:
        n, edges = _int_key(spec, "n_vertices"), spec["edges"]
        if n < 1:
            raise EqpartError(f"edge-list graph needs n_vertices >= 1, got {n}")
        if not isinstance(edges, list) or not all(_is_int_pair(e) for e in edges):
            raise EqpartError("graph spec edges must be a list of [u, v] integer pairs")
        return ("edges", n, edges)
    gen = spec.get("gen")
    if gen == "hamming":
        return (gen, _int_key(spec, "n"), _int_key(spec, "q"))
    if gen == "johnson":
        return (gen, _int_key(spec, "n"), _int_key(spec, "k"))
    if gen == "halved":
        sign = spec.get("sign", "even")
        if sign not in ("even", "odd"):
            raise EqpartError(f"halved cube sign must be 'even' or 'odd', got {sign!r}")
        return (gen, _int_key(spec, "n"), sign)
    if gen == "product":
        what = "product graph spec"
        return (gen, read_key(spec, "left", what), read_key(spec, "right", what))
    raise EqpartError(f"unknown graph spec: {spec!r}")


def spec_key(spec) -> tuple:
    """:func:`read_spec` with the factors of a product read as well: two
    specs with equal keys describe the same graph, vertex order included."""
    kind, a, b = read_spec(spec)
    if kind == "product":
        return (kind, spec_key(a), spec_key(b))
    return (kind, a, b)


def load_graph(spec: dict, budget: int = DEFAULT_VERTEX_BUDGET) -> Graph:
    """Build a graph from its JSON description (see :func:`read_spec`)."""
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
    return direct_product(load_graph(a, budget), load_graph(b, budget), budget)
