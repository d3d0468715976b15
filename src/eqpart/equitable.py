"""Perfect colorings, perfect structures, and completely regular codes.

A coloring of a graph is perfect (the partition is equitable) when every
vertex of color i has the same number S_ij of neighbors of color j; S is the
quotient matrix.  More generally, any N x k matrix f with A f = f S is a
perfect structure over the square matrix A; colorings are the 0/1-row case.

A vertex set is a completely regular code exactly when its distance coloring
is perfect, in which case the quotient matrix is tridiagonal and the number
of colors is the covering radius plus one.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import (
    EqpartError,
    NotEquitableError,
    NotTridiagonalError,
    ShapeError,
    StructureError,
)
from .graphs import (
    DEFAULT_VERTEX_BUDGET,
    Graph,
    decode_word,
    direct_product,
    distances_from_set,
    encode_word,
    hamming_graph,
    read_ints,
    read_key,
)
from .ratmat import RatMatrix, tensor


@dataclass(frozen=True)
class Coloring:
    """Vertex-to-color map with colors 0..n_colors-1, every class nonempty.

    ``distance_code`` is set when the coloring arose as the distance coloring
    of a vertex set, and remembers that set.
    """

    graph: Graph
    colors: tuple[int, ...]
    n_colors: int
    distance_code: frozenset[int] | None = None

    def __post_init__(self):
        if len(self.colors) != self.graph.n:
            raise ShapeError(
                f"{len(self.colors)} colors for {self.graph.n} vertices"
            )
        seen = [False] * self.n_colors
        for v, c in enumerate(self.colors):
            if not 0 <= c < self.n_colors:
                raise EqpartError(f"vertex {v} has color {c} out of range")
            seen[c] = True
        if not all(seen):
            missing = seen.index(False)
            raise EqpartError(f"color class {missing} is empty")

    def indicator(self) -> RatMatrix:
        """N x k matrix whose row v is the unit tuple of the vertex's color."""
        rows = []
        for c in self.colors:
            row = [0] * self.n_colors
            row[c] = 1
            rows.append(row)
        return RatMatrix(rows)

    def class_sizes(self) -> list[int]:
        sizes = [0] * self.n_colors
        for c in self.colors:
            sizes[c] += 1
        return sizes

    def class_vertices(self, c: int) -> list[int]:
        return [v for v, col in enumerate(self.colors) if col == c]


def coloring_from_list(g: Graph, colors: Sequence[int]) -> Coloring:
    """The coloring of ``g`` that gives vertex v the color ``colors[v]``;
    colors must be integers (a JSON array read from a file is checked)."""
    colors = tuple(read_ints(colors, "colors"))
    return Coloring(g, colors, max(colors) + 1 if colors else 0)


def trivial_coloring(g: Graph) -> Coloring:
    """Each vertex its own color; the quotient matrix is the adjacency matrix."""
    return Coloring(g, tuple(range(g.n)), g.n)


def all_one_coloring(g: Graph) -> Coloring:
    return Coloring(g, (0,) * g.n, 1)


def quotient_matrix(g: Graph, c: Coloring) -> RatMatrix:
    """Neighbor-count matrix S with S_ij = #{color-j neighbors of a color-i
    vertex}; raises NotEquitableError with the first witness pair scanned in
    vertex order if the counts are not uniform on some class.
    """
    if c.graph.n != g.n:
        raise ShapeError("coloring belongs to a different graph")
    k = c.n_colors
    rep: list[int | None] = [None] * k
    profiles: list[tuple[int, ...] | None] = [None] * k
    for v in range(g.n):
        counts = [0] * k
        for u in g.adj[v]:
            counts[c.colors[u]] += 1
        profile = tuple(counts)
        i = c.colors[v]
        if profiles[i] is None:
            profiles[i] = profile
            rep[i] = v
        elif profiles[i] != profile:
            raise NotEquitableError((rep[i], v), (profiles[i], profile))
    return RatMatrix([list(p) for p in profiles])


def verify_structure(a, f: RatMatrix, s: RatMatrix) -> tuple[bool, RatMatrix]:
    """Check A f = f S exactly; returns (ok, residual) with residual = Af - fS.

    ``a`` is a Graph, whose A f sums the rows of f over each vertex's
    neighbours (``f.sum_rows(adj)``: O(edges) additions of integer
    numerators), or a square RatMatrix.
    """
    if not s.is_square() or s.rows != f.cols:
        raise ShapeError(f"parameter matrix {s.shape()} does not fit values {f.shape()}")
    if isinstance(a, Graph):
        if a.n != f.rows:
            raise ShapeError(f"value matrix has {f.rows} rows for {a.n} vertices")
        af = f.sum_rows(a.adj)
    elif isinstance(a, RatMatrix):
        if not a.is_square() or a.rows != f.rows:
            raise ShapeError(f"host matrix {a.shape()} does not fit values {f.shape()}")
        af = a @ f
    else:
        raise ShapeError(f"host must be a Graph or RatMatrix, not {type(a).__name__}")
    residual = af - f @ s
    return residual.is_zero(), residual


@dataclass(frozen=True)
class PerfectStructure:
    """Value matrix f with parameters S over a host A, A f = f S verified on
    construction."""

    host: object  # Graph or square RatMatrix
    values: RatMatrix
    params: RatMatrix
    coloring: Coloring | None = field(default=None, compare=False)

    def __post_init__(self):
        ok, residual = verify_structure(self.host, self.values, self.params)
        if not ok:
            bad = next(i for i in range(residual.rows) if any(x != 0 for x in residual.row(i)))
            raise StructureError(
                f"values do not satisfy the defining equation; first nonzero "
                f"residual row {bad}: {list(map(str, residual.row(bad)))}"
            )

    @property
    def graph(self) -> Graph:
        if not isinstance(self.host, Graph):
            raise EqpartError("structure is hosted by an explicit matrix, not a graph")
        return self.host

    @property
    def n_colors(self) -> int:
        return self.values.cols


def structure_from_coloring(g: Graph, c: Coloring) -> PerfectStructure:
    """Derive the quotient matrix and package the coloring as a structure.

    The quotient matrix holds A ind = ind S by construction; PerfectStructure
    still checks it, as one O(edges) integer pass over the graph, so that a
    fault in quotient_matrix cannot pass unseen."""
    s = quotient_matrix(g, c)
    return PerfectStructure(g, c.indicator(), s, coloring=c)


def distance_coloring(g: Graph, code: Iterable[int]) -> Coloring:
    """Color every vertex by its distance to the set."""
    code = frozenset(read_ints(code, "code"))
    dist, rho = distances_from_set(g, code)
    return Coloring(g, tuple(dist), rho + 1, distance_code=code)


@dataclass(frozen=True)
class CompletelyRegularCode:
    """Vertex set whose distance coloring is perfect; params is the
    tridiagonal (rho+1)-square quotient matrix."""

    graph: Graph
    code: frozenset[int]
    rho: int
    params: RatMatrix


def check_completely_regular(g: Graph, code: Iterable[int]) -> CompletelyRegularCode:
    """Build the distance coloring, derive its quotient matrix, and confirm
    the tridiagonal pattern."""
    col = distance_coloring(g, code)
    r = quotient_matrix(g, col)
    for i in range(r.rows):
        for j in range(r.cols):
            if abs(i - j) > 1 and r[i, j] != 0:
                raise NotTridiagonalError(
                    f"quotient entry ({i},{j}) = {r[i, j]} off the three diagonals"
                )
    return CompletelyRegularCode(g, col.distance_code, col.n_colors - 1, r)


def lattice_coloring(m: int, k: int, q: int, budget: int = DEFAULT_VERTEX_BUDGET) -> Coloring:
    """Block-sum coloring of the length-(m*k) Hamming graph over {0..q-1}.

    A word is split into m consecutive blocks of length k; its color is the
    coordinatewise sum of the blocks mod q, read as a vertex index of the
    length-k Hamming graph.  The quotient matrix is m times the adjacency
    matrix of that smaller graph.
    """
    if m < 1 or k < 1:
        raise EqpartError(f"lattice coloring needs m, k >= 1, got m={m}, k={k}")
    g = hamming_graph(m * k, q, budget)
    colors = []
    for v in range(g.n):
        word = decode_word(v, m * k, q)
        total = [0] * k
        for b in range(m):
            for i in range(k):
                total[i] += word[b * k + i]
        colors.append(encode_word([x % q for x in total], q))
    return Coloring(g, tuple(colors), q**k)


def fiber_coloring(g1: Graph, g2: Graph, budget: int = DEFAULT_VERTEX_BUDGET) -> Coloring:
    """Second-projection coloring of the direct product.

    Needs g1 regular of some degree d; the quotient matrix is the adjacency
    matrix of g2 plus d times the identity.
    """
    if not g1.is_regular():
        raise EqpartError("fiber coloring needs a regular left factor")
    prod = direct_product(g1, g2, budget)
    colors = tuple(v % g2.n for v in range(prod.n))
    return Coloring(prod, colors, g2.n)


def tensor_params(r1: RatMatrix, r2: RatMatrix) -> RatMatrix:
    """Parameter matrix of a product structure: R1 (x) I + I (x) R2."""
    if not r1.is_square() or not r2.is_square():
        raise ShapeError("parameter matrices must be square")
    return tensor(r1, RatMatrix.identity(r2.rows)) + tensor(RatMatrix.identity(r1.rows), r2)


# -- JSON ------------------------------------------------------------------


def coloring_to_json(c: Coloring) -> dict:
    from .graphs import graph_to_json

    return {"graph": graph_to_json(c.graph), "colors": list(c.colors)}


def load_coloring(
    spec: dict, budget: int = DEFAULT_VERTEX_BUDGET, graph: Graph | None = None
) -> Coloring:
    """Read {"graph": <graph spec>, "colors": [c_0, ..., c_{N-1}]}.

    ``graph``, when given, is the graph the file's spec describes, already
    built by the caller; it is used instead of building the spec again."""
    from .graphs import load_graph

    graph_spec = read_key(spec, "graph", "coloring file")
    g = graph if graph is not None else load_graph(graph_spec, budget)
    return coloring_from_list(g, read_key(spec, "colors", "coloring file"))


def read_structure(
    spec: dict, budget: int = DEFAULT_VERTEX_BUDGET, graph: Graph | None = None
) -> tuple:
    """Read the host, f and s of {"graph"|"matrix": ..., "f": [[...]],
    "s": [[...]]} with "p/q" entries, without checking A f = f S.

    ``graph`` is as for :func:`load_coloring`."""
    from .graphs import load_graph
    from .ratmat import from_json

    if isinstance(spec, dict) and "graph" in spec:
        host = graph if graph is not None else load_graph(spec["graph"], budget)
    elif isinstance(spec, dict) and "matrix" in spec:
        host = from_json(spec["matrix"])
    else:
        raise EqpartError('structure file needs a "graph" or "matrix" key')
    f = from_json(read_key(spec, "f", "structure file"))
    return host, f, from_json(read_key(spec, "s", "structure file"))


def load_structure(
    spec: dict, budget: int = DEFAULT_VERTEX_BUDGET, graph: Graph | None = None
) -> PerfectStructure:
    """Read a structure file (see :func:`read_structure`); verification runs
    on construction."""
    return PerfectStructure(*read_structure(spec, budget, graph))
