"""Perfect colorings, perfect structures, and completely regular codes.

A coloring of a graph is perfect (the partition is equitable) when every
vertex of color i has the same number S_ij of neighbors of color j; S is the
quotient matrix.  More generally, any N x k matrix f with A f = f S is a
perfect structure over the square matrix A; colorings are the 0/1-row case,
and a Coloring is such a value matrix, with its indicator's shape but no
indicator built: :func:`verify_structure` checks either kind of values.

A vertex set is a completely regular code exactly when its distance coloring
is perfect, in which case the quotient matrix R is tridiagonal and the
number of colors is the covering radius plus one.  R is all the code's
parameters, so :func:`check_completely_regular` returns R alone.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

from ._record import Record
from .errors import (
    EqpartError,
    NotEquitableError,
    ShapeError,
    StructureError,
)
from .graphs import (
    DEFAULT_VERTEX_BUDGET,
    Graph,
    bfs_distances,
    direct_product,
    encode_word,
    load_graph,
    read_ints,
    read_key,
)
from .ratmat import RatMatrix, tensor


class Coloring(Record):
    """Vertex-to-color map with colors 0..n_colors-1, every class nonempty;
    two colorings are equal when their graphs, colors and counts are."""

    graph: Graph
    colors: tuple[int, ...]
    n_colors: int

    def __post_init__(self):
        if len(self.colors) != self.graph.n:
            raise ShapeError(f"{len(self.colors)} colors for {self.graph.n} vertices")
        # with more colors than vertices, some class in 0..N is empty
        seen = [False] * min(self.n_colors, len(self.colors) + 1)
        for v, c in enumerate(self.colors):
            if not 0 <= c < self.n_colors:
                raise EqpartError(f"vertex {v} has color {c} out of range")
            if c < len(seen):
                seen[c] = True
        if False in seen:
            raise EqpartError(f"color class {seen.index(False)} is empty")

    @property
    def rows(self) -> int:  # rows and cols: the shape of the indicator
        return len(self.colors)

    @property
    def cols(self) -> int:
        return self.n_colors

    def indicator(self) -> RatMatrix:
        """N x k matrix whose row v is the unit vector e_c of the vertex's
        color c; vertices of one color share one row tuple."""
        k = self.n_colors
        units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
        return RatMatrix([units[c] for c in self.colors])

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


def all_one_coloring(g: Graph) -> Coloring:
    return Coloring(g, (0,) * g.n, 1)


def _quotient_rows(g: Graph, colors: Sequence[int], k: int) -> list[tuple[int, ...] | None]:
    """The rows of the quotient matrix of ``colors`` (colors 0..k-1) over
    ``g``: each vertex's neighbors are counted per color once, and row i is
    the count row of the first vertex of color i (None when no vertex has
    color i).  Raises NotEquitableError at the first vertex, in vertex
    order, whose count row differs from that of the first vertex of its
    color, with the two count rows as the profiles."""
    rows: list[list[int] | None] = [None] * k
    reps = [0] * k
    for v, nbrs in enumerate(g.adj):
        counts = [0] * k
        for u in nbrs:
            counts[colors[u]] += 1
        i = colors[v]
        if rows[i] is None:
            rows[i], reps[i] = counts, v
        elif rows[i] != counts:
            raise NotEquitableError((reps[i], v), (tuple(rows[i]), tuple(counts)))
    return [None if row is None else tuple(row) for row in rows]


def quotient_matrix(g: Graph, c: Coloring) -> RatMatrix:
    """Neighbor-count matrix S with S_ij = #{color-j neighbors of a color-i
    vertex}; raises NotEquitableError with the first witness pair scanned in
    vertex order if the counts are not uniform on some class.
    """
    if c.graph.n != g.n:
        raise ShapeError("coloring belongs to a different graph")
    return RatMatrix(_quotient_rows(g, c.colors, c.n_colors))


def verify_structure(a, f, s: RatMatrix) -> tuple[bool, RatMatrix]:
    """Check A f = f S exactly; returns (ok, residual) with residual = Af - fS.

    ``a`` is a Graph, whose A f is ``f.sum_rows(adj)`` (O(edges) additions
    of integer numerators), or a square RatMatrix, whose A f is the matrix
    product.  ``f`` is an N x k RatMatrix or a Coloring, the 0/1 matrix of
    its unit rows.  Over a graph, a Coloring is checked by the neighbor-count
    scan of :func:`quotient_matrix`: A f = f S exactly when the coloring is
    equitable with S's rows as its quotient rows.  Its residual is computed
    only when that scan fails, with f S as S's rows picked by the colors.
    """
    if not s.is_square() or s.rows != f.cols:
        raise ShapeError(f"parameter matrix {s.shape()} does not fit values {(f.rows, f.cols)}")
    if isinstance(a, Graph):
        if a.n != f.rows:
            raise ShapeError(f"value matrix has {f.rows} rows for {a.n} vertices")
        if isinstance(f, Coloring):
            try:
                if RatMatrix(_quotient_rows(a, f.colors, f.cols)) == s:
                    return True, RatMatrix.zeros(f.rows, f.cols)
            except NotEquitableError:
                pass  # the residual names the first row that fails
    elif isinstance(a, RatMatrix):
        if not a.is_square() or a.rows != f.rows:
            raise ShapeError(f"host matrix {a.shape()} does not fit values {(f.rows, f.cols)}")
    else:
        raise ShapeError(f"host must be a Graph or RatMatrix, not {type(a).__name__}")
    if isinstance(f, Coloring):
        fs = s.sum_rows([c] for c in f.colors)
        f = f.indicator()
    else:
        fs = f @ s
    residual = (f.sum_rows(a.adj) if isinstance(a, Graph) else a @ f) - fs
    return residual.is_zero(), residual


class PerfectStructure(Record):
    """Values f with parameters S over a host A, A f = f S verified on
    construction by :func:`verify_structure`.  f is an N x k RatMatrix or,
    over a graph, a Coloring; a Coloring may omit S, which is then its
    quotient matrix, from the one scan that also proves it equitable."""

    host: object  # Graph or square RatMatrix
    values: object  # RatMatrix, or Coloring over a Graph host
    params: RatMatrix | None = None  # None: the quotient matrix of a Coloring

    def __post_init__(self):
        f, s = self.values, self.params
        if isinstance(f, Coloring):
            if not (isinstance(self.host, Graph) and self.host.same_adjacency(f.graph)):
                raise StructureError("coloring is over a different graph than the host")
            if s is None:
                object.__setattr__(self, "params", quotient_matrix(self.host, f))
                return
        elif s is None:
            raise ShapeError("matrix values need a parameter matrix")
        ok, residual = verify_structure(self.host, f, s)
        if not ok:
            rows = residual.to_strings()
            bad = next(i for i, row in enumerate(rows) if any(x != "0" for x in row))
            raise StructureError(
                f"values do not satisfy the defining equation; first nonzero "
                f"residual row {bad}: {rows[bad]}"
            )

    @property
    def graph(self) -> Graph:
        if not isinstance(self.host, Graph):
            raise EqpartError("structure is hosted by an explicit matrix, not a graph")
        return self.host

    @property
    def n_colors(self) -> int:
        return self.values.cols

    def value_matrix(self) -> RatMatrix:
        """The values as an N x k matrix (a coloring's indicator, built anew)."""
        f = self.values
        return f.indicator() if isinstance(f, Coloring) else f


def distance_coloring(g: Graph, code: Iterable[int]) -> Coloring:
    """Color every vertex by its distance to the set, read once (so a
    generator works) and in the given order, as BFS checks it."""
    dist = bfs_distances(g, read_ints(code, "code"))
    return Coloring(g, tuple(dist), max(dist) + 1)


def check_completely_regular(g: Graph, code: Iterable[int]) -> RatMatrix:
    """The quotient matrix R of the distance coloring of ``code``: the code
    is completely regular, with covering radius ``R.rows - 1``.  Raises
    NotEquitableError when the distance coloring is not equitable.  R is
    tridiagonal with no check: a neighbour of a vertex at distance i from
    the code is at distance i-1, i or i+1."""
    col = distance_coloring(g, code)
    return RatMatrix(_quotient_rows(g, col.colors, col.n_colors))


def lattice_coloring(
    m: int, k: int, q: int, load: Callable[[dict], Graph] = load_graph
) -> Coloring:
    """Block-sum coloring of the length-(m*k) Hamming graph over {0..q-1}.

    A word is split into m consecutive blocks of length k; its color is the
    coordinatewise sum of the blocks mod q, read as a vertex index of the
    length-k Hamming graph.  The quotient matrix is m times the adjacency
    matrix of that smaller graph, which ``load`` builds from its spec, as
    for :func:`load_coloring`.
    """
    from .distributions import _check_lattice

    _check_lattice(m, k, q)
    g = load({"gen": "hamming", "n": m * k, "q": q})
    # coordinate i of the block sum adds word[i], word[k + i], ... = word[i::k]
    colors = tuple(
        encode_word([sum(word[i::k]) % q for i in range(k)], q) for word in g.labels
    )
    return Coloring(g, colors, q**k)


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


def load_coloring(spec: dict, load: Callable[[dict], Graph] = load_graph) -> Coloring:
    """Read {"graph": <graph spec>, "colors": [c_0, ..., c_{N-1}]}.

    ``load``, a function from a graph spec to its Graph, builds the graph;
    a caller that keeps one graph per spec passes its own."""
    g = load(read_key(spec, "graph", "coloring file"))
    return coloring_from_list(g, read_key(spec, "colors", "coloring file"))


def read_structure(spec: dict, load: Callable[[dict], Graph] = load_graph) -> tuple:
    """Read the host, f and s of {"graph"|"matrix": ..., "f": [[...]],
    "s": [[...]]} with "p/q" entries, without checking A f = f S.

    Over a graph, unit rows that use every column are read as that Coloring
    (with a column unused they stay a matrix: no class of a Coloring is
    empty).  ``load`` builds a "graph" host, as for :func:`load_coloring`."""
    from .ratmat import from_json

    if isinstance(spec, dict) and "graph" in spec:
        host = load(spec["graph"])
    elif isinstance(spec, dict) and "matrix" in spec:
        host = from_json(spec["matrix"])
    else:
        raise EqpartError('structure file needs a "graph" or "matrix" key')
    f = from_json(read_key(spec, "f", "structure file"))
    s = from_json(read_key(spec, "s", "structure file"))
    if isinstance(host, Graph) and f.rows == host.n:
        colors = f.unit_columns()
        if colors is not None and len(set(colors)) == f.cols:
            f = Coloring(host, tuple(colors), f.cols)
    return host, f, s


def load_structure(spec: dict, load: Callable[[dict], Graph] = load_graph) -> PerfectStructure:
    """Read a structure file (see :func:`read_structure`); verification runs
    on construction."""
    return PerfectStructure(*read_structure(spec, load))
