"""Colorings on the graph route, kept as integer colour vectors.

Generated cases compare the counting oracle, colour-count verification and
the pair-colour product distribution with naive ``Fraction`` references and
with the generic matrix routes they replace; sizes are bounded (graphs of
1..8 vertices, products of at most 64).  A counting wrapper shows that the
graph-route commands build no matrix product, Kronecker product or
``Fraction`` row with one row per vertex when the values are a coloring.
"""
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eqpart
from eqpart.cli import main
from eqpart.equitable import (
    Coloring,
    PerfectStructure,
    coloring_from_list,
    distance_coloring,
    lattice_coloring,
    structure_from_coloring,
    tensor_params,
    trivial_coloring,
    verify_structure,
)
from eqpart.errors import StructureError
from eqpart.graphs import bfs_distances, graph_from_edges, hamming_graph
from eqpart.localdist import rearrange, tensor_distribution, tensor_structure
from eqpart.oracle import brute_distribution, brute_pair_distribution
from eqpart.ratmat import RatMatrix, tensor
from helpers import (
    fractions_of,
    ref_class_sums,
    ref_hamming_graph,
    ref_residual,
    ref_value_rows,
)

PROPS = settings(max_examples=60, deadline=None, database=None)

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


@st.composite
def connected_graphs(draw, max_n=8):
    """A random spanning tree on 1..max_n vertices plus random extra edges."""
    n = draw(st.integers(1, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = list(itertools.combinations(range(n), 2))
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
    return graph_from_edges(n, sorted(edges))


@st.composite
def colorings(draw, g):
    """A random coloring of g, its colours renumbered 0..k-1 in order of
    first use so that no class is empty; mostly not equitable."""
    raw = draw(st.lists(st.integers(0, 3), min_size=g.n, max_size=g.n))
    order = {c: i for i, c in enumerate(dict.fromkeys(raw))}
    return coloring_from_list(g, [order[c] for c in raw])


def rational_matrix(draw, rows, cols):
    return RatMatrix(draw(st.lists(st.lists(rationals, min_size=cols, max_size=cols),
                                   min_size=rows, max_size=rows)))


@st.composite
def values_over(draw, g):
    """Per-vertex values over g: a coloring, a raw RatMatrix of random
    rationals, the indicator of a coloring as a raw matrix, or a perfect
    structure (a trivial coloring, or one mixed by a polynomial in S)."""
    kind = draw(st.sampled_from(["coloring", "rational", "indicator", "structure", "mixed"]))
    if kind == "coloring":
        return draw(colorings(g))
    if kind == "rational":
        return rational_matrix(draw, g.n, draw(st.integers(1, 4)))
    if kind == "indicator":
        return draw(colorings(g)).indicator()
    return draw(structures(g, mixed=kind == "mixed"))


@st.composite
def structures(draw, g, mixed):
    """structure_from_coloring of the trivial coloring of g (S = A), or, when
    ``mixed``, its values times T = S + cI, which commutes with S, so that
    A (f T) = (f T) S: a perfect structure whose rows are not unit vectors."""
    f = structure_from_coloring(g, trivial_coloring(g))
    if not mixed:
        return f
    c = draw(rationals)
    t = f.params + RatMatrix.identity(g.n).scale(c)
    return PerfectStructure(g, f.value_matrix() @ t, f.params)


@PROPS
@given(st.data())
def test_oracle_equals_the_naive_fraction_sums(data):
    g = data.draw(connected_graphs())
    f = data.draw(values_over(g))
    code = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=3))
    dist = bfs_distances(g, code)
    expect = ref_class_sums(dist, max(dist) + 1, ref_value_rows(f))
    assert fractions_of(brute_distribution(g, code, f)) == expect


@PROPS
@given(st.data())
def test_pair_oracle_equals_the_naive_fraction_sums(data):
    g = data.draw(connected_graphs())
    gcol = data.draw(colorings(g))
    f = data.draw(values_over(g))
    expect = ref_class_sums(gcol.colors, gcol.n_colors, ref_value_rows(f))
    assert fractions_of(brute_pair_distribution(g, gcol, f)) == expect


@PROPS
@given(st.data())
def test_colour_count_verification_equals_the_generic_residual(data):
    g = data.draw(connected_graphs())
    col = data.draw(colorings(g))
    k = col.n_colors
    if data.draw(st.booleans()):
        # the neighbour counts of each colour's first vertex: equitable
        # colorings verify, the others fail on some later vertex
        firsts = [col.colors.index(i) for i in range(k)]
        s = RatMatrix([[sum(col.colors[u] == j for u in g.adj[v]) for j in range(k)]
                       for v in firsts])
    else:
        s = rational_matrix(data.draw, k, k)
    f = col.indicator()
    ok, residual = verify_structure(g, f, s)
    expect = ref_residual(g, fractions_of(f), fractions_of(s))
    assert fractions_of(residual) == expect
    assert ok == all(x == 0 for row in expect for x in row)
    assert (ok, residual) == verify_structure(g.adjacency_matrix(), f, s)
    if not ok:
        bad = next(v for v, row in enumerate(expect) if any(row))
        with pytest.raises(StructureError, match=f"first nonzero residual row {bad}:"):
            PerfectStructure(g, f, s)


def test_colour_count_verification_accepts_every_equitable_coloring():
    g = hamming_graph(4, 2)
    even_weight = [v for v in range(16) if bin(v).count("1") % 2 == 0]
    for code in ([0], [0, 15], even_weight):
        col = distance_coloring(g, code)
        s = structure_from_coloring(g, col).params
        zero = RatMatrix.zeros(g.n, col.n_colors)
        assert verify_structure(g, col.indicator(), s) == (True, zero)


@st.composite
def factors(draw):
    """A perfect coloring of a small graph, as a structure: a distance
    coloring of H(n, q) or the trivial coloring of a random connected graph."""
    if draw(st.booleans()):
        n, q = draw(st.sampled_from([(1, 2), (2, 2), (3, 2), (1, 3)]))
        g = hamming_graph(n, q)
        col = distance_coloring(g, [draw(st.integers(0, g.n - 1))])
    else:
        g = draw(connected_graphs(max_n=4))
        col = trivial_coloring(g)
    return structure_from_coloring(g, col)


@PROPS
@given(st.data())
def test_pair_colour_product_distribution_equals_the_kronecker_route(data):
    g1, g2 = data.draw(factors()), data.draw(factors())
    prod = tensor_structure(g1, g2)
    f = data.draw(structures(prod.graph, mixed=data.draw(st.booleans())))
    rd = tensor_distribution(g1, g2, f)
    h = tensor(g1.value_matrix(), g2.value_matrix()).transpose() @ f.value_matrix()
    assert rd.h == h
    assert rd.h_star == rearrange(h, g1.n_colors, g2.n_colors)


@PROPS
@given(st.data())
def test_product_of_two_colorings_is_the_pair_coloring(data):
    g1, g2 = data.draw(factors()), data.draw(factors())
    prod = tensor_structure(g1, g2)
    assert isinstance(prod.values, Coloring)
    assert prod.value_matrix() == tensor(g1.value_matrix(), g2.value_matrix())
    assert prod.params == tensor_params(g1.params, g2.params)
    k2 = g2.n_colors
    assert prod.values.colors == tuple(
        c1 * k2 + c2 for c1 in g1.values.colors for c2 in g2.values.colors)


def test_product_of_a_coloring_and_a_structure_stays_kronecker():
    g = hamming_graph(2, 2)
    col = structure_from_coloring(g, distance_coloring(g, [0]))
    t = col.params + RatMatrix.identity(3).scale(Fraction(1, 2))
    mixed = PerfectStructure(g, col.value_matrix() @ t, col.params)
    prod = tensor_structure(col, mixed)
    assert prod.values == tensor(col.value_matrix(), mixed.values)


def test_lattice_coloring_is_the_block_sum_of_each_label():
    c = lattice_coloring(2, 2, 3)
    for word, color in zip(c.graph.labels, c.colors):
        block_sum = [(word[0] + word[2]) % 3, (word[1] + word[3]) % 3]
        assert color == block_sum[0] * 3 + block_sum[1]


@pytest.mark.parametrize("n,q", [(n, q) for n in range(1, 9) for q in range(2, 5)])
def test_hamming_graph_equals_the_reference_construction(n, q):
    g = hamming_graph(n, q)
    assert (g.labels, g.adj) == ref_hamming_graph(n, q)


# -- no per-vertex matrix work on a coloring ----------------------------------------


@pytest.fixture
def operand_rows(monkeypatch):
    """The row counts of every operand of RatMatrix.__matmul__ and of
    ``tensor``, and how many Fraction rows ``RatMatrix.row`` built."""
    seen = {"operands": [], "rows_read": 0}
    matmul, read_row = RatMatrix.__matmul__, RatMatrix.row

    def counting_matmul(a, b):
        seen["operands"] += [a.rows, b.rows]
        return matmul(a, b)

    def counting_tensor(a, b):
        seen["operands"] += [a.rows, b.rows]
        return tensor(a, b)

    def counting_row(m, i):
        seen["rows_read"] += 1
        return read_row(m, i)

    monkeypatch.setattr(RatMatrix, "__matmul__", counting_matmul)
    monkeypatch.setattr(RatMatrix, "row", counting_row)
    for module in (eqpart.ratmat, eqpart.equitable, eqpart.localdist):
        monkeypatch.setattr(module, "tensor", counting_tensor)
    return seen


def write(tmp_path, name, doc) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def ham(n):
    return {"gen": "hamming", "n": n, "q": 2}


def weights(n):
    return [bin(v).count("1") for v in range(2**n)]


def graph_route_commands(tmp_path):
    """(argv, vertex count) of the graph-route commands, each on a coloring."""
    h7, h5, h8 = write(tmp_path, "h7.json", ham(7)), write(tmp_path, "h5.json", ham(5)), \
        write(tmp_path, "h8.json", ham(8))
    w7 = write(tmp_path, "w7.json", {"graph": ham(7), "colors": weights(7)})
    w8 = write(tmp_path, "w8.json", {"graph": ham(8), "colors": weights(8)})
    w5 = write(tmp_path, "w5.json", {"graph": ham(5), "colors": weights(5)})
    prod = {"gen": "product", "left": ham(5), "right": ham(5)}
    wp = write(tmp_path, "wp.json", {"graph": prod, "colors": weights(10)})
    fiber = {"gen": "product", "left": ham(3), "right": ham(5)}
    wf = write(tmp_path, "wf.json", {"graph": fiber, "colors": [v % 32 for v in range(256)]})
    lat = write(tmp_path, "lat.json", {"graph": ham(6), "colors": weights(6)})
    rep = write(tmp_path, "rep.json", [0, 255])
    return {
        "vertex": (["distrib", "vertex", "--graph", h7, "--coloring", w7, "--color", "2",
                    "--verify-oracle"], 128),
        "code": (["distrib", "code", "--graph", h8, "--code", rep, "--coloring", w8,
                  "--verify-oracle"], 256),
        "lattice": (["distrib", "lattice", "-m", "2", "-k", "3", "-q", "2", "--coloring", lat,
                     "--verify-oracle"], 64),
        "fiber": (["distrib", "fiber", "--left", write(tmp_path, "h3.json", ham(3)),
                   "--right", h5, "--coloring", wf, "--verify-oracle"], 256),
        "quotient": (["quotient", "--graph", h8, "--coloring", w8], 256),
        "crc-check": (["crc-check", "--graph", h8, "--code", rep], 256),
        "local distrib": (["local", "distrib", "--left", w5, "--right", w5, "--coloring", wp],
                          1024),
    }


@pytest.mark.parametrize("command", ["vertex", "code", "lattice", "fiber", "quotient",
                                     "crc-check", "local distrib"])
def test_graph_route_builds_no_per_vertex_matrix_on_a_coloring(
        command, operand_rows, tmp_path, capsys):
    argv, n = graph_route_commands(tmp_path)[command]
    assert main(argv) == 0, capsys.readouterr().err
    assert all(rows < n for rows in operand_rows["operands"])
    assert operand_rows["rows_read"] < n


def test_the_counting_wrapper_sees_the_kronecker_route_of_a_structure(operand_rows):
    g = hamming_graph(3, 2)
    f = structure_from_coloring(g, distance_coloring(g, [0]))
    mixed = PerfectStructure(g, f.value_matrix() @ (f.params + RatMatrix.identity(4)), f.params)
    tensor_structure(f, mixed)
    assert 64 in operand_rows["operands"]


def test_a_coloring_built_by_hand_counts_like_its_indicator():
    g = hamming_graph(3, 2)
    col = Coloring(g, tuple(weights(3)), 4)
    assert brute_distribution(g, [0], col) == brute_distribution(g, [0], col.indicator())
