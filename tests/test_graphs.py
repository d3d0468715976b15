import hashlib
import itertools
import json
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from eqpart import graphs
from eqpart.cli import main
from eqpart.equitable import distance_coloring
from eqpart.errors import (
    EqpartError,
    UnreachableVertexError,
    VertexBudgetError,
)
from eqpart.graphs import (
    Graph,
    bfs_distances,
    decode_word,
    direct_product,
    encode_word,
    graph_from_edges,
    graph_to_json,
    halved_cube,
    hamming_graph,
    johnson_graph,
    load_graph,
)
from eqpart.ratmat import RatMatrix, tensor

from helpers import diameter, distance_w_sum


def hamming_distance(a, b):
    return sum(1 for x, y in zip(a, b) if x != y)


def random_connected_graph(rng, n, extra=3):
    edges = [(i, rng.randint(0, i - 1)) for i in range(1, n)]
    while len(edges) < n - 1 + extra:
        u, v = rng.randint(0, n - 1), rng.randint(0, n - 1)
        if u != v and (min(u, v), max(u, v)) not in {(min(a, b), max(a, b)) for a, b in edges}:
            edges.append((u, v))
    return graph_from_edges(n, edges)


def test_graph_from_edges_validation():
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    assert g.adj == ((1,), (0, 2), (1,))
    with pytest.raises(EqpartError):
        graph_from_edges(2, [(0, 0)])
    with pytest.raises(EqpartError):
        graph_from_edges(2, [(0, 1), (1, 0)])
    with pytest.raises(EqpartError):
        graph_from_edges(2, [(0, 5)])


def test_hamming_graph_small():
    k2 = hamming_graph(1, 2)
    assert k2.n == 2 and k2.n_edges() == 1

    g = hamming_graph(2, 3)
    assert g.n == 9
    assert set(g.degrees()) == {4}
    assert diameter(g) == 2

    g7 = hamming_graph(7, 2)
    assert g7.n == 128
    assert set(g7.degrees()) == {7}


def test_hamming_graph_distance_is_word_distance():
    g = hamming_graph(3, 3)
    for v in range(g.n):
        dist = bfs_distances(g, [v])
        for u in range(g.n):
            assert dist[u] == hamming_distance(g.labels[u], g.labels[v])


def test_hamming_word_encoding_most_significant_first():
    assert decode_word(5, 2, 3) == (1, 2)
    assert encode_word((1, 2), 3) == 5
    g = hamming_graph(2, 3)
    assert g.labels[5] == (1, 2)


def test_hamming_rejects_bad_parameters():
    with pytest.raises(EqpartError):
        hamming_graph(0, 2)
    with pytest.raises(EqpartError):
        hamming_graph(2, 1)
    with pytest.raises(VertexBudgetError):
        hamming_graph(10, 2, budget=100)


def test_johnson_graph_small():
    assert johnson_graph(2, 1).n == 2
    assert johnson_graph(2, 1).n_edges() == 1

    g = johnson_graph(4, 2)
    assert g.n == 6
    assert set(g.degrees()) == {4}

    g52 = johnson_graph(5, 2)
    assert g52.n == 10
    assert set(g52.degrees()) == {6}
    with pytest.raises(EqpartError):
        johnson_graph(3, 4)


def test_johnson_adjacency_is_symmetric_difference_2():
    g = johnson_graph(5, 2)
    for u in range(g.n):
        for v in g.adj[u]:
            assert len(set(g.labels[u]) ^ set(g.labels[v])) == 2


def test_johnson_distance_is_support_defect():
    for n, k in [(5, 2), (6, 3)]:
        g = johnson_graph(n, k)
        for u in range(g.n):
            dist = bfs_distances(g, [u])
            for v in range(g.n):
                assert dist[v] == k - len(set(g.labels[u]) & set(g.labels[v]))


def test_halved_cube_small():
    g2 = halved_cube(2, "even")
    assert g2.n == 2 and g2.n_edges() == 1

    g4 = halved_cube(4, "even")
    assert g4.n == 8
    assert set(g4.degrees()) == {6}

    godd = halved_cube(4, "odd")
    assert godd.n == 8
    assert all(sum(lbl) % 2 == 1 for lbl in godd.labels)
    with pytest.raises(EqpartError):
        halved_cube(1)
    with pytest.raises(EqpartError):
        halved_cube(4, "both")


def test_halved_cube_distances_are_half_cube_distances():
    cube = hamming_graph(5, 2)
    word_index = {lbl: v for v, lbl in enumerate(cube.labels)}
    for parity in ("even", "odd"):
        g = halved_cube(5, parity)
        for v in range(g.n):
            dist = bfs_distances(g, [v])
            cube_dist = bfs_distances(cube, [word_index[g.labels[v]]])
            for u in range(g.n):
                assert 2 * dist[u] == cube_dist[word_index[g.labels[u]]]


def test_direct_product_of_edges_is_4cycle():
    k2 = hamming_graph(1, 2)
    c4 = direct_product(k2, k2)
    assert c4.same_adjacency(hamming_graph(2, 2))


def test_direct_product_index_compatible_with_hamming():
    for m, k, q in [(1, 2, 2), (2, 1, 3), (2, 2, 2), (1, 3, 3)]:
        left, right = hamming_graph(m, q), hamming_graph(k, q)
        assert direct_product(left, right).same_adjacency(hamming_graph(m + k, q))


def test_direct_product_adjacency_matrix_identity():
    rng = random.Random(23)
    g1 = random_connected_graph(rng, 5)
    g2 = random_connected_graph(rng, 5)
    a1, a2 = g1.adjacency_matrix(), g2.adjacency_matrix()
    ident = RatMatrix.identity(5)
    expect = tensor(a1, ident) + tensor(ident, a2)
    assert direct_product(g1, g2).adjacency_matrix() == expect


def test_direct_product_distances_add():
    rng = random.Random(29)
    g1 = random_connected_graph(rng, 6)
    g2 = random_connected_graph(rng, 7)
    prod = direct_product(g1, g2)
    d1 = [bfs_distances(g1, [v]) for v in range(g1.n)]
    d2 = [bfs_distances(g2, [v]) for v in range(g2.n)]
    for u in range(prod.n):
        dist = bfs_distances(prod, [u])
        for v in range(prod.n):
            u1, u2 = divmod(u, g2.n)
            v1, v2 = divmod(v, g2.n)
            assert dist[v] == d1[u1][v1] + d2[u2][v2]


def test_handshake_on_generators():
    for g in (hamming_graph(3, 2), johnson_graph(5, 2), halved_cube(4)):
        assert sum(g.degrees()) == 2 * g.n_edges()


def test_distances_from_set():
    g = hamming_graph(2, 3)
    dist = bfs_distances(g, range(g.n))
    assert max(dist) == 0 and set(dist) == {0}

    dist = bfs_distances(g, [0])
    assert max(dist) == 2
    sizes = [dist.count(w) for w in range(3)]
    assert sizes == [1, 4, 4]

    from eqpart.codes import hamming_code_vertices

    g7 = hamming_graph(7, 2)
    dist = bfs_distances(g7, hamming_code_vertices(3))
    assert max(dist) == 1
    assert dist.count(0) == 16 and dist.count(1) == 112


def test_distances_errors():
    g = hamming_graph(2, 2)
    with pytest.raises(EqpartError):
        bfs_distances(g, [])
    disconnected = graph_from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(UnreachableVertexError):
        bfs_distances(disconnected, [0])


def test_distance_w_sum():
    g = hamming_graph(3, 2)
    from eqpart.equitable import all_one_coloring

    ones = all_one_coloring(g)
    assert distance_w_sum(g, 0, 0, ones.indicator()) == (1,)
    assert distance_w_sum(g, 0, 2, ones) == (3,)

    g23 = hamming_graph(2, 3)
    vcol = distance_coloring(g23, [0])
    assert distance_w_sum(g23, 0, 1, vcol.indicator()) == (0, 4, 0)
    with pytest.raises(EqpartError):
        distance_w_sum(g23, 0, 9, vcol.indicator())


def test_graph_json_roundtrip():
    g = load_graph({"gen": "hamming", "n": 2, "q": 3})
    assert g.same_adjacency(hamming_graph(2, 3))
    g = load_graph({"gen": "johnson", "n": 4, "k": 2})
    assert g.same_adjacency(johnson_graph(4, 2))
    g = load_graph({"gen": "halved", "n": 4, "sign": "odd"})
    assert g.same_adjacency(halved_cube(4, "odd"))
    prod = load_graph(
        {"gen": "product", "left": {"gen": "hamming", "n": 1, "q": 2}, "right": {"gen": "hamming", "n": 1, "q": 2}}
    )
    assert prod.same_adjacency(hamming_graph(2, 2))

    doc = graph_to_json(hamming_graph(2, 2))
    again = load_graph(doc)
    assert again.same_adjacency(hamming_graph(2, 2))
    with pytest.raises(EqpartError):
        load_graph({"gen": "mystery"})


def test_load_graph_budget():
    with pytest.raises(VertexBudgetError):
        load_graph({"gen": "hamming", "n": 8, "q": 2}, budget=100)


# -- one int per vertex, words decoded on demand ------------------------------


def many_vertex_edge_list():
    """A 600-cycle with chords, read from JSON as the CLI reads it, so that
    every vertex id above 256 arrives as a fresh int in each edge."""
    edges = [[v, (v + 1) % 600] for v in range(600)] + [[v, v + 300] for v in range(0, 300, 7)]
    return load_graph(json.loads(json.dumps({"n_vertices": 600, "edges": edges})))


SHARED_ID_GRAPHS = {
    "H(10,2)": lambda: hamming_graph(10, 2),
    "H(3,3)": lambda: hamming_graph(3, 3),
    "halved(9,even)": lambda: halved_cube(9, "even"),
    "halved(9,odd)": lambda: halved_cube(9, "odd"),
    "J(8,4)": lambda: johnson_graph(8, 4),
    "H(3,2)xH(5,2)": lambda: direct_product(hamming_graph(3, 2), hamming_graph(5, 2)),
    "H(3,2)xH(6,2)": lambda: direct_product(hamming_graph(3, 2), hamming_graph(6, 2)),
    "edges(600)": many_vertex_edge_list,
}


@pytest.mark.parametrize("make", list(SHARED_ID_GRAPHS.values()), ids=list(SHARED_ID_GRAPHS))
def test_adjacency_rows_share_one_int_per_vertex(make):
    g = make()
    assert len({id(u) for row in g.adj for u in row}) == g.n


def old_hamming_words(n, q):
    return tuple(itertools.product(range(q), repeat=n))


def old_halved_words(n, parity):
    want = 0 if parity == "even" else 1
    words = [w for w in range(2**n) if bin(w).count("1") % 2 == want]
    return tuple(tuple((w >> (n - 1 - i)) & 1 for i in range(n)) for w in words)


# (generator, its arguments, the labels it gave as a tuple)
LABELLED = [(hamming_graph, (n, q), old_hamming_words)
            for n, q in [(1, 2), (3, 2), (7, 2), (2, 3), (4, 3), (3, 4)]]
LABELLED += [(halved_cube, (n, parity), old_halved_words)
             for n in range(2, 11) for parity in ("even", "odd")]


@pytest.mark.parametrize("make, args, old", LABELLED,
                         ids=[f"{make.__name__}{args}" for make, args, _ in LABELLED])
def test_word_labels_read_as_the_tuple_of_words(make, args, old):
    g, words = make(*args), old(*args)
    labels = g.labels
    assert len(labels) == len(words) == g.n
    assert [labels[v] for v in range(g.n)] == list(words)
    assert [labels[v] for v in range(-g.n, 0)] == list(words)
    assert list(labels) == list(words) and tuple(labels) == words
    assert labels[1:-1:3] == words[1:-1:3]
    assert labels == words and words == labels and not labels != words
    assert labels != words[:-1] and words[:-1] != labels
    assert hash(labels) == hash(words)
    again = make(*args)
    assert again == g and hash(again) == hash(g)
    assert pickle.loads(pickle.dumps(labels)) == labels
    assert pickle.loads(pickle.dumps(g)) == g
    for i in (g.n, -g.n - 1):
        with pytest.raises(IndexError):
            labels[i]


def test_word_labels_of_different_graphs_differ():
    assert hamming_graph(3, 2).labels != halved_cube(4).labels
    assert halved_cube(6, "even").labels != halved_cube(6, "odd").labels
    assert hamming_graph(2, 3).labels != hamming_graph(3, 2).labels
    assert hamming_graph(2, 2).labels != list(old_hamming_words(2, 2))


# sha256 of the stdout of ``eqpart gen``, recorded while labels were tuples
GEN_GOLDEN = {
    ("hamming", "-n", "4", "-q", "3"):
        (4336, "a6557561d65e96b8fe5da8fc57e1873500ba6af122f35b618cd3d5ef192039cb"),
    ("halved", "-n", "6", "--sign", "odd"):
        (2932, "e2b53279a3cdde05a0314952175821622181aab38fdc34a7a9e32615652412d6"),
}


@pytest.mark.parametrize("argv", list(GEN_GOLDEN), ids=" ".join)
def test_gen_output_is_unchanged(capsys, argv):
    assert main(["gen", *argv]) == 0
    out = capsys.readouterr().out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == GEN_GOLDEN[argv]


def test_product_budget_is_checked_before_its_factors_are_built(monkeypatch):
    built = []

    def counting_hamming_graph(*args):
        built.append(args)
        return hamming_graph(*args)

    monkeypatch.setattr(graphs, "hamming_graph", counting_hamming_graph)
    h18, h3 = {"gen": "hamming", "n": 18, "q": 2}, {"gen": "hamming", "n": 3, "q": 2}
    product = {"gen": "product", "left": h18, "right": h3}
    with pytest.raises(VertexBudgetError, match="^2097152 vertices exceeds the budget of 1048576$"):
        load_graph(product)
    nested = {"gen": "product", "left": h3, "right": {"gen": "product", "left": h18, "right": h3}}
    with pytest.raises(VertexBudgetError, match="^2097152 vertices exceeds the budget of 1048576$"):
        load_graph(nested)
    # a factor past the budget is reported as building it would report it
    far = {"gen": "product", "left": h3, "right": {"gen": "hamming", "n": 10**8, "q": 2}}
    with pytest.raises(VertexBudgetError, match="vertices of H\\(100000000,2\\) exceeds"):
        load_graph(far)
    with pytest.raises(EqpartError, match="hamming graph needs n >= 1"):
        load_graph({"gen": "product", "left": {"gen": "hamming", "n": 0, "q": 2}, "right": h18})
    assert built == []
    assert load_graph({"gen": "product", "left": h3, "right": h3}).n == 64
    assert len(built) == 2


GROWTH_PROBE = """
import resource
from eqpart.graphs import hamming_graph
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
g = hamming_graph(16, 2)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
def test_building_h16_adds_under_30_mb():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", GROWTH_PROBE], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert int(proc.stdout) < 30 * 1024
