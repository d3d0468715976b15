import random

import pytest

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
    distances_from_set,
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
    dist, rho = distances_from_set(g, range(g.n))
    assert rho == 0 and set(dist) == {0}

    dist, rho = distances_from_set(g, [0])
    assert rho == 2
    sizes = [dist.count(w) for w in range(3)]
    assert sizes == [1, 4, 4]

    from eqpart.codes import hamming_code_vertices

    g7 = hamming_graph(7, 2)
    dist, rho = distances_from_set(g7, hamming_code_vertices(3))
    assert rho == 1
    assert dist.count(0) == 16 and dist.count(1) == 112


def test_distances_errors():
    g = hamming_graph(2, 2)
    with pytest.raises(EqpartError):
        distances_from_set(g, [])
    disconnected = graph_from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(UnreachableVertexError):
        distances_from_set(disconnected, [0])


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
