from fractions import Fraction

import pytest

from eqpart.codes import extended_hamming_code_vertices, hamming_code_vertices
from eqpart.equitable import (
    Coloring,
    PerfectStructure,
    all_one_coloring,
    check_completely_regular,
    coloring_from_list,
    distance_coloring,
    fiber_coloring,
    lattice_coloring,
    load_coloring,
    load_structure,
    quotient_matrix,
    tensor_params,
    verify_structure,
)
from eqpart.errors import (
    EqpartError,
    NotEquitableError,
    ShapeError,
    StructureError,
)
from eqpart.graphs import (
    bfs_distances,
    direct_product,
    graph_from_edges,
    hamming_graph,
    johnson_graph,
)
from eqpart.ratmat import RatMatrix, from_json
from helpers import coloring_to_json


def test_quotient_all_one_color():
    g = johnson_graph(5, 2)  # 6-regular
    assert quotient_matrix(g, all_one_coloring(g)) == from_json([[6]])


def test_quotient_vertex_coloring_of_3ary_2cube():
    g = hamming_graph(2, 3)
    col = distance_coloring(g, [0])
    assert quotient_matrix(g, col) == from_json([[0, 4, 0], [1, 1, 2], [0, 2, 2]])


def test_quotient_proper_2coloring_of_k2():
    g = hamming_graph(1, 2)
    col = coloring_from_list(g, [0, 1])
    assert quotient_matrix(g, col) == from_json([[0, 1], [1, 0]])


def test_quotient_trivial_coloring_is_adjacency():
    g = johnson_graph(4, 2)
    assert quotient_matrix(g, Coloring(g, tuple(range(g.n)), g.n)) == g.adjacency_matrix()


def test_quotient_not_equitable_witness():
    g = hamming_graph(3, 2)
    # vertex set {000, 011, 101} is not completely regular
    code = [0, 0b011, 0b101]
    col = distance_coloring(g, code)
    with pytest.raises(NotEquitableError) as err:
        quotient_matrix(g, col)
    assert err.value.witness == (1, 2)
    assert err.value.profiles[0] != err.value.profiles[1]


def test_coloring_validation():
    g = hamming_graph(1, 2)
    with pytest.raises(EqpartError):
        Coloring(g, (0, 2), 3)  # class 1 empty
    with pytest.raises(ShapeError):
        Coloring(g, (0,), 1)


def test_verify_structure_all_ones():
    g = hamming_graph(2, 2)
    ok, residual = verify_structure(g, from_json([[1]] * 4), from_json([[2]]))
    assert ok and residual.is_zero()


def test_verify_structure_code_eigenfunction():
    g = hamming_graph(7, 2)
    members = set(hamming_code_vertices(3))
    values = from_json([[7 if v in members else -1] for v in range(g.n)])
    ok, _ = verify_structure(g, values, from_json([[-1]]))
    assert ok


def test_verify_structure_perturbation_fails():
    g = hamming_graph(2, 3)
    col = distance_coloring(g, [0])
    f = col.indicator()
    s = quotient_matrix(g, col)
    rows = [list(f.row(v)) for v in range(g.n)]
    rows[4][0] += 1
    ok, residual = verify_structure(g, RatMatrix(rows), s)
    assert not ok
    assert any(x != 0 for row in residual for x in row)


def test_verify_structure_over_explicit_matrix():
    a = from_json([[0, 2], [2, 0]])
    f = from_json([[1], [1]])
    ok, _ = verify_structure(a, f, from_json([[2]]))
    assert ok


def test_perfect_structure_rejects_bad_input():
    g = hamming_graph(2, 2)
    with pytest.raises(StructureError):
        PerfectStructure(g, from_json([[1], [1], [1], [2]]), from_json([[2]]))


def test_distance_coloring_classes():
    g = hamming_graph(2, 3)
    col = distance_coloring(g, [0])
    assert col.class_sizes() == [1, 4, 4]
    assert col == Coloring(g, (0, 1, 1, 1, 2, 2, 1, 2, 2), 3)

    whole = distance_coloring(g, range(g.n))
    assert whole.n_colors == 1

    g7 = hamming_graph(7, 2)
    col7 = distance_coloring(g7, hamming_code_vertices(3))
    assert col7.class_sizes() == [16, 112]


def test_check_completely_regular_code_params():
    g = hamming_graph(7, 2)
    r = check_completely_regular(g, hamming_code_vertices(3))
    assert r.rows - 1 == 1
    assert r == from_json([[0, 7], [1, 6]])

    g8 = hamming_graph(8, 2)
    r8 = check_completely_regular(g8, extended_hamming_code_vertices(3))
    assert r8.rows - 1 == 2
    assert r8 == from_json([[0, 8, 0], [1, 0, 7], [0, 8, 0]])

    # R is the quotient matrix of the distance coloring, for a list and for a
    # generator, which is read once
    for code, again in ((hamming_code_vertices(3), hamming_code_vertices(3)), (iter([0]), [0])):
        r = check_completely_regular(g, code)
        assert isinstance(r, RatMatrix) and r == quotient_matrix(g, distance_coloring(g, again))


def test_crc_superdiagonal_entries_nonzero():
    cases = [
        (hamming_graph(7, 2), hamming_code_vertices(3)),
        (hamming_graph(8, 2), extended_hamming_code_vertices(3)),
        (hamming_graph(3, 3), [0]),
        (johnson_graph(5, 2), [0]),
    ]
    for g, code in cases:
        r = check_completely_regular(g, code)
        for i in range(r.rows - 1):
            assert r[i, i + 1] != 0


def test_check_completely_regular_rejects_non_code():
    g = hamming_graph(3, 2)
    with pytest.raises(NotEquitableError):
        check_completely_regular(g, [0, 0b011, 0b101])


def test_quotient_round_trip_and_row_sums():
    cases = [
        (hamming_graph(2, 3), distance_coloring(hamming_graph(2, 3), [0])),
        (johnson_graph(4, 2), distance_coloring(johnson_graph(4, 2), [0])),
        (hamming_graph(3, 2), all_one_coloring(hamming_graph(3, 2))),
    ]
    for g, col in cases:
        s = quotient_matrix(g, col)
        ok, _ = verify_structure(g, col.indicator(), s)
        assert ok
        degree = g.degree(0)
        for i in range(s.rows):
            assert sum(s.row(i)) == degree


def test_class_size_balance():
    # edge double counting: n_i S_ij == n_j S_ji
    g = hamming_graph(4, 2)
    col = distance_coloring(g, [0, 15])
    s = quotient_matrix(g, col)
    sizes = col.class_sizes()
    for i in range(s.rows):
        for j in range(s.cols):
            assert sizes[i] * s[i, j] == sizes[j] * s[j, i]


def test_lattice_coloring_m2_k1_q2():
    col = lattice_coloring(2, 1, 2)
    assert col.class_vertices(0) == [0, 3]  # words 00 and 11
    s = quotient_matrix(col.graph, col)
    assert s == from_json([[0, 2], [2, 0]])


def test_lattice_coloring_quotient_is_m_times_adjacency():
    for m, k, q in [(2, 2, 2), (3, 1, 2), (2, 1, 3), (1, 2, 3)]:
        col = lattice_coloring(m, k, q)
        s = quotient_matrix(col.graph, col)
        assert s == hamming_graph(k, q).adjacency_matrix().scale(m)


def test_lattice_distance_property():
    # distance to the zero class equals the small-cube distance of the block sum
    col = lattice_coloring(2, 2, 2)
    g = col.graph
    small = hamming_graph(2, 2)
    dist = bfs_distances(g, col.class_vertices(0))
    small_dist = bfs_distances(small, [0])
    for v in range(g.n):
        assert dist[v] == small_dist[col.colors[v]]


def test_fiber_coloring_cases():
    k2 = hamming_graph(1, 2)
    col = fiber_coloring(k2, k2)
    assert quotient_matrix(col.graph, col) == from_json([[1, 1], [1, 1]])

    k3 = hamming_graph(1, 3)
    col = fiber_coloring(k3, k3)
    expect = k3.adjacency_matrix() + RatMatrix.identity(3).scale(2)
    assert quotient_matrix(col.graph, col) == expect

    single = graph_from_edges(1, [])
    col = fiber_coloring(johnson_graph(4, 2), single)
    assert quotient_matrix(col.graph, col) == from_json([[4]])

    not_regular = graph_from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(EqpartError):
        fiber_coloring(not_regular, k2)


def test_tensor_params_shape():
    r1 = from_json([[0, 1], [1, 0]])
    r2 = from_json([[2]])
    assert tensor_params(r1, r2) == from_json([[2, 1], [1, 2]])


def test_coloring_json_roundtrip():
    g = hamming_graph(2, 3)
    col = distance_coloring(g, [0])
    doc = coloring_to_json(col)
    again = load_coloring(doc)
    assert again.colors == col.colors
    assert again.graph.same_adjacency(g)


def test_load_structure_from_json():
    doc = {
        "graph": {"gen": "hamming", "n": 1, "q": 2},
        "f": [["1"], ["1"]],
        "s": [["1"]],
    }
    struct = load_structure(doc)
    assert struct.params == from_json([[1]])
    with pytest.raises(EqpartError):
        load_structure({"f": [[1]], "s": [[1]]})


def test_structure_over_matrix_host():
    # value matrices over explicit square hosts, not graphs
    a = from_json([[0, 1], [1, 0]])
    struct = PerfectStructure(a, from_json([[1], [1]]), from_json([[1]]))
    with pytest.raises(EqpartError):
        struct.graph
