import tracemalloc
from fractions import Fraction

import pytest

from eqpart.codes import hamming_code_vertices
from eqpart.equitable import (
    Coloring,
    PerfectStructure,
    all_one_coloring,
    distance_coloring,
    lattice_coloring,
    trivial_coloring,
)
from eqpart.errors import ShapeError
from eqpart.graphs import hamming_graph
from eqpart.oracle import brute_distribution, brute_pair_distribution
from eqpart.ratmat import from_json


def test_whole_vertex_set_gives_column_sums():
    g = hamming_graph(2, 3)
    col = distance_coloring(g, [0])
    rows = brute_distribution(g, range(g.n), col)
    assert rows == from_json([[1, 4, 4]])


def test_vertex_code_on_own_coloring_is_diagonal():
    g = hamming_graph(2, 3)
    col = distance_coloring(g, [0])
    assert brute_distribution(g, [0], col) == from_json(
        [[1, 0, 0], [0, 4, 0], [0, 0, 4]]
    )


def test_eigenfunction_rows():
    g = hamming_graph(7, 2)
    code = hamming_code_vertices(3)
    members = set(code)
    values = from_json([[7 if v in members else -1] for v in range(g.n)])
    struct = PerfectStructure(g, values, from_json([[-1]]))
    assert brute_distribution(g, code, struct) == from_json([[112], [-112]])


def test_pair_distribution_diagonal_for_same_coloring():
    g = hamming_graph(2, 3)
    col = distance_coloring(g, [0])
    assert brute_pair_distribution(g, col, col) == from_json(
        [[1, 0, 0], [0, 4, 0], [0, 0, 4]]
    )


def test_pair_distribution_trivial_coloring_recovers_values():
    g = hamming_graph(2, 2)
    triv = trivial_coloring(g)
    col = distance_coloring(g, [0])
    table = brute_pair_distribution(g, triv, col)
    assert table == col.indicator()


def test_pair_distribution_lattice_vs_vertex():
    # four vertices enumerated by hand: 00 and 11 share the lattice color 0
    g = hamming_graph(2, 2)
    lat = lattice_coloring(2, 1, 2)
    vert = distance_coloring(g, [0])
    table = brute_pair_distribution(g, lat, vert)
    assert table == from_json([[1, 0, 1], [0, 2, 0]])


def test_oracle_integrality_and_totals():
    g = hamming_graph(3, 2)
    col = distance_coloring(g, [0, 7])
    rows = brute_distribution(g, [0], col)
    total = sum(x for row in rows for x in row)
    assert total == g.n
    assert all(x.denominator == 1 and x >= 0 for row in rows for x in row)


def test_oracle_shape_errors():
    g = hamming_graph(2, 2)
    other = hamming_graph(3, 2)
    with pytest.raises(ShapeError):
        brute_distribution(g, [0], distance_coloring(other, [0]).indicator())
    with pytest.raises(ShapeError):
        brute_pair_distribution(g, distance_coloring(other, [0]), all_one_coloring(g))


def test_the_oracle_counts_colours_without_a_list_per_class():
    """Colours are counted as (distance, colour) pairs; what the call holds
    is the distance list and the BFS queue (2.9 MB when the classes were
    listed as vertex lists)."""
    g = hamming_graph(16, 2)
    weights = Coloring(g, tuple(bin(v).count("1") for v in range(g.n)), 17)
    tracemalloc.start()
    try:
        rows = brute_distribution(g, [0], weights)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [[int(x) for x in rows.row(w)] for w in (0, 16)] == [
        [1] + [0] * 16, [0] * 16 + [1]]
    assert peak < 1_500_000
