import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from eqpart.codes import hamming_code_vertices
from eqpart.equitable import (
    Coloring,
    PerfectStructure,
    all_one_coloring,
    distance_coloring,
    lattice_coloring,
    quotient_matrix,
    structure_from_coloring,
    trivial_coloring,
    verify_structure,
)
from eqpart import localdist
from eqpart.errors import EqpartError, ShapeError, StructureError
from eqpart.graphs import (
    direct_product,
    graph_from_edges,
    hamming_graph,
)
from eqpart.localdist import (
    extract_local,
    rearrange,
    reconstruct_local,
    star_params,
    tensor_distribution,
    tensor_structure,
    unrearrange,
)
from eqpart.oracle import brute_pair_distribution
from eqpart.ratmat import RatMatrix, from_json

PRODUCT_PARAMS_9X9 = from_json(
    [
        [0, 4, 0, 4, 0, 0, 0, 0, 0],
        [1, 1, 2, 0, 4, 0, 0, 0, 0],
        [0, 2, 2, 0, 0, 4, 0, 0, 0],
        [1, 0, 0, 1, 4, 0, 2, 0, 0],
        [0, 1, 0, 1, 2, 2, 0, 2, 0],
        [0, 0, 1, 0, 2, 3, 0, 0, 2],
        [0, 0, 0, 2, 0, 0, 2, 4, 0],
        [0, 0, 0, 0, 2, 0, 1, 3, 2],
        [0, 0, 0, 0, 0, 2, 0, 2, 4],
    ]
)


def vertex_structure(g, v=0):
    return structure_from_coloring(g, distance_coloring(g, [v]))


def test_broken_product_identities_name_their_first_difference(monkeypatch):
    # f: a vertex of H(2,3) = H(1,3) x H(1,3), against the product of two vertex structures
    h, g = hamming_graph(1, 3), hamming_graph(2, 3)
    v, f = vertex_structure(h), vertex_structure(g)
    assert tensor_distribution(v, v, f).h == from_json([[1, 0, 0], [0, 2, 0], [0, 2, 0], [0, 0, 4]])
    sums = localdist.class_sums
    with monkeypatch.context() as patch:
        # one more vertex of f-colour 1 counted in the pair class (0, 0)
        patch.setattr(localdist, "class_sums",
                      lambda *args: sums(*args) + from_json([[0, 1, 0]] + [[0, 0, 0]] * 3))
        with pytest.raises(StructureError, match=(
                r"^product distribution identity failed: first difference at row 0, column 0: "
                r"\(R1 \(\+\) R2\)\^T h 0, h S 1$")):
            tensor_distribution(v, v, f)
    params = localdist.star_params
    with monkeypatch.context() as patch:
        wrong = from_json([[0] * 6] * 5 + [[0, 0, 0, 0, 0, "1/2"]])
        patch.setattr(localdist, "star_params", lambda r2, s: params(r2, s) + wrong)
        with pytest.raises(StructureError, match=(
                r"^rearranged distribution identity failed: first difference at row 1, "
                r"column 5: R1\^T h\* 4, h\* S\* 6$")):
            tensor_distribution(v, v, f)


def test_tensor_structure_9x9_params():
    g = hamming_graph(2, 3)
    s1 = vertex_structure(g)
    ts = tensor_structure(s1, s1)
    assert ts.params == PRODUCT_PARAMS_9X9
    # the product of two colorings is again a coloring with indicator rows
    assert isinstance(ts.values, Coloring)
    assert all(sum(row) == 1 for row in ts.value_matrix())


def test_tensor_structure_one_color_factor():
    g1 = hamming_graph(2, 3)
    g2 = hamming_graph(2, 2)
    s1 = vertex_structure(g1)
    ones = structure_from_coloring(g2, all_one_coloring(g2))
    ts = tensor_structure(s1, ones)
    assert ts.params == s1.params + RatMatrix.identity(3).scale(2)


def test_tensor_structure_4cycle_coloring():
    k2 = hamming_graph(1, 2)
    s = vertex_structure(k2)
    ts = tensor_structure(s, s)
    expect = from_json([[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]])
    assert ts.params == expect
    c4 = direct_product(k2, k2)
    assert quotient_matrix(c4, ts.values) == expect


def test_rearrange_roundtrip():
    rng = random.Random(53)
    for n1, n2, m in [(2, 3, 2), (3, 3, 1), (4, 2, 3)]:
        h = RatMatrix(
            [
                [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(m)]
                for _ in range(n1 * n2)
            ]
        )
        star = rearrange(h, n1, n2)
        assert star.shape() == (n1, n2 * m)
        assert unrearrange(star, n2) == h
        # the map is the claimed entrywise bijection
        for i1 in range(n1):
            for i2 in range(n2):
                for j in range(m):
                    assert star[i1, i2 * m + j] == h[i1 * n2 + i2, j]
    with pytest.raises(ShapeError):
        rearrange(RatMatrix.identity(3), 2, 2)


def test_tensor_distribution_counts_for_all_one_values():
    g1 = hamming_graph(2, 3)
    g2 = hamming_graph(1, 3)
    s1, s2 = vertex_structure(g1), vertex_structure(g2)
    prod = direct_product(g1, g2)
    f = structure_from_coloring(prod, all_one_coloring(prod))
    rd = tensor_distribution(s1, s2, f)
    sizes1 = s1.values.class_sizes()
    sizes2 = s2.values.class_sizes()
    for i1 in range(rd.n_left):
        for i2 in range(rd.n_right):
            assert rd.h[i1 * rd.n_right + i2, 0] == sizes1[i1] * sizes2[i2]


def test_tensor_distribution_lattice_values_match_pair_oracle():
    g1 = hamming_graph(2, 3)
    s1 = vertex_structure(g1)
    prod = direct_product(g1, g1)
    lat = lattice_coloring(2, 2, 3)
    f = structure_from_coloring(prod, Coloring(prod, lat.colors, lat.n_colors))
    rd = tensor_distribution(s1, s1, f)
    pair_coloring = tensor_structure(s1, s1).values
    assert rd.h == brute_pair_distribution(prod, pair_coloring, f)
    # rearranged matrix satisfies its governing equation
    ok, _ = verify_structure(
        s1.params.transpose(), rd.h_star, star_params(s1.params, f.params)
    )
    assert ok


def test_tensor_distribution_rejects_wrong_host():
    g1 = hamming_graph(1, 2)
    s1 = vertex_structure(g1)
    other = hamming_graph(2, 3)
    f = structure_from_coloring(other, all_one_coloring(other))
    with pytest.raises(ShapeError):
        tensor_distribution(s1, s1, f)


def test_reconstruct_local_row0_is_identity():
    r2 = from_json([[0, 2], [1, 1]])
    s = from_json([[3]])
    h0 = [Fraction(1), Fraction(2)]
    rows = reconstruct_local(hamming_graph(1, 2), r2, s, h0)
    assert rows.row(0) == (1, 2)


def test_reconstruct_local_matches_tensor_distribution():
    g = hamming_graph(2, 3)
    s1 = vertex_structure(g)
    prod = direct_product(g, g)
    f = structure_from_coloring(prod, all_one_coloring(prod))
    rd = tensor_distribution(s1, s1, f)
    full = reconstruct_local(g, s1.params, f.params, RatMatrix([rd.h_star.row(0)]))
    assert full == rd.h_star


def test_reconstruct_local_hamming_code_over_split_cube():
    left = hamming_graph(4, 2)
    right = hamming_graph(3, 2)
    prod = direct_product(left, right)
    assert prod.same_adjacency(hamming_graph(7, 2))
    s1, s2 = vertex_structure(left), vertex_structure(right)
    f = structure_from_coloring(prod, distance_coloring(prod, hamming_code_vertices(3)))
    rd = tensor_distribution(s1, s2, f)
    # oracle: count color pairs directly
    pair_coloring = tensor_structure(s1, s2).values
    assert rd.h == brute_pair_distribution(prod, pair_coloring, f)
    full = reconstruct_local(left, s2.params, f.params, RatMatrix([rd.h_star.row(0)]))
    assert full == rd.h_star


def test_extract_local_blocks():
    g1 = hamming_graph(2, 3)
    g2 = hamming_graph(1, 3)
    s1, s2 = vertex_structure(g1), vertex_structure(g2)
    prod = direct_product(g1, g2)
    ts = tensor_structure(s1, s2)
    f = ts
    rd = tensor_distribution(s1, s2, f)
    first, second = extract_local(rd)
    assert first.shape() == (rd.n_right, rd.n_values)
    assert second.shape() == (rd.n_left, rd.n_values)
    # f is the product coloring itself, so the blocks count fiber vertices of
    # each pair color
    sizes2 = s2.values.class_sizes()
    for i2 in range(rd.n_right):
        for j in range(rd.n_values):
            j1, j2 = divmod(j, rd.n_right)
            expect = sizes2[i2] if (j1, j2) == (0, i2) else 0
            assert first[i2, j] == expect


def test_extract_local_single_vertex_right_factor():
    g1 = hamming_graph(2, 2)
    single = graph_from_edges(1, [])
    s1 = vertex_structure(g1)
    s2 = structure_from_coloring(single, distance_coloring(single, [0]))
    prod = direct_product(g1, single)
    f = structure_from_coloring(prod, distance_coloring(prod, [0]))
    rd = tensor_distribution(s1, s2, f)
    first, second = extract_local(rd)
    # with a one-vertex right factor the second block is the whole
    # distribution of f with respect to the left vertex coloring
    from eqpart.distributions import distribution

    assert second == distribution(s1, f)
    assert first.shape() == (1, rd.n_values)


def test_extract_local_needs_distance_colorings():
    g1 = hamming_graph(1, 2)
    ones = structure_from_coloring(g1, all_one_coloring(g1))
    prod = direct_product(g1, g1)
    f = structure_from_coloring(prod, all_one_coloring(prod))
    rd = tensor_distribution(ones, ones, f)
    with pytest.raises(EqpartError):
        extract_local(rd)


def test_trivial_left_coloring_params_are_adjacency():
    # a fixed 5-vertex connected graph, deliberately not regular
    g1 = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)])
    triv = trivial_coloring(g1)
    s1 = structure_from_coloring(g1, triv)
    assert s1.params == g1.adjacency_matrix()
    g2 = hamming_graph(1, 2)
    s2 = vertex_structure(g2)
    # the tensor coloring is perfect over the product even though the
    # product is irregular
    f = tensor_structure(s1, s2)
    rd = tensor_distribution(s1, s2, f)
    ok, _ = verify_structure(
        s1.params.transpose(), rd.h_star, star_params(s2.params, f.params)
    )
    assert ok


PRODUCT_GROWTH_PROBE = """
import resource
from eqpart.equitable import distance_coloring, structure_from_coloring
from eqpart.graphs import hamming_graph
from eqpart.localdist import tensor_structure
g = hamming_graph(8, 2)
weights = structure_from_coloring(g, distance_coloring(g, [0]))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
tensor_structure(weights, weights)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
def test_the_product_of_two_weight_colorings_of_h8_adds_under_30_mb():
    """The pair coloring of H(8,2) x H(8,2) holds 65,536 colours where the
    Kronecker product of the indicators held 65,536 rows of 81 entries
    (66 MB of growth)."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", PRODUCT_GROWTH_PROBE], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert int(proc.stdout) < 30 * 1024
