"""The built-in example suite run by ``eqpart selftest``.

Each check recomputes a small published example (quotient and product
parameters, code parameters, distributions) and compares it with the
brute-force oracle or with the known answer.
"""
from __future__ import annotations

from . import codes
from .distributions import lattice_distribution, vertex_distribution
from .drg import hamming_intersection_array, intersection_array
from .equitable import (
    PerfectStructure,
    all_one_coloring,
    check_completely_regular,
    distance_coloring,
    lattice_coloring,
    quotient_matrix,
    verify_structure,
)
from .graphs import hamming_graph
from .localdist import tensor_structure
from .oracle import brute_distribution
from .ratmat import from_json

PRODUCT_PARAMS_3ARY_2CUBE = [
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


def checks():
    """(name, check) pairs; a check returns on success and raises otherwise."""
    h23 = hamming_graph(2, 3)
    vcol = distance_coloring(h23, [0])

    def product_params_9x9():
        g1 = PerfectStructure(h23, vcol)
        ts = tensor_structure(g1, g1)
        assert ts.params == from_json(PRODUCT_PARAMS_3ARY_2CUBE)

    def code_params():
        g = hamming_graph(7, 2)
        r = check_completely_regular(g, codes.hamming_code_vertices(3))
        assert r == from_json([[0, 7], [1, 6]])

    def extended_code_params():
        g = hamming_graph(8, 2)
        r = check_completely_regular(g, codes.extended_hamming_code_vertices(3))
        assert r == from_json([[0, 8, 0], [1, 0, 7], [0, 8, 0]])

    def code_eigenfunction():
        g = hamming_graph(7, 2)
        members = set(codes.hamming_code_vertices(3))
        values = from_json([[7 if v in members else -1] for v in range(g.n)])
        ok, _ = verify_structure(g, values, from_json([[-1]]))
        assert ok

    def vertex_distribution_3ary_2cube():
        s = quotient_matrix(h23, vcol)
        ia = intersection_array(h23)
        dist = vertex_distribution(ia, s, 0)
        assert hamming_intersection_array(2, 3) == ia
        expect = from_json([[1, 0, 0], [0, 4, 0], [0, 0, 4]])
        assert dist == expect
        assert brute_distribution(h23, [0], vcol) == expect

    def lattice_quotient():
        col = lattice_coloring(2, 1, 2)
        s = quotient_matrix(col.graph, col)
        assert s == from_json([[0, 2], [2, 0]])

    def lattice_distribution_check():
        col = lattice_coloring(2, 2, 2)
        g = col.graph
        ones = all_one_coloring(g)
        s = quotient_matrix(g, ones)
        code = col.class_vertices(0)
        dist = lattice_distribution(2, 2, 2, s, [len(code)])
        assert dist == from_json([[4], [8], [4]])
        assert brute_distribution(g, code, ones) == dist

    return [
        ("product-params-9x9", product_params_9x9),
        ("code-params", code_params),
        ("extended-code-params", extended_code_params),
        ("code-eigenfunction", code_eigenfunction),
        ("vertex-distribution-3ary-2cube", vertex_distribution_3ary_2cube),
        ("lattice-quotient", lattice_quotient),
        ("lattice-distribution", lattice_distribution_check),
    ]
