import math
from fractions import Fraction

import pytest

from eqpart.drg import (
    IntersectionArray,
    eberlein,
    hamming_intersection_array,
    intersection_array,
    krawtchouk,
    krawtchouk_p_polynomials,
    krawtchouk_recurrence_check,
    p_polynomials,
    poly_add,
    poly_eval,
    poly_mul,
    poly_scale,
    poly_to_strings,
    poly_trim,
)
from eqpart.errors import EqpartError, NotDistanceRegularError
from eqpart.graphs import (
    graph_from_edges,
    halved_cube,
    hamming_graph,
    johnson_graph,
)
from helpers import (
    all_pairs_distances,
    counting_intersection_numbers,
    distance_w_matrix,
    mat_poly_eval,
)


def test_intersection_array_k2():
    ia = intersection_array(hamming_graph(1, 2))
    assert (ia.diameter, ia.b, ia.a, ia.c) == (1, (1,), (0, 0), (1,))


@pytest.mark.parametrize(
    "graph,expect_b,expect_c",
    [
        (hamming_graph(3, 2), (3, 2, 1), (1, 2, 3)),
        (johnson_graph(4, 2), (4, 1), (1, 4)),
        (johnson_graph(5, 2), (6, 2), (1, 4)),
        (halved_cube(4), (6, 1), (1, 6)),
    ],
)
def test_intersection_array_matches_counting_oracle(graph, expect_b, expect_c):
    diam, b, a, c = counting_intersection_numbers(graph)
    assert b == expect_b and c == expect_c
    ia = intersection_array(graph)
    assert (ia.diameter, ia.b, ia.a, ia.c) == (diam, b, a, c)


def test_intersection_array_reads_the_quotient_band(monkeypatch):
    from eqpart.drg import halved_cube_intersection_array, johnson_intersection_array
    from eqpart.ratmat import RatMatrix

    # the array is read off R's band as integers, with no entry printed and parsed back
    monkeypatch.setattr(RatMatrix, "to_strings", lambda self: pytest.fail("to_strings called"))
    c7 = graph_from_edges(7, [(v, (v + 1) % 7) for v in range(7)])
    for g, closed in [
        (hamming_graph(4, 3), hamming_intersection_array(4, 3)),
        (johnson_graph(7, 3), johnson_intersection_array(7, 3)),
        (halved_cube(8), halved_cube_intersection_array(8)),
        (c7, IntersectionArray(3, (2, 1, 1), (0, 0, 0, 1), (1, 1, 1))),
    ]:
        ia = intersection_array(g)
        assert ia == closed
        assert all(type(x) is int for x in ia.b + ia.a + ia.c)


def test_intersection_array_hamming_3_2_all_a_zero():
    ia = intersection_array(hamming_graph(3, 2))
    assert ia.a == (0, 0, 0, 0)


def test_intersection_array_rejects_non_drg():
    # path on 4 vertices: regular it is not
    path = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(NotDistanceRegularError):
        intersection_array(path)
    # 6-vertex prism (C3 x K2) is regular and vertex-transitive but not
    # distance-regular
    prism = graph_from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    )
    with pytest.raises(NotDistanceRegularError) as err:
        intersection_array(prism)
    u, v = err.value.witness
    assert 0 <= u < 6 and 0 <= v < 6


def test_different_quotient_matrices_are_named_by_their_first_difference():
    # K_{1,3}: every vertex is a completely regular code, but the centre's
    # distance partition has two cells and a leaf's three
    star = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(NotDistanceRegularError) as err:
        intersection_array(star)
    assert err.value.witness == (0, 1)
    assert str(err.value) == (
        "graph is not distance-regular (witness pair (0, 1)): the quotient matrices R_0 and "
        "R_1 of their distance partitions differ: R_0 has shape (2, 2), R_1 (3, 3)"
    )
    # K_{2,3}: both sides have three cells, and degrees 3 and 2
    k23 = graph_from_edges(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)])
    with pytest.raises(NotDistanceRegularError) as err:
        intersection_array(k23)
    assert str(err.value).endswith("differ: first difference at row 0, column 1: R_0 3, R_2 2")


def test_intersection_array_validation():
    with pytest.raises(EqpartError):
        IntersectionArray(1, (2,), (0, 0), (1,))  # row sums break
    with pytest.raises(EqpartError):
        IntersectionArray(2, (2, 1), (0, 0, 0), (1, 0))  # c_2 = 0


def test_p_polynomials_trivial():
    ia = intersection_array(hamming_graph(1, 2))
    polys = p_polynomials(ia)
    assert polys[0] == [Fraction(1)]
    assert polys[1] == [Fraction(0), Fraction(1)]


@pytest.mark.parametrize(
    "graph",
    [hamming_graph(2, 3), johnson_graph(5, 2), halved_cube(4), johnson_graph(6, 3)],
)
def test_p_polynomials_produce_distance_matrices(graph):
    polys = p_polynomials(intersection_array(graph))
    dist = all_pairs_distances(graph)
    a = graph.adjacency_matrix()
    for w in range(len(polys)):
        assert mat_poly_eval(polys[w], a) == distance_w_matrix(graph, dist, w)


@pytest.mark.parametrize(
    "n,q", [(n, q) for q in (2, 3, 4) for n in range(1, 9) if q**n <= 260]
)
def test_hamming_intersection_array_matches_graph(n, q):
    assert hamming_intersection_array(n, q) == intersection_array(hamming_graph(n, q))


@pytest.mark.parametrize("n,q", [(n, q) for q in (2, 3, 4) for n in range(1, 8)])
def test_hamming_composition_matches_recurrence(n, q):
    ia = hamming_intersection_array(n, q)
    recurrence = p_polynomials(ia)
    composed = krawtchouk_p_polynomials(n, q)
    assert recurrence.polys == composed.polys


def test_krawtchouk_base_cases():
    assert krawtchouk(0, 4, 2) == [Fraction(1)]
    for n in range(1, 6):
        for q in (2, 3, Fraction(3, 2)):
            assert krawtchouk(1, n, q) == [(q - 1) * n, -q]
    assert poly_eval(krawtchouk(2, 4, 2), 1) == 0  # 3 - 3 + 0
    with pytest.raises(EqpartError):
        krawtchouk(5, 4, 2)


def test_krawtchouk_orthogonality():
    for n in range(2, 7):
        for q in (2, 3):
            for w in range(n + 1):
                for w2 in range(w + 1, n + 1):
                    total = sum(
                        (q - 1) ** x
                        * math.comb(n, x)
                        * poly_eval(krawtchouk(w, n, q), x)
                        * poly_eval(krawtchouk(w2, n, q), x)
                        for x in range(n + 1)
                    )
                    assert total == 0


@pytest.mark.parametrize("q", [2, 3, 4, Fraction(3, 2), Fraction(5, 2)])
def test_krawtchouk_recurrence_all_small_parameters(q):
    for n in range(2, 9):
        for w in range(1, n):
            assert krawtchouk_recurrence_check(w, n, q)


def test_krawtchouk_recurrence_breaks_under_perturbation():
    # replace the degree-0 polynomial by the constant 2: identity must fail
    w, n, q = 1, 3, Fraction(2)
    lhs = poly_scale(w + 1, krawtchouk(w + 1, n, q))
    mid = poly_mul([(n - w) * (q - 1) + w, -q], krawtchouk(w, n, q))
    rhs = poly_add(mid, poly_scale(-(q - 1) * (n - w + 1), [Fraction(2)]))
    assert poly_trim(lhs) != poly_trim(rhs)
    with pytest.raises(EqpartError):
        krawtchouk_recurrence_check(0, 3, 2)


def test_eberlein_base_cases():
    assert eberlein(0, 4, 2) == [Fraction(1)]
    assert poly_eval(eberlein(1, 4, 2), 0) == 4
    for w, n, k in [(1, 5, 2), (2, 6, 3), (3, 7, 3)]:
        assert len(eberlein(w, n, k)) - 1 <= 2 * w
    with pytest.raises(EqpartError):
        eberlein(3, 4, 2)


@pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 2), (6, 3)])
def test_johnson_composition_at_integer_points(n, k):
    # the degree-1 closed form is quadratic in x, so the composition with its
    # inverse is checked where both sides are evaluable: at x = 0..diameter
    polys = p_polynomials(intersection_array(johnson_graph(n, k)))
    e1 = eberlein(1, n, k)
    for w in range(len(polys)):
        ew = eberlein(w, n, k)
        for x in range(min(k, n - k) + 1):
            assert poly_eval(polys[w], poly_eval(e1, x)) == poly_eval(ew, x)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_halved_cube_composition_at_integer_points(n):
    polys = p_polynomials(intersection_array(halved_cube(n)))
    p2 = krawtchouk(2, n, 2)
    for w in range(len(polys)):
        p2w = krawtchouk(2 * w, n, 2)
        for x in range(n + 1):
            assert poly_eval(polys[w], poly_eval(p2, x)) == poly_eval(p2w, x)


def test_sphere_sizes_from_polynomials():
    # row sums of the distance matrices: evaluate each polynomial at the degree
    for graph in (hamming_graph(3, 3), johnson_graph(5, 2)):
        polys = p_polynomials(intersection_array(graph))
        dist = all_pairs_distances(graph)
        degree = len(graph.adj[0])
        for w in range(len(polys)):
            assert poly_eval(polys[w], degree) == dist[0].count(w)


def test_poly_rendering():
    assert poly_to_strings([Fraction(1, 2), Fraction(-3)]) == ["1/2", "-3"]
