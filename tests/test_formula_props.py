"""Generated cases for the paper's contract: the closed formulas equal the
brute-force oracle.

A perfect structure is the distance colouring of a random vertex of H(n,2)
(n <= 6) or H(n,3) (n <= 4), or the pair colouring of two such colourings of
H(a,2) and H(b,2) (a + b <= 6) over their direct product, which is
H(a+b,2); or one of these mixed by a random invertible rational M, with
values f M and parameters M^-1 S M, which is dense and non-integer.

Its distribution with respect to a random vertex u, summed by BFS
(``brute_distribution``), must equal row w = f(u) p_w(S): the sum over j of
f(u)_j times ``vertex_distribution(array, S, j)``, on the closed-form array
of the host.  On H(n,2) and the product, its distribution with respect to
the vertex or to the antipodal pair {u, u + 1...1} must equal
``reconstruct_from_first_row(R^T, S, h0)``, with R the code's quotient
matrix and h0 the values summed over the code.
"""
import operator
from fractions import Fraction
from functools import reduce

from hypothesis import given, settings
from hypothesis import strategies as st

from eqpart.distributions import reconstruct_from_first_row, vertex_distribution
from eqpart.drg import hamming_intersection_array
from eqpart.equitable import PerfectStructure, check_completely_regular, distance_coloring
from eqpart.graphs import hamming_graph
from eqpart.localdist import tensor_structure
from eqpart.oracle import brute_distribution
from eqpart.ratmat import RatMatrix
from helpers import solve

PROPS = settings(max_examples=100, deadline=None, database=None, derandomize=True)
GRAPHS = {(n, q): hamming_graph(n, q) for q, top in ((2, 6), (3, 4)) for n in range(1, top + 1)}

RATIONALS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
NONZERO = RATIONALS.filter(bool)


@st.composite
def distance_structure(draw, n, q):
    g = GRAPHS[n, q]
    return PerfectStructure(g, distance_coloring(g, [draw(st.integers(0, g.n - 1))]))


@st.composite
def invertible(draw, k):
    """L U for a unit lower triangular L and an upper triangular U with a
    nonzero diagonal."""
    lower = RatMatrix([[draw(RATIONALS) if j < i else int(i == j) for j in range(k)]
                       for i in range(k)])
    upper = RatMatrix([[draw(NONZERO) if j == i else draw(RATIONALS) if j > i else 0
                        for j in range(k)] for i in range(k)])
    return lower @ upper


@st.composite
def perfect_structures(draw, alphabets=(2, 3)):
    """(f, n, q): a perfect structure f over a graph with the adjacency of
    H(n, q), q in ``alphabets``."""
    if draw(st.booleans()):
        q = draw(st.sampled_from(alphabets))
        n = draw(st.integers(1, 6 if q == 2 else 4))
        f = draw(distance_structure(n, q))
    else:
        a = draw(st.integers(1, 5))
        b = draw(st.integers(1, 6 - a))
        n, q = a + b, 2
        f = tensor_structure(draw(distance_structure(a, 2)), draw(distance_structure(b, 2)))
    if draw(st.booleans()):
        m = draw(invertible(f.n_colors))
        f = PerfectStructure(f.host, f.value_matrix() @ m, solve(m, f.params @ m))
    return f, n, q


@PROPS
@given(case=perfect_structures(), data=st.data())
def test_vertex_distribution_equals_the_oracle(case, data):
    f, n, q = case
    u = data.draw(st.integers(0, f.host.n - 1), label="u")
    ia = hamming_intersection_array(n, q)
    value = f.value_matrix().sum_rows([[u]]).row(0)
    formula = reduce(operator.add, (vertex_distribution(ia, f.params, j).scale(x)
                                    for j, x in enumerate(value) if x))
    assert formula == brute_distribution(f.host, [u], f)


@PROPS
@given(case=perfect_structures(alphabets=(2,)), data=st.data())
def test_reconstruction_from_a_vertex_or_antipodal_pair_equals_the_oracle(case, data):
    f, n, _ = case
    u = data.draw(st.integers(0, f.host.n - 1), label="u")
    code = data.draw(st.sampled_from([[u], [u, u ^ (2**n - 1)]]), label="code")
    r = check_completely_regular(f.host, code).params
    h0 = f.value_matrix().sum_rows([code])
    rows = reconstruct_from_first_row(r.transpose(), f.params, h0)
    assert rows == brute_distribution(f.host, code, f)
