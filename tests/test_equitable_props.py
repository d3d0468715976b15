"""Generated cases for the neighbour-count scan behind every equitability check.

A distance coloring of a small Hamming or Johnson graph (H(n,q) and J(n,k)
of at most 35 vertices, from one or two source vertices) has one vertex
recoloured at random.  Then either ``quotient_matrix`` returns S, and the
dense route ``verify_structure(A, indicator, S)`` over the adjacency matrix,
which does not run the scan, confirms A f = f S; or ``NotEquitableError``
names the first vertex, in vertex order, whose neighbour counts per colour
differ from those of the first vertex of its colour, with the counts this
test computes itself.  A structure of the coloring given no S,
``PerfectStructure(g, coloring)``, takes the same S (which the dense route
confirms as its parameters) or raises the same witness.
"""
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eqpart.equitable import (
    PerfectStructure,
    coloring_from_list,
    distance_coloring,
    quotient_matrix,
    verify_structure,
)
from eqpart.errors import NotEquitableError
from eqpart.graphs import hamming_graph, johnson_graph
from helpers import fractions_of

PROPS = settings(max_examples=60, deadline=None, database=None)

GRAPHS = [hamming_graph(n, q) for n, q in [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3)]]
GRAPHS += [johnson_graph(n, k) for n, k in [(4, 2), (5, 2), (6, 2), (6, 3), (7, 3)]]


def neighbour_counts(g, colors, k):
    """Each vertex's number of neighbours of each colour, counted directly."""
    return [tuple(sum(colors[u] == j for u in g.adj[v]) for j in range(k)) for v in range(g.n)]


@st.composite
def recoloured(draw):
    """(g, coloring): a distance coloring of g with one vertex recoloured,
    every class still nonempty."""
    g = draw(st.sampled_from(GRAPHS))
    code = draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=2))
    colors = list(distance_coloring(g, code).colors)
    k = max(colors) + 1
    colors[draw(st.integers(0, g.n - 1))] = draw(st.integers(0, k - 1))
    assume(len(set(colors)) == k)
    return g, coloring_from_list(g, colors)


@PROPS
@given(recoloured())
def test_quotient_or_first_witness_after_one_recolouring(case):
    g, col = case
    colors, k = col.colors, col.n_colors
    counts = neighbour_counts(g, colors, k)
    first = {}
    for v, c in enumerate(colors):
        first.setdefault(c, v)
    try:
        s = quotient_matrix(g, col)
    except NotEquitableError as exc:
        bad = next(v for v in range(g.n) if counts[v] != counts[first[colors[v]]])
        assert exc.witness == (first[colors[bad]], bad)
        assert exc.profiles == (counts[first[colors[bad]]], counts[bad])
        with pytest.raises(NotEquitableError) as derived:
            PerfectStructure(g, col)
        assert (derived.value.witness, derived.value.profiles) == (exc.witness, exc.profiles)
    else:
        assert all(counts[v] == counts[first[colors[v]]] for v in range(g.n))
        ok, residual = verify_structure(g.adjacency_matrix(), col.indicator(), s)
        assert ok and residual.is_zero()
        assert fractions_of(s) == [[Fraction(x) for x in counts[first[i]]] for i in range(k)]
        assert verify_structure(g, col.indicator(), s)[0]
        assert PerfectStructure(g, col).params == s
