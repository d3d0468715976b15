"""Generated cases for the paper's contract: the closed formulas equal the
brute-force oracle.

A perfect structure is the distance colouring of a random vertex of H(n,2)
(n <= 6), H(n,3) (n <= 4) or H(n,4) (n <= 3), or the pair colouring of two
such colourings of H(a,2) and H(b,2) (a + b <= 6) over their direct product,
which is H(a+b,2); or one of these mixed by a random invertible rational M,
with values f M and parameters M^-1 S M, which is dense and non-integer.

Its distribution with respect to a random vertex u, summed by BFS
(``brute_distribution``), must equal row w = f(u) p_w(S): the sum over j of
f(u)_j times ``vertex_distribution(array, S, j)``, on the closed-form array
of the host; and so on J(n,k) and halved n-cubes, from the distance
colouring of a vertex, mixed or not.  On H(n,2) and the product, its
distribution with respect to the vertex or to the antipodal pair
{u, u + 1...1} must equal ``reconstruct_from_first_row(R^T, S, h0)``, with
R the code's quotient matrix and h0 the values summed over the code.

The other closed forms run on the same structures: ``lattice_distribution``
on a random class of the block-sum colouring of H(mk,q),
``subcube_distribution`` on a random subcube (free coordinates and fixed
letters drawn), ``pcube_distribution`` on a random product of p-letter
alphabets.  ``fiber_distribution`` and ``reconstruct_local`` run on direct
products of a cycle, a complete graph or H(a,2) with a small
distance-regular graph, against ``brute_distribution`` from a fiber and
``brute_pair_distribution`` over a pair colouring.  First-row
reconstruction runs on generated completely regular codes: translates of
the Hamming codes of length 3 and 7 and of the extended Hamming code of
length 8, lattice classes, subcubes, and the k-sets of J(n,k) that contain
a fixed point, each certified by ``check_completely_regular``, which
returns its R.
"""
import operator
from fractions import Fraction
from functools import reduce

from hypothesis import given, settings
from hypothesis import strategies as st

from eqpart.codes import extended_hamming_code_vertices, hamming_code_vertices
from eqpart.distributions import (
    fiber_distribution,
    lattice_distribution,
    pcube_distribution,
    reconstruct_from_first_row,
    reconstruct_local,
    subcube_distribution,
    vertex_distribution,
)
from eqpart.drg import (
    halved_cube_intersection_array,
    hamming_intersection_array,
    intersection_array,
    johnson_intersection_array,
)
from eqpart.equitable import (
    PerfectStructure,
    check_completely_regular,
    distance_coloring,
    lattice_coloring,
)
from eqpart.graphs import (
    decode_word,
    direct_product,
    graph_from_edges,
    halved_cube,
    hamming_graph,
    johnson_graph,
)
from eqpart.localdist import rearrange, tensor_structure
from eqpart.oracle import brute_distribution, brute_pair_distribution
from eqpart.ratmat import RatMatrix
from helpers import solve

PROPS = settings(max_examples=100, deadline=None, database=None, derandomize=True)
FEW = settings(PROPS, max_examples=60)
TOP = {2: 6, 3: 4, 4: 3}
GRAPHS = {(n, q): hamming_graph(n, q) for q, top in TOP.items() for n in range(1, top + 1)}

RATIONALS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
NONZERO = RATIONALS.filter(bool)


@st.composite
def vertex_structure(draw, g):
    """The distance colouring of a random vertex of g."""
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
        n = draw(st.integers(1, TOP[q]))
        f = draw(vertex_structure(GRAPHS[n, q]))
    else:
        a = draw(st.integers(1, 5))
        b = draw(st.integers(1, 6 - a))
        n, q = a + b, 2
        f = tensor_structure(draw(vertex_structure(GRAPHS[a, 2])),
                             draw(vertex_structure(GRAPHS[b, 2])))
    return draw(maybe_mixed(f)), n, q


@st.composite
def maybe_mixed(draw, f):
    """f, or f mixed by a random invertible M half of the time."""
    if draw(st.booleans()):
        m = draw(invertible(f.n_colors))
        f = PerfectStructure(f.host, f.value_matrix() @ m, solve(m, f.params @ m))
    return f


@PROPS
@given(case=perfect_structures(), data=st.data())
def test_vertex_distribution_equals_the_oracle(case, data):
    f, n, q = case
    u = data.draw(st.integers(0, f.host.n - 1), label="u")
    ia = hamming_intersection_array(n, q)
    assert _vertex_rows(ia, f, u) == brute_distribution(f.host, [u], f)


def _vertex_rows(ia, f, u):
    """Row w = f(u) p_w(S): the sum over j of f(u)_j times the rows of a
    colour-j vertex."""
    value = f.value_matrix().sum_rows([[u]]).row(0)
    return reduce(operator.add, (vertex_distribution(ia, f.params, j).scale(x)
                                 for j, x in enumerate(value) if x))


JOHNSON = {(n, k): johnson_graph(n, k) for n, k in ((4, 2), (5, 2), (6, 2), (6, 3), (7, 3))}
# hosts with other arrays than the Hamming graphs', and those arrays in closed form
HOSTS = [(g, johnson_intersection_array(n, k)) for (n, k), g in JOHNSON.items()] + [
    (halved_cube(n, parity), halved_cube_intersection_array(n))
    for n in (4, 5, 6, 7) for parity in ("even", "odd")]


@FEW
@given(host=st.sampled_from(HOSTS), data=st.data())
def test_vertex_distribution_on_johnson_and_halved_hosts_equals_the_oracle(host, data):
    g, ia = host
    f = data.draw(vertex_structure(g).flatmap(maybe_mixed), label="f")
    u = data.draw(st.integers(0, g.n - 1), label="u")
    assert _vertex_rows(ia, f, u) == brute_distribution(g, [u], f)


@PROPS
@given(case=perfect_structures(alphabets=(2,)), data=st.data())
def test_reconstruction_from_a_vertex_or_antipodal_pair_equals_the_oracle(case, data):
    f, n, _ = case
    u = data.draw(st.integers(0, f.host.n - 1), label="u")
    code = data.draw(st.sampled_from([[u], [u, u ^ (2**n - 1)]]), label="code")
    r = check_completely_regular(f.host, code)
    h0 = f.value_matrix().sum_rows([code])
    rows = reconstruct_from_first_row(r.transpose(), f.params, h0)
    assert rows == brute_distribution(f.host, code, f)


def _load(spec):
    return GRAPHS[spec["n"], spec["q"]]


def _words(g, n, q):
    return [decode_word(v, n, q) for v in range(g.n)]


def _oracle_case(f, code):
    """(h0, the oracle's rows) of f with respect to ``code``."""
    return f.value_matrix().sum_rows([code]), brute_distribution(f.host, code, f)


@FEW
@given(case=perfect_structures(), data=st.data())
def test_lattice_distribution_equals_the_oracle(case, data):
    f, n, q = case
    k = data.draw(st.sampled_from([k for k in range(1, n + 1) if n % k == 0]), label="k")
    lattice = lattice_coloring(n // k, k, q, load=_load)
    # every class is a translate of the zero class, with the same quotient matrix
    code = lattice.class_vertices(data.draw(st.integers(0, q**k - 1), label="class"))
    h0, expect = _oracle_case(f, code)
    assert lattice_distribution(n // k, k, q, f.params, h0) == expect


@FEW
@given(case=perfect_structures(), data=st.data())
def test_subcube_distribution_equals_the_oracle(case, data):
    f, n, q = case
    free = data.draw(st.sets(st.integers(0, n - 1)), label="free")
    fixed = data.draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n), label="letters")
    code = [v for v, word in enumerate(_words(f.host, n, q))
            if all(word[i] == fixed[i] for i in range(n) if i not in free)]
    h0, expect = _oracle_case(f, code)
    assert subcube_distribution(len(free), n - len(free), q, f.params, h0) == expect


@FEW
@given(case=perfect_structures(alphabets=(3, 4)), data=st.data())
def test_pcube_distribution_equals_the_oracle(case, data):
    f, n, q = case
    p = data.draw(st.integers(1, q - 1), label="p")
    letters = [data.draw(st.sets(st.integers(0, q - 1), min_size=p, max_size=p), label="A_i")
               for _ in range(n)]
    code = [v for v, word in enumerate(_words(f.host, n, q))
            if all(x in allowed for x, allowed in zip(word, letters))]
    h0, expect = _oracle_case(f, code)
    assert pcube_distribution(n, p, q, f.params, h0) == expect


def _cycle(m):
    return graph_from_edges(m, [(i, (i + 1) % m) for i in range(m)], f"C{m}")


def _complete(m):
    return graph_from_edges(m, [(i, j) for i in range(m) for j in range(i + 1, m)], f"K{m}")


# regular left factors, and small distance-regular right factors with their arrays
LEFT = [_cycle(m) for m in (4, 5, 6)] + [_complete(m) for m in (2, 3, 4)] + [
    GRAPHS[a, 2] for a in (2, 3)]
RIGHT = [GRAPHS[1, 2], GRAPHS[2, 2], GRAPHS[3, 2], GRAPHS[2, 3], _cycle(5), _complete(4),
         johnson_graph(4, 2), johnson_graph(5, 2), halved_cube(5)]
ARRAYS = {g: intersection_array(g) for g in LEFT + RIGHT}
PRODUCTS = {}


def _product(left, right):
    if (left, right) not in PRODUCTS:
        PRODUCTS[left, right] = direct_product(left, right)
    return PRODUCTS[left, right]


@st.composite
def product_structures(draw):
    """(left, right, g1, g2, f): the distance structures g1 and g2 of random
    vertices of the factors, and f over their product: the pair structure of
    two more, mixed by a random M half of the time."""
    left, right = draw(st.sampled_from(LEFT)), draw(st.sampled_from(RIGHT))
    prod = _product(left, right)
    g1, g2 = draw(vertex_structure(left)), draw(vertex_structure(right))
    f = tensor_structure(draw(vertex_structure(left)), draw(vertex_structure(right)))
    f = PerfectStructure(prod, f.values, f.params)
    return left, right, g1, g2, draw(maybe_mixed(f))


@FEW
@given(case=product_structures(), data=st.data())
def test_fiber_distribution_equals_the_oracle(case, data):
    left, right, _, _, f = case
    v2 = data.draw(st.integers(0, right.n - 1), label="v2")
    code = [v1 * right.n + v2 for v1 in range(left.n)]
    h0, expect = _oracle_case(f, code)
    assert fiber_distribution(ARRAYS[right], left.degree(0), f.params, h0) == expect


@FEW
@given(case=product_structures())
def test_reconstruct_local_equals_the_pair_oracle(case):
    left, right, g1, g2, f = case
    pairs = tensor_structure(g1, g2).values
    h_star = rearrange(brute_pair_distribution(f.host, pairs, f), g1.n_colors, g2.n_colors)
    first = h_star.sum_rows([[0]])
    assert reconstruct_local(ARRAYS[left], g2.params, f.params, first) == h_star


HAMMING_CODES = {3: hamming_code_vertices(2), 7: hamming_code_vertices(3),
                 8: extended_hamming_code_vertices(3)}
GRAPHS[7, 2], GRAPHS[8, 2] = hamming_graph(7, 2), hamming_graph(8, 2)


@st.composite
def completely_regular_codes(draw):
    """(host, code): a translate of a Hamming code or of the extended
    Hamming code of length 8, a lattice class, a subcube, or the k-sets of
    J(n,k) through a fixed point."""
    kind = draw(st.sampled_from(["hamming", "lattice", "subcube", "johnson"]))
    if kind == "johnson":
        n, k = draw(st.sampled_from(sorted(JOHNSON)))
        g, point = JOHNSON[n, k], draw(st.integers(0, n - 1))
        return g, [v for v, subset in enumerate(g.labels) if point in subset]
    if kind == "hamming":
        n = draw(st.sampled_from(sorted(HAMMING_CODES)))
        g, shift = GRAPHS[n, 2], draw(st.integers(0, 2**n - 1))
        return g, sorted(v ^ shift for v in HAMMING_CODES[n])
    q = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, TOP[q]))
    g = GRAPHS[n, q]
    if kind == "lattice":
        k = draw(st.sampled_from([k for k in range(1, n + 1) if n % k == 0]))
        return g, lattice_coloring(n // k, k, q, load=_load).class_vertices(
            draw(st.integers(0, q**k - 1)))
    free = draw(st.sets(st.integers(0, n - 1)))
    fixed = draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    return g, [v for v, word in enumerate(_words(g, n, q))
               if all(word[i] == fixed[i] for i in range(n) if i not in free)]


@FEW
@given(case=completely_regular_codes(), data=st.data())
def test_reconstruction_of_generated_codes_equals_the_oracle(case, data):
    g, code = case
    r = check_completely_regular(g, code)
    f = data.draw(vertex_structure(g).flatmap(maybe_mixed), label="f")
    h0, expect = _oracle_case(f, code)
    assert reconstruct_from_first_row(r.transpose(), f.params, h0) == expect
