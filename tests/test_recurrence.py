"""The row kernel against the polynomial route, and the indicator shortcut
of structure verification against the generic product.

The kernel (``recurrence_rows``) runs the three-term recurrence of a
tridiagonal matrix B from its three diagonals; the reference expands the
polynomials of the dense B (``helpers``).  Generated cases are bounded:
arrays of diameter at most 6 and degree at most 8, tridiagonal matrices up
to 7 x 7 and square matrices up to 4 x 4 with numerators in [-9, 9] and
denominators in [1, 9], alphabets up to 7.
"""
import json
import tracemalloc
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqpart.cli import main
from eqpart import distributions
from eqpart.distributions import (
    band,
    pcube_distribution,
    reconstruct_from_first_row,
    recurrence_rows,
    vertex_distribution,
)
from eqpart.drg import (
    IntersectionArray,
    hamming_intersection_array,
    krawtchouk_p_polynomials,
    p_polynomials,
)
from eqpart.equitable import (
    Coloring,
    PerfectStructure,
    distance_coloring,
    verify_structure,
)
from eqpart.errors import EqpartError, ReconstructionError, ShapeError, StructureError
from eqpart.graphs import graph_from_edges, hamming_graph
from eqpart.ratmat import RatMatrix

from helpers import rows_by_matrix_polynomials, rows_by_polynomials

PROPS = settings(max_examples=60, deadline=None, database=None)

numerators = st.integers(-9, 9)
rationals = st.builds(Fraction, numerators, st.integers(1, 9))


def square(k: int):
    return st.lists(st.lists(rationals, min_size=k, max_size=k), min_size=k, max_size=k)


def row(k: int):
    return st.lists(rationals, min_size=k, max_size=k)


@st.composite
def arrays(draw) -> IntersectionArray:
    """An intersection array as the graph axioms constrain one: c_1 = 1,
    every c_w >= 1 and b_w >= 1 below the diameter, b_w + a_w + c_w = k."""
    d = draw(st.integers(0, 6))
    if d == 0:
        return IntersectionArray(0, (), (0,), ())
    k = draw(st.integers(2, 8))
    c = [1] + [draw(st.integers(1, k - 1 if w < d else k)) for w in range(2, d + 1)]
    b = [k] + [draw(st.integers(1, k - c[w - 1])) for w in range(1, d)]
    a = tuple(k - (b[w] if w < d else 0) - (c[w - 1] if w else 0) for w in range(d + 1))
    return IntersectionArray(d, tuple(b), a, tuple(c))


@PROPS
@given(st.integers(1, 4).flatmap(lambda k: st.tuples(arrays(), row(k), square(k))))
def test_recurrence_equals_the_p_polynomials(case):
    ia, f0, t = case
    t = RatMatrix(t)
    rows = recurrence_rows(f0, t, ia.b, ia.a, ia.c)
    assert rows == rows_by_polynomials(f0, p_polynomials(ia), t)
    assert rows.rows == ia.diameter + 1


def test_an_array_with_c1_other_than_1_is_no_graphs_array():
    # row sums hold, but a neighbour of u has u as its only neighbour at distance 0
    with pytest.raises(EqpartError, match="c_1 = 2"):
        IntersectionArray(1, (3,), (0, 1), (2,))


def test_recurrence_rejects_arrays_that_do_not_fit():
    t = RatMatrix.identity(2)
    with pytest.raises(ShapeError, match="array lengths"):
        recurrence_rows([1, 0], t, (1,), (0,), (1,))
    with pytest.raises(ReconstructionError, match=r"superdiagonal entry \(1,2\) is zero"):
        recurrence_rows([1, 0], t, (2, 1), (0, 0, 0), (1, 0))
    with pytest.raises(ShapeError, match="does not fit"):
        recurrence_rows([1, 0, 0], t, (1,), (0, 0), (1,))


@PROPS
@given(st.integers(1, 8), st.integers(2, 7), st.data())
def test_pcube_by_the_scaled_array_equals_krawtchouk_at_q_over_p(n, q, data):
    p = data.draw(st.integers(1, q - 1))
    k = data.draw(st.integers(1, 3))
    s = RatMatrix(data.draw(square(k)))
    f0 = data.draw(row(k))
    shifted = (s - RatMatrix.identity(k).scale((p - 1) * n)).scale(Fraction(1, p))
    expect = rows_by_polynomials(f0, krawtchouk_p_polynomials(n, Fraction(q, p)), shifted)
    assert pcube_distribution(n, p, q, s, f0) == expect


def test_cli_lattice_k30_equals_the_polynomial_route(capsys, tmp_path):
    s = [["1/2", "3", "-2/3"], ["1", "0", "5/7"], ["-1", "2", "1/3"]]
    f0 = [1, "2/3", -1]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(s))
    code = main(["distrib", "lattice", "-m", "2", "-k", "30", "-q", "2",
                 "--s", str(path), "--f0", json.dumps(f0)])
    assert code == 0
    half_s = RatMatrix(s).scale(Fraction(1, 2))
    expect = rows_by_polynomials(f0, krawtchouk_p_polynomials(30, 2), half_s)
    assert json.loads(capsys.readouterr().out)["rows"] == expect.to_strings()


@st.composite
def tridiagonal_matrices(draw):
    """(B, n_rows): a tridiagonal B with rational entries and a nonzero
    (possibly negative) superdiagonal in the rows the recurrence reads;
    n_rows may be less than B.rows, and the rows it does not read are
    arbitrary."""
    size = draw(st.integers(1, 7))
    n_rows = draw(st.integers(1, size))
    nonzero = rationals.filter(bool)
    rows = []
    for i in range(size):
        if i >= n_rows - 1:
            rows.append(draw(row(size)))
            continue
        rows.append([
            draw(nonzero) if j == i + 1
            else draw(rationals) if abs(i - j) <= 1
            else Fraction(0)
            for j in range(size)
        ])
    return RatMatrix(rows), n_rows


@PROPS
@given(tridiagonal_matrices(), st.integers(1, 4).flatmap(lambda k: st.tuples(row(k), square(k))))
def test_kernel_equals_the_polynomial_route_on_tridiagonal_matrices(case, values):
    b, n_rows = case
    h0, s = values
    s = RatMatrix(s)
    expect = rows_by_matrix_polynomials(b, s, h0, n_rows)
    # the kernel gives B.rows rows: the leading n_rows x n_rows block gives these
    lead = RatMatrix([b.row(i)[:n_rows] for i in range(n_rows)])
    assert recurrence_rows(h0, s, *band(lead)) == expect
    assert reconstruct_from_first_row(lead, s, h0) == expect


def test_reconstruction_pattern_errors_name_the_entry():
    s = RatMatrix([[1]])
    with pytest.raises(ShapeError, match="must be square"):
        reconstruct_from_first_row(RatMatrix([[0, 1]]), s, [1])
    with pytest.raises(ReconstructionError, match=r"superdiagonal entry \(0,1\) is zero"):
        reconstruct_from_first_row(RatMatrix([[1, 0], [1, 0]]), s, [1])
    bad = RatMatrix([[0, 1, "5/2"], [1, 0, 1], [0, 1, 0]])
    with pytest.raises(ReconstructionError, match=r"entry \(0,2\) = 5/2 above"):
        reconstruct_from_first_row(bad, s, [1])


def test_an_entry_below_the_subdiagonal_is_named():
    s = RatMatrix([[1]])
    bad = RatMatrix([[0, 1, 0, 0], [1, 0, 1, 0], ["-3/4", 1, 0, 1], [0, 0, 1, 0]])
    with pytest.raises(ReconstructionError, match=r"^entry \(2,0\) = -3/4 below the subdiagonal$"):
        reconstruct_from_first_row(bad, s, [1])


def test_a_kernel_that_drops_a_term_fails_the_certificate(monkeypatch):
    # a vertex of H(3, 2) and its distance coloring: B = R^T, S = R
    b = RatMatrix([[0, 1, 0, 0], [3, 0, 2, 0], [0, 2, 0, 3], [0, 0, 1, 0]])
    s = b.transpose()
    good = reconstruct_from_first_row(b, s, [1, 0, 0, 0])
    assert good == RatMatrix([[1, 0, 0, 0], [0, 3, 0, 0], [0, 0, 3, 0], [0, 0, 0, 1]])

    def dropped(row, t, sub, diag, sup, den=1):
        # the recurrence without the subdiagonal terms b_{w-1} r_{w-1}
        rows = [RatMatrix.row_vector(row)]
        for w, cw in enumerate(sup):
            rows.append(((rows[w] @ t).scale(den) - rows[w].scale(diag[w])).scale(Fraction(1, cw)))
        return RatMatrix([r.row(0) for r in rows])

    monkeypatch.setattr(distributions, "recurrence_rows", dropped)
    # row 2 of the dropped recurrence is e_0 S^2 / 2 = (3/2, 0, 3, 0), not (0, 0, 3, 0);
    # row 1 of B H is then 3 h_0 + 2 h_2 = (6, 0, 6, 0), and of H S is (3, 0, 6, 0)
    with pytest.raises(StructureError, match=(
            r"^first-row reconstruction fails B\[:n-1\] H = H\[:n-1\] S: first difference "
            r"at row 1, column 0: B H 6, H S 3$")):
        reconstruct_from_first_row(b, s, [1, 0, 0, 0])


def test_long_closed_form_arrays_build_no_square_matrix():
    """The 2001 rows of the H(2000,2) array are under 1 MB of integers,
    where a dense 2001 x 2001 matrix of B took 61 MB."""
    ia = hamming_intersection_array(2000, 2)
    tracemalloc.start()
    try:
        rows = vertex_distribution(ia, RatMatrix([[1]]), 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20 and rows.rows == 2001
    # the all-one colouring, S = (degree): row w counts the words of weight w
    binomials = RatMatrix([[comb(2000, w)] for w in range(2001)])
    assert vertex_distribution(ia, RatMatrix([[2000]]), 0) == binomials


# -- unit rows, and verify_structure on both kinds of values ----------------------


@PROPS
@given(st.integers(1, 4), st.data())
def test_unit_columns_pick_the_rows_of_the_product(k, data):
    colors = data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=8))
    f = RatMatrix([[int(j == c) for j in range(k)] for c in colors])
    s = RatMatrix(data.draw(square(k)))
    assert f.unit_columns() == colors
    assert s.sum_rows([j] for j in colors) == f @ s


@PROPS
@given(st.integers(1, 4).flatmap(lambda k: st.lists(row(k), min_size=1, max_size=6)))
def test_unit_columns_is_none_unless_every_row_is_a_unit_vector(rows):
    units = all(sorted(r) == [0] * (len(r) - 1) + [1] for r in rows)
    expect = [r.index(1) for r in rows] if units else None
    assert RatMatrix(rows).unit_columns() == expect


@st.composite
def graph_values_params(draw):
    """A random graph, a coloring's indicator matrix or arbitrary values on
    it, a parameter matrix that mostly does not fit them, and the Coloring
    of the indicator where no class is empty (else None)."""
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    k = draw(st.integers(1, 4))
    g, col = graph_from_edges(n, edges), None
    if draw(st.booleans()):
        colors = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
        f = [[int(j == c) for j in range(k)] for c in colors]
        if len(set(colors)) == k:
            col = Coloring(g, tuple(colors), k)
    else:
        f = draw(st.lists(row(k), min_size=n, max_size=n))
    return g, RatMatrix(f), RatMatrix(draw(square(k))), col


@PROPS
@given(graph_values_params())
def test_verify_structure_residual_is_af_minus_fs(case):
    """A Coloring is checked as the matrix of its unit rows: the scan and
    the matrix route give the same answer and residual."""
    g, f, s, col = case
    expect = g.adjacency_matrix() @ f - f @ s
    for host in (g, g.adjacency_matrix()):
        for values in (f, col) if col is not None else (f,):
            ok, residual = verify_structure(host, values, s)
            assert residual == expect
            assert ok == expect.is_zero()


def test_structure_from_a_distance_coloring_multiplies_no_matrix(monkeypatch):
    g = hamming_graph(6, 2)
    col = distance_coloring(g, [0])
    products = []
    original = RatMatrix.__matmul__

    def counting(a, b):
        products.append((a.shape(), b.shape()))
        return original(a, b)

    monkeypatch.setattr(RatMatrix, "__matmul__", counting)
    struct = PerfectStructure(g, col)
    assert products == []
    assert struct.params.shape() == (7, 7)
