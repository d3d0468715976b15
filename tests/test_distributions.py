import random
from fractions import Fraction

import pytest

from eqpart import distributions
from eqpart.codes import hamming_code_vertices
from eqpart.distributions import (
    distribution,
    fiber_distribution,
    lattice_distribution,
    pcube_distribution,
    reconstruct_from_first_row,
    subcube_distribution,
    vertex_distribution,
)
from eqpart.drg import hamming_intersection_array, intersection_array, johnson_intersection_array
from eqpart.equitable import (
    PerfectStructure,
    all_one_coloring,
    check_completely_regular,
    distance_coloring,
    lattice_coloring,
    quotient_matrix,
)
from eqpart.errors import EqpartError, ReconstructionError, ShapeError, StructureError
from eqpart.graphs import decode_word, direct_product, hamming_graph, johnson_graph
from eqpart.oracle import brute_distribution
from eqpart.ratmat import RatMatrix, band, from_json, recurrence_rows

from helpers import reconstruction_polynomials, rows_by_matrix_polynomials

S3 = from_json([[0, 4, 0], [1, 1, 2], [0, 2, 2]])


def test_distribution_all_one_on_k2():
    g = hamming_graph(1, 2)
    ones = PerfectStructure(g, all_one_coloring(g))
    assert distribution(ones, ones) == from_json([[2]])


def test_distribution_vertex_coloring_diagonal():
    g = hamming_graph(2, 3)
    struct = PerfectStructure(g, distance_coloring(g, [0]))
    dist = distribution(struct, struct)
    assert dist == from_json([[1, 0, 0], [0, 4, 0], [0, 0, 4]])


def test_distribution_code_coloring():
    g = hamming_graph(7, 2)
    struct = PerfectStructure(g, distance_coloring(g, hamming_code_vertices(3)))
    assert distribution(struct, struct) == from_json([[16, 0], [0, 112]])


def test_distribution_total_is_vertex_count():
    g = hamming_graph(3, 2)
    f = PerfectStructure(g, distance_coloring(g, [0]))
    ones = PerfectStructure(g, all_one_coloring(g))
    rows = distribution(ones, f)
    assert sum(x for row in rows for x in row) == g.n


def test_distribution_identity_holds_for_mixed_pair():
    g = hamming_graph(4, 2)
    gcol = PerfectStructure(g, distance_coloring(g, [0]))
    fcol = PerfectStructure(g, lattice_coloring(2, 2, 2))
    dist = distribution(gcol, fcol)
    h = dist
    assert gcol.params.transpose() @ h == h @ fcol.params


def test_distribution_column_sums_are_class_sizes():
    g = hamming_graph(4, 2)
    f = distance_coloring(g, [0])
    gcol = PerfectStructure(g, lattice_coloring(2, 2, 2))
    rows = distribution(gcol, PerfectStructure(g, f))
    for j in range(rows.cols):
        assert sum(rows[i, j] for i in range(rows.rows)) == f.class_sizes()[j]


def test_johnson_vertex_distribution_matches_eberlein_values():
    # the polynomial route must reproduce the sphere sizes that the closed
    # form produces at the integer point 0
    from eqpart.drg import eberlein, poly_eval

    g = johnson_graph(5, 2)
    col = distance_coloring(g, [0])
    s = quotient_matrix(g, col)
    dist = vertex_distribution(intersection_array(g), s, 0)
    expect = [
        [poly_eval(eberlein(w, 5, 2), 0) if j == w else Fraction(0) for j in range(3)]
        for w in range(3)
    ]
    assert dist == RatMatrix(expect)


def test_distribution_rejects_mismatched_hosts():
    g1 = PerfectStructure(hamming_graph(2, 2), all_one_coloring(hamming_graph(2, 2)))
    g2 = PerfectStructure(hamming_graph(1, 3), all_one_coloring(hamming_graph(1, 3)))
    with pytest.raises(ShapeError):
        distribution(g1, g2)


def test_a_broken_distribution_identity_names_its_first_difference(monkeypatch):
    # values that no longer satisfy A f = f S: vertex 0 of H(2,3) counts colour 0 twice
    g = hamming_graph(2, 3)
    f = PerfectStructure(g, distance_coloring(g, [0]))
    real = PerfectStructure.value_matrix
    bump = RatMatrix([[1, 0, 0]] + [[0, 0, 0]] * 8)
    monkeypatch.setattr(PerfectStructure, "value_matrix", lambda self: real(self) + bump)
    with pytest.raises(StructureError, match=(
            r"^distribution identity failed; inputs are inconsistent: first difference at "
            r"row 0, column 1: R\^T H 4, H S 16$")):
        distribution(f, f)


# -- first-row reconstruction ----------------------------------------------


def test_reconstruct_single_vertex_of_k2():
    b = from_json([[0, 1], [1, 0]])
    dist = reconstruct_from_first_row(b, from_json([[1]]), [1])
    assert dist == from_json([[1], [1]])


def test_reconstruct_vertex_coloring_matches_distribution():
    dist = reconstruct_from_first_row(S3.transpose(), S3, [1, 0, 0])
    assert dist == from_json([[1, 0, 0], [0, 4, 0], [0, 0, 4]])


def test_reconstruct_code_eigenfunction():
    b = from_json([[0, 7], [1, 6]]).transpose()
    dist = reconstruct_from_first_row(b, from_json([[-1]]), [112])
    assert dist == from_json([[112], [-112]])


def test_reconstruct_pattern_errors():
    with pytest.raises(ReconstructionError):
        reconstruct_from_first_row(from_json([[0, 0], [1, 0]]), from_json([[1]]), [1])
    bad = from_json([[0, 1, 5], [1, 0, 1], [0, 1, 0]])
    with pytest.raises(ReconstructionError):
        reconstruct_from_first_row(bad, from_json([[1]]), [1])
    with pytest.raises(ShapeError):
        reconstruct_from_first_row(from_json([[0, 1]]), from_json([[1]]), [1])


def test_reconstruction_polynomial_degrees():
    b = from_json([[0, 2, 0], [1, 1, 2], [0, 3, 1]])
    polys = reconstruction_polynomials(b, 3)
    for i, p in enumerate(polys):
        assert len(p) == i + 1 and p[-1] != 0


def test_both_reconstruction_routes_agree_on_random_inputs():
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randint(2, 5)
        rows = []
        for i in range(n):
            row = [Fraction(rng.randint(-3, 3)) if abs(i - j) <= 1 else Fraction(0)
                   for j in range(n)]
            if i + 1 < n:
                row[i + 1] = Fraction(rng.randint(1, 4))
            rows.append(row)
        b = RatMatrix(rows)
        k = rng.randint(1, 3)
        s = RatMatrix(
            [[Fraction(rng.randint(-3, 3)) for _ in range(k)] for _ in range(k)]
        )
        h0 = [Fraction(rng.randint(-5, 5)) for _ in range(k)]
        kernel = reconstruct_from_first_row(b, s, h0)
        assert kernel == rows_by_matrix_polynomials(b, s, h0, n)


# -- vertex distributions ----------------------------------------------------


def test_vertex_distribution_first_row_is_unit():
    g = hamming_graph(2, 3)
    dist = vertex_distribution(intersection_array(g), S3, 1)
    assert dist.row(0) == (0, 1, 0)


def test_vertex_distribution_3ary_2cube():
    g = hamming_graph(2, 3)
    dist = vertex_distribution(intersection_array(g), S3, 0)
    expect = from_json([[1, 0, 0], [0, 4, 0], [0, 0, 4]])
    assert dist == expect
    assert brute_distribution(g, [0], distance_coloring(g, [0])) == expect


def test_vertex_distribution_hamming_code_column():
    g = hamming_graph(7, 2)
    col = distance_coloring(g, hamming_code_vertices(3))
    s = quotient_matrix(g, col)
    dist = vertex_distribution(intersection_array(g), s, 0)
    codeword_column = tuple(dist[w, 0] for w in range(8))
    assert codeword_column == (1, 0, 0, 7, 7, 0, 0, 1)
    # against the brute-force weight enumerator of the 16 codewords
    weights = [0] * 8
    for v in hamming_code_vertices(3):
        weights[bin(v).count("1")] += 1
    assert codeword_column == tuple(weights)
    assert brute_distribution(g, [0], col) == dist


def test_vertex_distribution_consistent_with_reconstruction():
    g = johnson_graph(5, 2)
    vcol = distance_coloring(g, [0])
    r = quotient_matrix(g, vcol)
    f = distance_coloring(g, [1])
    s = quotient_matrix(g, f)
    j = f.colors[0]
    via_polys = vertex_distribution(intersection_array(g), s, j)
    e_j = [Fraction(1) if i == j else Fraction(0) for i in range(s.rows)]
    via_rows = reconstruct_from_first_row(r.transpose(), s, e_j)
    assert via_polys == via_rows
    assert brute_distribution(g, [0], f) == via_polys


def test_vertex_distribution_rejects_bad_color():
    with pytest.raises(ShapeError):
        vertex_distribution(intersection_array(hamming_graph(2, 3)), S3, 5)


# -- lattice distributions ---------------------------------------------------


def test_lattice_distribution_first_row_is_f0():
    dist = lattice_distribution(2, 2, 2, from_json([[4]]), [4])
    assert dist.row(0) == (4,)


def test_lattice_distribution_all_one_small():
    dist = lattice_distribution(2, 1, 2, from_json([[2]]), [2])
    assert dist == from_json([[2], [2]])

    dist = lattice_distribution(2, 2, 2, from_json([[4]]), [4])
    assert dist == from_json([[4], [8], [4]])


def test_lattice_distribution_rejects_m0():
    with pytest.raises(EqpartError):
        lattice_distribution(0, 1, 2, from_json([[2]]), [2])


@pytest.mark.parametrize("m,k,q", [(2, 1, 2), (2, 2, 2), (1, 2, 3), (2, 1, 3), (3, 1, 2)])
def test_lattice_distribution_matches_oracle(m, k, q):
    lat = lattice_coloring(m, k, q)
    g = lat.graph
    code = lat.class_vertices(0)
    for f in (all_one_coloring(g), distance_coloring(g, [0]), lat):
        s = quotient_matrix(g, f)
        f0 = [Fraction(0)] * f.n_colors
        for v in code:
            f0[f.colors[v]] += 1
        dist = lattice_distribution(m, k, q, s, f0)
        assert dist == brute_distribution(g, code, f)


# -- fiber distributions -------------------------------------------------------


def test_fiber_distribution_4cycle():
    k2 = hamming_graph(1, 2)
    dist = fiber_distribution(intersection_array(k2), 1, from_json([[2]]), [2])
    assert dist == from_json([[2], [2]])
    prod = direct_product(k2, k2)
    code = [0, 2]
    assert dist == brute_distribution(prod, code, all_one_coloring(prod))


def test_fiber_distribution_first_row_is_f0():
    dist = fiber_distribution(intersection_array(hamming_graph(2, 3)), 2, S3, [1, 2, 1])
    assert dist.row(0) == (1, 2, 1)


@pytest.mark.parametrize(
    "left,right",
    [
        (hamming_graph(1, 2), hamming_graph(2, 3)),
        (johnson_graph(4, 2), hamming_graph(2, 2)),
        (hamming_graph(2, 2), johnson_graph(5, 2)),
    ],
)
def test_fiber_distribution_matches_oracle(left, right):
    prod = direct_product(left, right)
    code = [v1 * right.n for v1 in range(left.n)]
    d = left.degree(0)
    for f in (all_one_coloring(prod), distance_coloring(prod, code)):
        s = quotient_matrix(prod, f)
        f0 = [Fraction(0)] * f.n_colors
        for v in code:
            f0[f.colors[v]] += 1
        dist = fiber_distribution(intersection_array(right), d, s, f0)
        assert dist == brute_distribution(prod, code, f)


def test_subcube_distribution_smallest_case():
    # 1-dimensional subcube of the 2-cube, all-one values
    dist = subcube_distribution(1, 1, 2, from_json([[2]]), [2])
    assert dist == from_json([[2], [2]])
    # specialization agrees with the generic fiber route
    generic = fiber_distribution(intersection_array(hamming_graph(1, 2)), 1, from_json([[2]]),
                                  [2])
    assert dist == generic


@pytest.mark.parametrize("m,k,q", [(1, 1, 2), (1, 2, 3), (2, 2, 2), (2, 1, 3)])
def test_subcube_distribution_matches_oracle_and_fiber(m, k, q):
    g = hamming_graph(m + k, q)
    code = [v for v in range(g.n) if all(x == 0 for x in decode_word(v, m + k, q)[m:])]
    for f in (all_one_coloring(g), distance_coloring(g, [0])):
        s = quotient_matrix(g, f)
        f0 = [Fraction(0)] * f.n_colors
        for v in code:
            f0[f.colors[v]] += 1
        dist = subcube_distribution(m, k, q, s, f0)
        assert dist == brute_distribution(g, code, f)
        assert dist == fiber_distribution(intersection_array(hamming_graph(k, q)), (q - 1) * m,
                                          s, f0)


# -- smaller-alphabet subcube -------------------------------------------------


def test_pcube_distribution_examples():
    dist = pcube_distribution(1, 2, 3, from_json([[2]]), [2])
    assert dist == from_json([[2], [1]])

    dist = pcube_distribution(2, 2, 3, from_json([[4]]), [4])
    assert dist == from_json([[4], [4], [1]])

    assert pcube_distribution(2, 2, 3, from_json([[4]]), [4]).row(0) == (4,)


def test_pcube_distribution_rejects_bad_alphabets():
    with pytest.raises(EqpartError):
        pcube_distribution(2, 3, 3, from_json([[4]]), [4])
    with pytest.raises(EqpartError):
        pcube_distribution(2, 0, 3, from_json([[4]]), [4])


@pytest.mark.parametrize("n,p,q", [(1, 2, 3), (2, 2, 3), (3, 2, 3), (2, 1, 3), (2, 1, 2)])
def test_pcube_distribution_matches_oracle(n, p, q):
    g = hamming_graph(n, q)
    code = [v for v in range(g.n) if all(x < p for x in decode_word(v, n, q))]
    for f in (all_one_coloring(g), distance_coloring(g, [0])):
        s = quotient_matrix(g, f)
        f0 = [Fraction(0)] * f.n_colors
        for v in code:
            f0[f.colors[v]] += 1
        dist = pcube_distribution(n, p, q, s, f0)
        assert dist == brute_distribution(g, code, f)


# -- every closed form: the kernel on its code's array and S itself -------------


def kernel_calls(monkeypatch):
    """The (T, b, a, c) of every kernel call a closed form makes."""
    calls = []

    def recording(row, t, b, a, c, den=1):
        calls.append((t, list(b), list(a), list(c)))
        return recurrence_rows(row, t, b, a, c, den)

    monkeypatch.setattr(distributions, "recurrence_rows", recording)
    return calls


FORMS = {
    "vertex": lambda s, f0: vertex_distribution(hamming_intersection_array(3, 2), s, 0),
    "lattice": lambda s, f0: lattice_distribution(2, 3, 3, s, f0),
    "fiber": lambda s, f0: fiber_distribution(johnson_intersection_array(5, 2), 2, s, f0),
    "subcube": lambda s, f0: subcube_distribution(2, 3, 3, s, f0),
    "pcube": lambda s, f0: pcube_distribution(3, 2, 3, s, f0),
}


@pytest.mark.parametrize("form", FORMS)
def test_every_closed_form_hands_the_kernel_s_itself(monkeypatch, form):
    calls = kernel_calls(monkeypatch)
    s = from_json([["1/2", 1], [3, "-2/3"]])
    FORMS[form](s, [1, "1/3"])
    assert len(calls) == 1 and calls[0][0] is s


def code_array(g, code):
    """b, a, c of a completely regular code, read off its quotient matrix R."""
    b, a, c, _ = band(check_completely_regular(g, code).transpose())
    return b, a, c


def hamming_words(n, q, keep):
    g = hamming_graph(n, q)
    return g, [v for v in range(g.n) if keep(decode_word(v, n, q))]


@pytest.mark.parametrize("case", [
    ("vertex", (johnson_graph(5, 2),)), ("vertex", (hamming_graph(3, 3),)),
    ("lattice", (1, 3, 2)), ("lattice", (2, 2, 2)), ("lattice", (2, 1, 3)), ("lattice", (3, 1, 2)),
    ("fiber", (hamming_graph(1, 2), hamming_graph(2, 3))),
    ("fiber", (johnson_graph(4, 2), johnson_graph(5, 2))),
    ("subcube", (1, 2, 3)), ("subcube", (2, 2, 2)), ("subcube", (2, 1, 3)),
    ("pcube", (2, 2, 3)), ("pcube", (3, 1, 2)), ("pcube", (2, 1, 3)), ("pcube", (2, 2, 4)),
], ids=lambda case: case[0] + "-" + ",".join(getattr(x, "name", str(x)) for x in case[1]))
def test_every_closed_form_runs_on_the_array_of_its_code(monkeypatch, case):
    form, args = case
    calls = kernel_calls(monkeypatch)
    s = from_json([[1]])
    if form == "vertex":
        (g,) = args
        code = [0]
        vertex_distribution(intersection_array(g), s, 0)
    elif form == "lattice":
        lat = lattice_coloring(*args)
        g, code = lat.graph, lat.class_vertices(0)
        lattice_distribution(*args, s, [1])
    elif form == "fiber":
        left, right = args
        g = direct_product(left, right)
        code = [v1 * right.n for v1 in range(left.n)]
        fiber_distribution(intersection_array(right), left.degree(0), s, [1])
    elif form == "subcube":
        m, k, q = args
        g, code = hamming_words(m + k, q, lambda word: not any(word[m:]))
        subcube_distribution(m, k, q, s, [1])
    else:
        n, p, q = args
        g, code = hamming_words(n, q, lambda word: max(word) < p)
        pcube_distribution(n, p, q, s, [1])
    assert tuple(calls[0][1:]) == code_array(g, code)


@pytest.mark.parametrize("form", FORMS)
def test_a_non_square_s_has_the_kernels_message_in_every_form(form):
    with pytest.raises(ShapeError) as exc:
        FORMS[form](from_json([[0, 1, 0], [1, 0, 1]]), [1, 0])
    assert str(exc.value) == "the recurrence needs a square matrix, got (2, 3)"
