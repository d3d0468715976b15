"""Acceptance suite.

One test per criterion; each prints a [PASS]/[FAIL] line (visible with
``pytest -s``) and enforces its stated runtime budget.  Every comparison is
exact; there are no tolerances anywhere.
"""
import functools
import random
import time
from fractions import Fraction

from eqpart.codes import extended_hamming_code_vertices, hamming_code_vertices
from eqpart.distributions import (
    fiber_distribution,
    lattice_distribution,
    pcube_distribution,
    reconstruct_from_first_row,
    subcube_distribution,
    vertex_distribution,
)
from eqpart.drg import (
    IntersectionArray,
    hamming_intersection_array,
    intersection_array,
    krawtchouk_p_polynomials,
    krawtchouk_recurrence_check,
    p_polynomials,
)
from eqpart.equitable import (
    Coloring,
    PerfectStructure,
    all_one_coloring,
    check_completely_regular,
    distance_coloring,
    fiber_coloring,
    lattice_coloring,
    quotient_matrix,
    structure_from_coloring,
    tensor_params,
    trivial_coloring,
    verify_structure,
)
from eqpart.graphs import (
    decode_word,
    direct_product,
    halved_cube,
    hamming_graph,
    johnson_graph,
)
from eqpart.localdist import (
    reconstruct_local,
    star_params,
    tensor_distribution,
    tensor_structure,
    unrearrange,
)
from eqpart.oracle import brute_distribution
from eqpart.ratmat import RatMatrix, from_json

from helpers import (
    all_pairs_distances,
    candidate_intersection_numbers,
    check_polynomials_give_distance_matrices,
    distance_w_matrix,
    label_distance_matrix,
    mat_poly_eval,
    rows_by_matrix_polynomials,
    rows_by_polynomials,
)

H = functools.lru_cache(maxsize=None)(hamming_graph)
J = functools.lru_cache(maxsize=None)(johnson_graph)
HC = functools.lru_cache(maxsize=None)(halved_cube)


@functools.lru_cache(maxsize=None)
def cached_array(kind, *params):
    graph = {"H": H, "J": J, "HC": HC}[kind](*params)
    return intersection_array(graph)


def criterion(name, budget=None):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            start = time.monotonic()
            try:
                fn()
                elapsed = time.monotonic() - start
                if budget is not None:
                    assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds {budget}s"
            except BaseException:
                print(f"[FAIL] {name}")
                raise
            print(f"[PASS] {name} ({elapsed:.2f}s)")

        return wrapper

    return deco


def vertex_coloring(g, v=0):
    return distance_coloring(g, [v])


def sum_over(code, coloring_or_struct):
    colors = getattr(coloring_or_struct, "colors", None)
    if colors is not None:
        f0 = [Fraction(0)] * coloring_or_struct.n_colors
        for v in code:
            f0[colors[v]] += 1
        return f0
    values = coloring_or_struct.value_matrix()
    f0 = [Fraction(0)] * values.cols
    for v in code:
        for j, x in enumerate(values.row(v)):
            f0[j] += x
    return f0


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


@criterion("criterion 1: printed 9x9 product parameter matrix", budget=1.0)
def test_criterion_1_tensor_structure_9x9():
    g = H(2, 3)
    s = structure_from_coloring(g, vertex_coloring(g))
    ts = tensor_structure(s, s)
    assert ts.params == PRODUCT_PARAMS_9X9


@criterion("criterion 2: single-error-correcting code examples", budget=1.0)
def test_criterion_2_code_examples():
    g7 = H(7, 2)
    code = hamming_code_vertices(3)
    crc = check_completely_regular(g7, code)
    assert crc.rho == 1 and crc.params == from_json([[0, 7], [1, 6]])

    g8 = H(8, 2)
    crc8 = check_completely_regular(g8, extended_hamming_code_vertices(3))
    assert crc8.rho == 2
    assert crc8.params == from_json([[0, 8, 0], [1, 0, 7], [0, 8, 0]])

    members = set(code)
    values = from_json([[7 if v in members else -1] for v in range(g7.n)])
    ok, _ = verify_structure(g7, values, from_json([[-1]]))
    assert ok


@criterion("criterion 3: code weight distribution from a codeword", budget=1.0)
def test_criterion_3_vertex_distribution_vs_enumeration():
    g = H(7, 2)
    code = hamming_code_vertices(3)
    col = distance_coloring(g, code)
    s = quotient_matrix(g, col)
    dist = vertex_distribution(g, s, 0)
    polys = p_polynomials(hamming_intersection_array(7, 2))
    assert dist == rows_by_polynomials(RatMatrix([[1, 0]]), polys, s)
    column = tuple(dist[w, 0] for w in range(8))
    assert column == (1, 0, 0, 7, 7, 0, 0, 1)
    weights = [0] * 8
    for v in code:
        weights[bin(v).count("1")] += 1
    assert column == tuple(weights)


@criterion("criterion 4: kernel and polynomial reconstruction on 100 code instances")
def test_criterion_4_reconstruction_routes():
    crc_pool = []
    for g, code in [
        (H(3, 2), [0]),
        (H(6, 2), [0]),
        (H(9, 2), [0]),
        (H(4, 3), [0]),
        (H(5, 3), [0]),
        (J(6, 3), [0]),
        (HC(6), [0]),
        (H(7, 2), hamming_code_vertices(3)),
        (H(8, 2), extended_hamming_code_vertices(3)),
    ]:
        crc_pool.append((g, list(code), check_completely_regular(g, code)))
    for m, k, q in [(2, 2, 2), (3, 1, 2), (2, 1, 3), (2, 2, 3)]:
        lat = lattice_coloring(m, k, q)
        code = lat.class_vertices(0)
        crc_pool.append((lat.graph, code, check_completely_regular(lat.graph, code)))
    for n, p, q in [(2, 2, 3), (3, 2, 3)]:
        g = H(n, q)
        code = [v for v in range(g.n) if all(x < p for x in decode_word(v, n, q))]
        crc_pool.append((g, code, check_completely_regular(g, code)))
    assert all(g.n <= 512 for g, _, _ in crc_pool)

    rng = random.Random(20240301)
    checked = 0
    for _ in range(100):
        g, code, crc = rng.choice(crc_pool)
        b = crc.params.transpose()
        n_rows = crc.rho + 1
        if rng.random() < 0.5:
            # a real structure: the code's own distance coloring
            col = distance_coloring(g, code)
            s = quotient_matrix(g, col)
            h0 = sum_over(code, col)
        else:
            k = rng.randint(1, 3)
            s = RatMatrix(
                [
                    [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(k)]
                    for _ in range(k)
                ]
            )
            h0 = [Fraction(rng.randint(-9, 9)) for _ in range(k)]
        kernel = reconstruct_from_first_row(b, s, h0)
        assert kernel == rows_by_matrix_polynomials(b, s, h0, n_rows)
        checked += 1
    assert checked == 100


def _hamming_factorizations(n):
    return [(m, n // m) for m in range(1, n + 1) if n % m == 0]


def _colorings_over_cube(n, q, include_own_color=True):
    """The f pool over a Hamming graph: one-color, vertex, block-sum
    colorings (the m = 1 block-sum coloring is the own-color coloring)."""
    g = H(n, q)
    pool = [all_one_coloring(g), vertex_coloring(g)]
    for m, k in _hamming_factorizations(n):
        if m == 1 and (not include_own_color or g.n > 32):
            continue
        lat = lattice_coloring(m, k, q)
        pool.append(Coloring(g, lat.colors, lat.n_colors))
    return g, pool


@criterion("criterion 5: oracle equivalence sweep", budget=60.0)
def test_criterion_5_oracle_sweep():
    comparisons = 0

    # distributions with respect to a vertex
    drg_pool = (
        [("H", n, q) for q in (2, 3) for n in range(1, 6)]
        + [("J", n, k) for n, k in [(4, 2), (5, 2), (6, 2), (6, 3)]]
        + [("HC", n) for n in range(3, 7)]
    )
    for kind, *params in drg_pool:
        g = {"H": H, "J": J, "HC": HC}[kind](*params)
        polys = p_polynomials(cached_array(kind, *params))
        if kind == "H":
            _, f_pool = _colorings_over_cube(*params)
        else:
            f_pool = [all_one_coloring(g), vertex_coloring(g)]
            if g.n <= 32:
                f_pool.append(trivial_coloring(g))
        for f in f_pool:
            s = quotient_matrix(g, f)
            per_color = {}
            if g.n <= 128:
                sample = range(g.n)
            else:
                firsts = {f.colors[v]: v for v in reversed(range(g.n))}
                sample = sorted(set(firsts.values()) | set(range(0, g.n, 17)))
            for v in sample:
                j = f.colors[v]
                if j not in per_color:
                    per_color[j] = vertex_distribution(g, s, j)
                    e_j = RatMatrix([[int(i == j) for i in range(s.rows)]])
                    assert per_color[j] == rows_by_polynomials(e_j, polys, s)
                assert per_color[j] == brute_distribution(g, [v], f)
                comparisons += 1

    # distributions with respect to the block-sum zero class
    for q in (2, 3):
        for n in range(1, 6):
            if q**n > 243:
                continue
            g, f_pool = _colorings_over_cube(n, q)
            for m, k in _hamming_factorizations(n):
                lat = lattice_coloring(m, k, q)
                code = lat.class_vertices(0)
                for f in f_pool:
                    s = quotient_matrix(g, f)
                    dist = lattice_distribution(m, k, q, s, sum_over(code, f))
                    assert dist == brute_distribution(g, code, f)
                    comparisons += 1

    # distributions with respect to a product fiber
    products = [
        (H(1, 2), H(2, 3)),
        (H(2, 2), H(2, 2)),
        (J(4, 2), H(1, 3)),
        (HC(4), H(1, 2)),
        (H(2, 3), J(4, 2)),
        (H(2, 2), J(5, 2)),
        (H(1, 3), HC(4)),
    ]
    for left, right in products:
        prod = direct_product(left, right)
        code = [v1 * right.n for v1 in range(left.n)]
        d = left.degree(0)
        fib = fiber_coloring(left, right)
        f_pool = [
            all_one_coloring(prod),
            Coloring(prod, fib.colors, fib.n_colors),
            tensor_structure(
                structure_from_coloring(left, vertex_coloring(left)),
                structure_from_coloring(right, vertex_coloring(right)),
            ),
        ]
        for f in f_pool:
            if isinstance(f, PerfectStructure):
                s, f0 = f.params, sum_over(code, f)
            else:
                s, f0 = quotient_matrix(prod, f), sum_over(code, f)
            dist = fiber_distribution(right, d, s, f0)
            assert dist == brute_distribution(prod, code, f)
            comparisons += 1

    # subcube specialization of the fiber formula
    for q in (2, 3):
        for total in range(2, 6):
            if q**total > 243:
                continue
            g, f_pool = _colorings_over_cube(total, q)
            for m in range(1, total):
                k = total - m
                code = [
                    v
                    for v in range(g.n)
                    if all(x == 0 for x in decode_word(v, total, q)[m:])
                ]
                for f in f_pool:
                    s = quotient_matrix(g, f)
                    f0 = sum_over(code, f)
                    dist = subcube_distribution(m, k, q, s, f0)
                    assert dist == brute_distribution(g, code, f)
                    assert dist == fiber_distribution(H(k, q), (q - 1) * m, s, f0)
                    comparisons += 1

    # smaller-alphabet subcube of the same dimension
    for p, q in [(1, 2), (1, 3), (2, 3)]:
        for n in range(1, 6):
            if q**n > 243:
                continue
            g, f_pool = _colorings_over_cube(n, q)
            code = [v for v in range(g.n) if all(x < p for x in decode_word(v, n, q))]
            for f in f_pool:
                s = quotient_matrix(g, f)
                dist = pcube_distribution(n, p, q, s, sum_over(code, f))
                assert dist == brute_distribution(g, code, f)
                comparisons += 1

    assert comparisons >= 500


@criterion("criterion 6: distance polynomials hit distance matrices")
def test_criterion_6_p_polynomial_soundness():
    # exact rational evaluation on small graphs, through the public routine
    for g in (H(1, 2), H(2, 2), H(3, 2), H(2, 3), J(4, 2), J(5, 2), HC(4)):
        polys = p_polynomials(intersection_array(g))
        dist = all_pairs_distances(g)
        a = g.adjacency_matrix()
        for w in range(len(polys)):
            assert mat_poly_eval(polys[w], a) == distance_w_matrix(g, dist, w)

    # denominator-cleared integer evaluation across the generated families
    sweep = (
        [H(n, 2) for n in range(1, 10)]
        + [H(n, 3) for n in range(1, 7)]
        + [H(n, 4) for n in range(1, 5)]
        + [H(n, 5) for n in range(1, 4)]
        + [J(n, k) for n, k in [(4, 2), (5, 2), (6, 2), (6, 3), (7, 3), (8, 4), (9, 4), (10, 5), (12, 6)]]
        + [HC(n) for n in range(3, 11)]
    )
    assert all(g.n <= 1000 for g in sweep)
    for g in sweep:
        if g.n <= 260:
            ia = intersection_array(g)
        elif g.name.startswith("H("):
            n = len(g.labels[0])
            q = max(max(lbl) for lbl in g.labels) + 1
            ia = hamming_intersection_array(n, q)
        else:
            ia = IntersectionArray(*candidate_intersection_numbers(g))
        check_polynomials_give_distance_matrices(g, ia, dist=label_distance_matrix(g))

    # closed-form composition equals the recurrence, coefficient by coefficient
    for q in (2, 3, 4):
        for n in range(1, 8):
            assert (
                p_polynomials(hamming_intersection_array(n, q)).polys
                == krawtchouk_p_polynomials(n, q).polys
            )


@criterion("criterion 7: three-term identity at rational parameters")
def test_criterion_7_recurrence_identity():
    for q in (2, 3, 4, Fraction(3, 2), Fraction(5, 2)):
        for n in range(2, 9):
            for w in range(1, n):
                assert krawtchouk_recurrence_check(w, n, q)


@criterion("criterion 8: rearrangement round-trip and product identities")
def test_criterion_8_rearrangement_identities():
    instances = []

    def vertex_struct(g):
        return structure_from_coloring(g, vertex_coloring(g))

    pairs = [
        (H(2, 3), H(2, 3)),
        (H(3, 2), H(3, 2)),
        (J(4, 2), H(2, 3)),
        (HC(4), H(2, 2)),
        (H(1, 3), J(5, 2)),
        (H(5, 2), H(5, 2)),
    ]
    for left, right in pairs:
        prod = direct_product(left, right)
        g1, g2 = vertex_struct(left), vertex_struct(right)
        f_pool = [structure_from_coloring(prod, all_one_coloring(prod))]
        if prod.n <= 128:
            fib = fiber_coloring(left, right)
            f_pool.append(
                structure_from_coloring(prod, Coloring(prod, fib.colors, fib.n_colors))
            )
            f_pool.append(tensor_structure(g1, g2))
        if left.name.startswith("H(") and right.name.startswith("H(") and prod.n <= 128:
            f_pool.append(structure_from_coloring(prod, distance_coloring(prod, [0])))
        for f in f_pool:
            instances.append((left, right, g1, g2, f))

    # touch the size ceiling with one-color factor structures
    big = H(6, 2)
    ones = structure_from_coloring(big, all_one_coloring(big))
    big_prod = direct_product(big, big)
    instances.append(
        (big, big, ones, ones, structure_from_coloring(big_prod, distance_coloring(big_prod, [0])))
    )

    assert max(g1.graph.n * g2.graph.n for _, _, g1, g2, _ in instances) == 4096
    for left, right, g1, g2, f in instances:
        rd = tensor_distribution(g1, g2, f)
        # round trip is exact
        assert unrearrange(rd.h_star, rd.n_right) == rd.h
        # the governing identity of h, recomputed here
        lhs = tensor_params(g1.params.transpose(), g2.params.transpose()) @ rd.h
        assert lhs == rd.h @ f.params
        # and the rearranged identity
        assert g1.params.transpose() @ rd.h_star == rd.h_star @ star_params(
            g2.params, f.params
        )
        # first-row reconstruction agrees whenever the left factor qualifies
        if rd.n_left > 1:
            full = reconstruct_local(
                left, g2.params, f.params, RatMatrix([rd.h_star.row(0)])
            )
            assert full == rd.h_star
