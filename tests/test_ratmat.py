import random
from fractions import Fraction

import pytest

from eqpart.errors import ShapeError
from eqpart.ratmat import (
    RatMatrix,
    from_json,
    parse_rational,
    rat_str,
    tensor,
)

from helpers import mat_poly_eval, solve


def rand_matrix(rng, rows, cols, span=6):
    return RatMatrix(
        [
            [Fraction(rng.randint(-span, span), rng.randint(1, span)) for _ in range(cols)]
            for _ in range(rows)
        ]
    )


def test_parse_rational_roundtrip():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(5) == Fraction(5)
    assert rat_str(Fraction(3, 4)) == "3/4"
    assert rat_str(Fraction(-7)) == "-7"
    assert rat_str(Fraction(0)) == "0"


def test_floats_and_bools_rejected():
    with pytest.raises(ShapeError):
        parse_rational(0.5)
    with pytest.raises(ShapeError):
        parse_rational(True)
    with pytest.raises(ShapeError):
        RatMatrix([[1.5]])


def test_field_axioms_on_random_scalars():
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c


def test_matrix_arithmetic_and_equality():
    a = from_json([[1, 2], [3, 4]])
    b = from_json([["1/2", 0], [0, "1/2"]])
    assert a + b - b == a
    assert a.scale(2) == from_json([[2, 4], [6, 8]])
    assert (a @ b) == from_json([["1/2", 1], ["3/2", 2]])
    assert a.transpose() == from_json([[1, 3], [2, 4]])
    assert (-a) + a == RatMatrix.zeros(2, 2)
    with pytest.raises(ShapeError):
        a @ from_json([[1, 2]])


def test_rendering_text():
    m = from_json([["1/2", 3], [0, "-5/7"]])
    assert str(m) == "1/2 3\n0 -5/7"
    assert m.to_strings() == [["1/2", "3"], ["0", "-5/7"]]


def test_tensor_identity_block_diagonal():
    m = from_json([[1, 2], [3, 4]])
    t = tensor(RatMatrix.identity(2), m)
    assert t == from_json([[1, 2, 0, 0], [3, 4, 0, 0], [0, 0, 1, 2], [0, 0, 3, 4]])


def test_tensor_index_convention():
    a = from_json([[1, 2], [3, 4]])
    b = from_json([[5, 6], [7, 8]])
    t = tensor(a, b)
    for i1 in range(2):
        for i2 in range(2):
            for j1 in range(2):
                for j2 in range(2):
                    assert t[i1 * 2 + i2, j1 * 2 + j2] == a[i1, j1] * b[i2, j2]


PRODUCT_PARAMS_9X9 = [
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


def test_tensor_sum_reproduces_printed_9x9():
    s3 = from_json([[0, 4, 0], [1, 1, 2], [0, 2, 2]])
    i3 = RatMatrix.identity(3)
    assert tensor(s3, i3) + tensor(i3, s3) == from_json(PRODUCT_PARAMS_9X9)


def test_tensor_associativity_up_to_flattening():
    rng = random.Random(31)
    a, b, c = (rand_matrix(rng, 2, 2) for _ in range(3))
    assert tensor(tensor(a, b), c) == tensor(a, tensor(b, c))


def test_tensor_mixed_product_law():
    rng = random.Random(11)
    for _ in range(20):
        x, y, z, v = (rand_matrix(rng, 2, 2) for _ in range(4))
        assert tensor(x, y) @ tensor(z, v) == tensor(x @ z, y @ v)


def test_tensor_mixed_product_law_rectangular():
    rng = random.Random(12)
    x = rand_matrix(rng, 2, 3)
    z = rand_matrix(rng, 3, 2)
    y = rand_matrix(rng, 3, 2)
    v = rand_matrix(rng, 2, 3)
    assert tensor(x, y) @ tensor(z, v) == tensor(x @ z, y @ v)


def test_mat_poly_eval_trivial_cases():
    m = from_json([[1, 2], [3, 4]])
    assert mat_poly_eval([1], m) == RatMatrix.identity(2)
    assert mat_poly_eval([0, 1], m) == m
    assert mat_poly_eval([2, 0, 1], m) == m @ m + RatMatrix.identity(2).scale(2)


def test_mat_poly_eval_requires_square():
    with pytest.raises(ShapeError):
        mat_poly_eval([1], from_json([[1, 2]]))


def test_mat_poly_eval_multiplicativity():
    # p(m) q(m) == (p*q)(m) for random cubic polynomials
    from eqpart.drg import poly_mul

    rng = random.Random(13)
    m = rand_matrix(rng, 3, 3, span=3)
    for _ in range(10):
        p = [Fraction(rng.randint(-4, 4)) for _ in range(4)]
        q = [Fraction(rng.randint(-4, 4)) for _ in range(4)]
        lhs = mat_poly_eval(p, m) @ mat_poly_eval(q, m)
        assert lhs == mat_poly_eval(poly_mul(p, q), m)


def test_row_poly_eval_matches_full_evaluation():
    from eqpart.ratmat import row_poly_eval

    rng = random.Random(19)
    for _ in range(15):
        m = rand_matrix(rng, 4, 4, span=3)
        row = RatMatrix.row_vector(
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
        )
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 5))]
        assert row_poly_eval(row, coeffs, m) == row @ mat_poly_eval(coeffs, m)
    with pytest.raises(ShapeError):
        row_poly_eval([1, 2, 3], [1], RatMatrix.identity(2))


def test_solve_roundtrip():
    rng = random.Random(17)
    for _ in range(10):
        a = rand_matrix(rng, 4, 4)
        while True:
            try:
                x = solve(a, RatMatrix.identity(4))
                break
            except ShapeError:
                a = rand_matrix(rng, 4, 4)
        assert a @ x == RatMatrix.identity(4)
    with pytest.raises(ShapeError):
        solve(from_json([[1, 1], [1, 1]]), RatMatrix.identity(2))
