"""Generated cases for the RatMatrix kernel against naive Fraction matrices.

Every operation is compared entry by entry with the list-of-Fraction
reference in ``helpers``, on all-integer and on mixed matrices; sizes are
bounded (shapes 1..6, numerators in [-9, 9], denominators in [1, 9]).
Equality and hashing are checked not to depend on how an input was written.
"""
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from eqpart.ratmat import RatMatrix, row_poly_eval, tensor
from helpers import (
    fractions_of,
    ref_add,
    ref_matmul,
    ref_row_poly,
    ref_scale,
    ref_sub,
    ref_sum_rows,
    ref_tensor,
    ref_transpose,
)

PROPS = settings(max_examples=80, deadline=None, database=None)

sizes = st.integers(1, 6)
numerators = st.integers(-9, 9)
scalars = st.builds(Fraction, numerators, st.integers(1, 9))


@st.composite
def matrices(draw, rows=None, cols=None, integer=None):
    """Fraction rows of the given (or a drawn) shape: all integers or mixed."""
    rows = draw(sizes) if rows is None else rows
    cols = draw(sizes) if cols is None else cols
    integer = draw(st.booleans()) if integer is None else integer
    entry = numerators.map(Fraction) if integer else scalars
    return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


@st.composite
def written(draw, x: Fraction):
    """One of the ways a file or a caller may write x."""
    forms = [x, f"{x.numerator}/{x.denominator}"]
    k = draw(st.integers(1, 5))
    forms.append(f"{x.numerator * k}/{x.denominator * k}")
    if x.denominator == 1:
        forms += [x.numerator, str(x.numerator)]
    if x == 0:
        forms += ["-0", "+0", "0/7", "-0/3"]
    return draw(st.sampled_from(forms))


def same_shape_pair():
    return st.tuples(sizes, sizes).flatmap(
        lambda s: st.tuples(matrices(*s), matrices(*s)))


def conformable_pair():
    return st.tuples(sizes, sizes, sizes).flatmap(
        lambda s: st.tuples(matrices(s[0], s[1]), matrices(s[1], s[2])))


def check(result: RatMatrix, expect) -> None:
    assert fractions_of(result) == expect
    assert result == RatMatrix(expect)
    assert hash(result) == hash(RatMatrix(expect))


@PROPS
@given(same_shape_pair())
def test_add_and_sub(pair):
    a, b = pair
    check(RatMatrix(a) + RatMatrix(b), ref_add(a, b))
    check(RatMatrix(a) - RatMatrix(b), ref_sub(a, b))
    check(-RatMatrix(a), ref_scale(Fraction(-1), a))


@PROPS
@given(matrices(), scalars)
def test_scale(a, c):
    check(RatMatrix(a).scale(c), ref_scale(c, a))
    check(RatMatrix(a).scale(f"{c.numerator}/{c.denominator}"), ref_scale(c, a))


@PROPS
@given(conformable_pair())
def test_matmul(pair):
    a, b = pair
    check(RatMatrix(a) @ RatMatrix(b), ref_matmul(a, b))


@PROPS
@given(matrices())
def test_transpose(a):
    check(RatMatrix(a).transpose(), ref_transpose(a))


@PROPS
@given(st.tuples(sizes, sizes, sizes, sizes).flatmap(
    lambda s: st.tuples(matrices(s[0], s[1]), matrices(s[2], s[3]))))
def test_tensor(pair):
    a, b = pair
    check(tensor(RatMatrix(a), RatMatrix(b)), ref_tensor(a, b))


@PROPS
@given(sizes.flatmap(lambda n: st.tuples(matrices(1, n), matrices(n, n))),
       st.lists(scalars, min_size=1, max_size=6))
def test_row_poly_eval(operands, coeffs):
    row, m = operands
    expect = ref_row_poly(row[0], coeffs, m)
    check(row_poly_eval(RatMatrix(row), coeffs, RatMatrix(m)), expect)
    check(row_poly_eval(row[0], [str(c) for c in coeffs], RatMatrix(m)), expect)


@PROPS
@given(st.data())
def test_sum_rows(data):
    a = data.draw(matrices())
    index = st.integers(0, len(a) - 1)
    groups = data.draw(st.lists(st.lists(index, max_size=8), min_size=1, max_size=6))
    check(RatMatrix(a).sum_rows(groups), ref_sum_rows(a, groups))


@PROPS
@given(st.data())
def test_equality_and_hash_ignore_how_entries_are_written(data):
    a = data.draw(matrices())
    b = [[data.draw(written(x)) for x in row] for row in a]
    assert RatMatrix(a) == RatMatrix(b)
    assert hash(RatMatrix(a)) == hash(RatMatrix(b))
    assert fractions_of(RatMatrix(b)) == a
    assert RatMatrix(b).to_strings() == [[str(x) for x in row] for row in a]


@PROPS
@given(st.tuples(sizes, sizes, sizes).flatmap(
    lambda s: st.tuples(matrices(s[0], s[1], integer=True),
                        matrices(s[1], s[2], integer=True))),
       scalars.filter(bool))
def test_product_that_cancels_equals_the_integer_matrix(pair, t):
    x, y = pair
    product = RatMatrix(x).scale(t) @ RatMatrix(y).scale(1 / t)
    integer = RatMatrix([[int(v) for v in row] for row in ref_matmul(x, y)])
    assert product == integer
    assert hash(product) == hash(integer)
    assert product.to_strings() == integer.to_strings()
