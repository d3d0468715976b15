"""Dense matrices over exact rationals.

A matrix is stored as rows of Python ``int`` numerators over one positive
common denominator, in canonical form: the gcd of the denominator and every
numerator is 1, so a zero matrix has denominator 1 and an integer matrix is
plain integer rows over 1.  Two matrices are equal exactly when their
reduced rational entries are, and that is a comparison of the stored form.
Sums, products, Kronecker products and polynomial rows are computed on the
integer numerators; ``fractions.Fraction`` appears only where a caller reads
a scalar (``row``, indexing, iteration) and text is rendered from the
numerators.  Matrices are small or sparse-valued (quotient matrices,
indicator rows, distributions), so dense row-major storage and schoolbook
algorithms are the right tool; nothing here ever touches floats.
"""
from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add, mul, sub
from typing import Iterable, Sequence

from .errors import ShapeError

Rational = Fraction

_RATIONAL_TEXT = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _pair(value) -> tuple[int, int]:
    """(numerator, denominator) of an int, a Fraction or a "p/q" string,
    reduced, with a positive denominator.

    Strings must match ``[+-]?[0-9]+(/[0-9]+)?`` exactly, with a nonzero
    denominator; floats and bools are rejected: every value here is exact.
    """
    if type(value) is int:
        return value, 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, bool):
        raise ShapeError(f"boolean is not a rational value: {value!r}")
    if isinstance(value, int):
        return int(value), 1
    if isinstance(value, float):
        raise ShapeError(f"floating point is not accepted: {value!r}")
    if isinstance(value, str):
        match = _RATIONAL_TEXT.fullmatch(value)
        if match is None:
            raise ShapeError(f'{value!r} is not an integer or a "p/q" rational')
        try:
            num, den = int(match[1]), int(match[2] or 1)
        except ValueError as exc:  # more digits than int() converts
            raise ShapeError(f"cannot read {value[:20]!r}...: {exc}") from exc
        if den == 0:
            raise ShapeError(f"zero denominator in {value!r}")
        g = gcd(num, den)
        return num // g, den // g
    raise ShapeError(f"cannot interpret {value!r} as a rational")


def parse_rational(value) -> Fraction:
    """Coerce a JSON-style scalar (int or "p/q" string) to a Fraction; see
    :func:`_pair` for what is accepted."""
    if isinstance(value, Fraction):
        return value
    return Fraction(*_pair(value))


def rat_str(x: Fraction) -> str:
    """Render as "p/q", or just "p" when the denominator is 1."""
    return str(x)


def _text(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` without building the Fraction."""
    if den == 1:
        return str(num)
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


class RatMatrix:
    """Immutable dense matrix of rationals: integer numerator rows over one
    common denominator, kept in canonical form."""

    __slots__ = ("rows", "cols", "_num", "_den")

    def __init__(self, data: Sequence[Sequence]):
        rows = [tuple(row) for row in data]
        if not rows:
            raise ShapeError("matrix needs at least one row")
        ncols = len(rows[0])
        if ncols == 0:
            raise ShapeError("matrix needs at least one column")
        if any(len(r) != ncols for r in rows):
            raise ShapeError("ragged rows")
        if set(map(type, chain.from_iterable(rows))) == {int}:
            num, den = tuple(rows), 1
        else:
            # reduced entries over the lcm of their denominators leave
            # gcd(den, numerators) = 1: the form is canonical already.  Rows
            # go over their own lcm first, so one row of pairs is alive at once.
            row_nums, row_dens = [], []
            for row in rows:
                pairs = [_pair(x) for x in row]
                d = lcm(*(q for _, q in pairs))
                row_nums.append([p * (d // q) for p, q in pairs])
                row_dens.append(d)
            den = lcm(*row_dens)
            num = tuple(
                tuple(r) if d == den else tuple(x * (den // d) for x in r)
                for r, d in zip(row_nums, row_dens)
            )
        self.rows = len(rows)
        self.cols = ncols
        self._num = num
        self._den = den

    @classmethod
    def _of(cls, num: tuple, den: int) -> RatMatrix:
        """The matrix num / den from non-empty rectangular tuples of ints and
        den > 0, brought to canonical form."""
        if den != 1:
            g = gcd(den, *chain.from_iterable(num))
            if g != 1:
                num = tuple(tuple(x // g for x in row) for row in num)
                den //= g
        m = object.__new__(cls)
        m.rows, m.cols, m._num, m._den = len(num), len(num[0]), num, den
        return m

    @staticmethod
    def zeros(rows: int, cols: int) -> RatMatrix:
        return RatMatrix([[0] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> RatMatrix:
        return RatMatrix([[int(i == j) for j in range(n)] for i in range(n)])

    @staticmethod
    def row_vector(entries: Iterable) -> RatMatrix:
        return RatMatrix([list(entries)])

    def __getitem__(self, idx: tuple[int, int]) -> Fraction:
        i, j = idx
        num, den = self._num[i][j], self._den
        return Fraction(num) if den == 1 else Fraction(num, den)

    def row(self, i: int) -> tuple[Fraction, ...]:
        den = self._den
        if den == 1:
            return tuple(map(Fraction, self._num[i]))
        return tuple(Fraction(x, den) for x in self._num[i])

    def __iter__(self):
        return map(self.row, range(self.rows))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self):
        return hash((self._den, self._num))

    def _combine(self, other: RatMatrix, op) -> RatMatrix:
        da, db = self._den, other._den
        if da == db:
            num = tuple(tuple(map(op, r1, r2)) for r1, r2 in zip(self._num, other._num))
            return RatMatrix._of(num, da)
        g = gcd(da, db)
        sa, sb = db // g, da // g
        num = tuple(
            tuple(op(x * sa, y * sb) for x, y in zip(r1, r2))
            for r1, r2 in zip(self._num, other._num)
        )
        return RatMatrix._of(num, da * sa)

    def __add__(self, other: RatMatrix) -> RatMatrix:
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError(f"cannot add {self.shape()} and {other.shape()}")
        return self._combine(other, add)

    def __sub__(self, other: RatMatrix) -> RatMatrix:
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError(f"cannot subtract {other.shape()} from {self.shape()}")
        return self._combine(other, sub)

    def __neg__(self) -> RatMatrix:
        return RatMatrix._of(tuple(tuple(-x for x in row) for row in self._num), self._den)

    def scale(self, c) -> RatMatrix:
        p, q = _pair(c)
        num = tuple(tuple(p * x for x in row) for row in self._num)
        return RatMatrix._of(num, self._den * q)

    def __matmul__(self, other: RatMatrix) -> RatMatrix:
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.shape()} by {other.shape()}")
        cols = list(zip(*other._num))
        num = tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in self._num)
        return RatMatrix._of(num, self._den * other._den)

    def sum_rows(self, groups: Iterable[Sequence[int]]) -> RatMatrix:
        """The matrix whose row i is the sum of the rows of this one listed in
        ``groups[i]``; a row listed twice counts twice, an empty group gives
        a zero row.  ``f.sum_rows(graph.adj)`` is A f for a graph's
        adjacency matrix A, in O(edges) row additions."""
        num = self._num
        zero = (0,) * self.cols
        out = []
        for group in groups:
            group = tuple(group)
            if not group:
                out.append(zero)
                continue
            if min(group) < 0 or max(group) >= self.rows:
                raise ShapeError(f"row index out of range 0..{self.rows - 1} in {group}")
            out.append(tuple(map(sum, zip(*map(num.__getitem__, group)))))
        if not out:
            raise ShapeError("sum_rows needs at least one group")
        return RatMatrix._of(tuple(out), self._den)

    def transpose(self) -> RatMatrix:
        return RatMatrix._of(tuple(zip(*self._num)), self._den)

    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not any(map(any, self._num))

    def to_strings(self) -> list[list[str]]:
        den = self._den
        return [[_text(x, den) for x in row] for row in self._num]

    def __str__(self) -> str:
        return "\n".join(" ".join(row) for row in self.to_strings())

    def __repr__(self) -> str:
        return f"RatMatrix({self.to_strings()})"


def from_json(rows) -> RatMatrix:
    """Build a matrix from a JSON 2D array of ints / "p/q" strings."""
    if not isinstance(rows, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in rows):
        raise ShapeError(f"a matrix must be an array of arrays, got {rows!r:.60}")
    return RatMatrix(rows)


def tensor(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Kronecker product.

    Row (i', i'') of the result is flattened as i' * b.rows + i'' and column
    (j', j'') as j' * b.cols + j'', so entry[(i'i''), (j'j'')] = a[i',j'] * b[i'',j''].
    The mixed-product law tensor(X,Y) @ tensor(Z,V) == tensor(X@Z, Y@V) holds
    for conformable shapes.
    """
    num = tuple(
        tuple(x * y for x in arow for y in brow) for arow in a._num for brow in b._num
    )
    return RatMatrix._of(num, a._den * b._den)


def mat_poly_eval(coeffs: Sequence, m: RatMatrix) -> RatMatrix:
    """Evaluate sum(coeffs[i] * m**i) exactly by Horner's rule.

    ``coeffs`` is constant-term first; ``m`` must be square.
    """
    if not m.is_square():
        raise ShapeError(f"polynomial evaluation needs a square matrix, got {m.shape()}")
    cs = [parse_rational(c) for c in coeffs]
    if not cs:
        return RatMatrix.zeros(m.rows, m.rows)
    ident = RatMatrix.identity(m.rows)
    acc = ident.scale(cs[-1])
    for c in reversed(cs[:-1]):
        acc = acc @ m + ident.scale(c)
    return acc


def row_poly_eval(row, coeffs: Sequence, m: RatMatrix) -> RatMatrix:
    """The single row ``row @ mat_poly_eval(coeffs, m)`` without building the
    full matrix polynomial; quadratic instead of cubic per Horner step.

    The running row is integer numerators over one denominator, reduced
    after every step."""
    if not m.is_square():
        raise ShapeError(f"polynomial evaluation needs a square matrix, got {m.shape()}")
    if not isinstance(row, RatMatrix):
        row = RatMatrix.row_vector(row)
    vec, dv = row._num[0], row._den
    if len(vec) != m.rows:
        raise ShapeError(f"row of length {len(vec)} does not fit {m.shape()}")
    cs = [_pair(c) for c in coeffs]
    if not cs:
        return RatMatrix.zeros(1, m.rows)
    cols = list(zip(*m._num))
    dm = m._den
    p, q = cs[-1]
    acc, den = [p * x for x in vec], q * dv
    for p, q in reversed(cs[:-1]):
        # acc/den @ M/dm + (p/q) vec/dv over the lcm of the two denominators
        d1, d2 = den * dm, q * dv
        g = gcd(d1, d2)
        s1, s2 = d2 // g, p * (d1 // g)
        acc = [sum(map(mul, acc, col)) * s1 + s2 * x for col, x in zip(cols, vec)]
        den = d1 * s1
        g = gcd(den, *acc)
        if g != 1:
            acc = [a // g for a in acc]
            den //= g
    return RatMatrix._of((tuple(acc),), den)


def solve(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Solve a @ x = b exactly for square full-rank ``a`` (Gaussian elimination)."""
    if not a.is_square():
        raise ShapeError(f"solve needs a square matrix, got {a.shape()}")
    if a.rows != b.rows:
        raise ShapeError(f"incompatible right-hand side {b.shape()} for {a.shape()}")
    n = a.rows
    aug = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ShapeError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return RatMatrix([row[n:] for row in aug])
