"""Dense matrices over exact rationals.

A matrix is stored as rows of Python ``int`` numerators over one positive
common denominator, in canonical form: the gcd of the denominator and every
numerator is 1, so a zero matrix has denominator 1 and an integer matrix is
plain integer rows over 1.  Two matrices are equal exactly when their
reduced rational entries are, and that is a comparison of the stored form.
Sums, products, Kronecker products, reshapes, polynomial rows and the rows
of a three-term recurrence are computed on the integer numerators, and text
is rendered from them.  That recurrence (:func:`recurrence_rows`) is the
one row kernel of every weight distribution; it reads a tridiagonal matrix
as its three diagonals, a graph's or a code's array (:func:`array_band`) or
the band of a code's quotient matrix (:func:`band`), never as a square one.
``fractions.Fraction`` appears only where a caller reads a scalar (``row``,
indexing, iteration) or hands one in, and is imported there, so that a run
which never does loads no ``fractions``.
Matrices are small or sparse-valued (quotient matrices, indicator rows,
distributions), so dense row-major storage and schoolbook algorithms are
the right tool; nothing here ever touches floats.
"""
from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from itertools import chain
from math import gcd, lcm
from operator import add, mul, sub

from .errors import ReconstructionError, ShapeError

_RATIONAL_TEXT = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _pair(value) -> tuple[int, int]:
    """(numerator, denominator) of an int, a "p/q" string or a Fraction,
    reduced, with a positive denominator.

    Strings must match ``[+-]?[0-9]+(/[0-9]+)?`` exactly, with a nonzero
    denominator; floats and bools are rejected: every value here is exact.
    """
    if type(value) is int:
        return value, 1
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
    from fractions import Fraction

    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise ShapeError(f"cannot interpret {value!r} as a rational")


def parse_rational(value) -> Fraction:
    """Coerce a JSON-style scalar (int or "p/q" string) to a Fraction; see
    :func:`_pair` for what is accepted."""
    from fractions import Fraction

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
        if rows < 1:
            raise ShapeError("matrix needs at least one row")
        if cols < 1:
            raise ShapeError("matrix needs at least one column")
        return RatMatrix._of(((0,) * cols,) * rows, 1)

    @staticmethod
    def identity(n: int) -> RatMatrix:
        return RatMatrix([[int(i == j) for j in range(n)] for i in range(n)])

    @staticmethod
    def row_vector(entries: Iterable) -> RatMatrix:
        return RatMatrix([list(entries)])

    def __getitem__(self, idx: tuple[int, int]) -> Fraction:
        from fractions import Fraction

        i, j = idx
        num, den = self._num[i][j], self._den
        return Fraction(num) if den == 1 else Fraction(num, den)

    def row(self, i: int) -> tuple[Fraction, ...]:
        from fractions import Fraction

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

    def unit_columns(self) -> list[int] | None:
        """For each row that is a unit vector e_j, its j; None when some row
        is not one.  A 0/1 indicator matrix has them all: its colors, as a
        structure file's values are read as a coloring."""
        if self._den != 1:
            return None
        zeros = self.cols - 1
        out = []
        for row in self._num:
            if row.count(0) != zeros or sum(row) != 1:
                return None
            out.append(row.index(1))
        return out

    def transpose(self) -> RatMatrix:
        return RatMatrix._of(tuple(zip(*self._num)), self._den)

    def reshape(self, rows: int, cols: int) -> RatMatrix:
        """The same entries, read row by row, as a rows x cols matrix."""
        if rows < 1 or cols < 1 or rows * cols != self.rows * self.cols:
            raise ShapeError(f"cannot reshape {self.shape()} to {(rows, cols)}")
        flat = tuple(chain.from_iterable(self._num))
        return RatMatrix._of(tuple(flat[i:i + cols] for i in range(0, len(flat), cols)), self._den)

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


def row_poly_eval(row, coeffs: Sequence, m: RatMatrix) -> RatMatrix:
    """The single row ``row @ mat_poly_eval(coeffs, m)`` without building the
    full matrix polynomial: Horner's rule on rows, quadratic instead of
    cubic per step."""
    if not m.is_square():
        raise ShapeError(f"polynomial evaluation needs a square matrix, got {m.shape()}")
    if not isinstance(row, RatMatrix):
        row = RatMatrix.row_vector(row)
    if row.rows != 1 or row.cols != m.rows:
        raise ShapeError(f"row of shape {row.shape()} does not fit {m.shape()}")
    acc = RatMatrix.zeros(1, m.rows)
    for c in reversed(coeffs):
        acc = acc @ m + row.scale(c)
    return acc


def first_difference(x: RatMatrix, y: RatMatrix, left: str, right: str) -> str:
    """The witness of a failed identity x = y: the first entry, in row-major
    order, where the two sides differ, with both values, the sides named
    ``left`` and ``right``; or the two shapes when they differ."""
    if x.shape() != y.shape():
        return f"{left} has shape {x.shape()}, {right} {y.shape()}"
    dx, dy = x._den, y._den
    i, j = next((i, j) for i, (rx, ry) in enumerate(zip(x._num, y._num))
                for j, (u, v) in enumerate(zip(rx, ry)) if u * dy != v * dx)
    return (f"first difference at row {i}, column {j}: "
            f"{left} {_text(x._num[i][j], dx)}, {right} {_text(y._num[i][j], dy)}")


def band(m: RatMatrix) -> tuple[list[int], list[int], list[int], int]:
    """(b, a, c, den): the sub-, main and superdiagonal numerators of a
    square matrix B over its denominator, as :func:`recurrence_rows` reads
    them.  Rows 0..n-2 of B, the rows that recurrence reads, must vanish off
    those three diagonals; a nonzero entry there raises ReconstructionError
    naming it."""
    if not m.is_square():
        raise ShapeError(f"reconstruction matrix must be square, got {m.shape()}")
    num, n = m._num, m.rows
    for i in range(n - 1):
        for j, x in enumerate(num[i]):
            if x and abs(i - j) > 1:
                side = "above the superdiagonal" if j > i else "below the subdiagonal"
                raise ReconstructionError(f"entry ({i},{j}) = {_text(x, m._den)} {side}")
    return ([num[i + 1][i] for i in range(n - 1)], [num[i][i] for i in range(n)],
            [num[i][i + 1] for i in range(n - 1)], m._den)


def array_band(b: Sequence[int], c: Sequence[int], degree: int) -> tuple[list, list, list]:
    """(b, a, c): the diagonals of the array with b_0..b_{D-1}, c_1..c_D
    and the given degree, as :func:`recurrence_rows` reads them:
    a_w = degree - b_w - c_w, with b_D = c_0 = 0."""
    return list(b), [degree - x - y for x, y in zip([*b, 0], [0, *c])], list(c)


def band_product(h: RatMatrix, b: Sequence[int], a: Sequence[int], c: Sequence[int],
                 den: int = 1) -> RatMatrix:
    """Rows 0..D-1, D = len(c) >= 1, of B H for the tridiagonal B of
    :func:`recurrence_rows`, read from its band:
    row i = (b_{i-1} h_{i-1} + a_i h_i + c_{i+1} h_{i+1}) / den."""
    num = h._num
    # at i = 0 the coefficient b_{-1} = 0 meets row -1, the last row of H
    out = tuple(
        tuple(x * u + y * v + z * w for u, v, w in zip(num[i - 1], num[i], num[i + 1]))
        for i, (x, y, z) in enumerate(zip((0, *b), a, c))
    )
    return RatMatrix._of(out, h._den * den)


def recurrence_rows(row, t: RatMatrix, b: Sequence[int], a: Sequence[int], c: Sequence[int],
                    den: int = 1) -> RatMatrix:
    """Rows r_0..r_D, D = len(c), of the three-term recurrence of the
    tridiagonal matrix B with subdiagonal b_0..b_{D-1}, diagonal a_0..a_D and
    superdiagonal c_1..c_D, integer numerators over the positive ``den``:

        r_0 = row,   c_{w+1} r_{w+1} = den r_w T - a_w r_w - b_{w-1} r_{w-1}.

    For an integer array (den 1), a graph's or a code's (:func:`array_band`),
    these are the rows row p_w(T) of its polynomials; in a code's array c_1
    may differ from 1.  For B = R^T, with
    R the quotient matrix of a completely regular code (:func:`band`), and T
    the parameters S of a perfect structure, they are the rows of the
    structure's distribution from its first row.  Every c_w must be nonzero;
    a_D enters no row.  Each row costs one vector-matrix product and two
    combinations, reduced after every step; no matrix of B is built."""
    depth = len(c)
    if len(b) != depth or len(a) != depth + 1:
        raise ShapeError(f"array lengths ({len(b)},{len(a)},{depth}) do not fit together")
    if not t.is_square():
        raise ShapeError(f"the recurrence needs a square matrix, got {t.shape()}")
    if not isinstance(row, RatMatrix):
        row = RatMatrix.row_vector(row)
    if row.rows != 1 or row.cols != t.rows:
        raise ShapeError(f"row of shape {row.shape()} does not fit {t.shape()}")
    cols = list(zip(*t._num))
    dt = t._den
    rows = [(row._num[0], row._den)]
    for w, cw in enumerate(c):
        if not cw:
            raise ReconstructionError(f"superdiagonal entry ({w},{w + 1}) is zero")
        cur, d = rows[w]
        # den r_w T - a_w r_w, over d * dt
        aw = a[w] * dt
        acc = [den * sum(map(mul, cur, col)) - aw * x for col, x in zip(cols, cur)]
        d *= dt
        if w:
            # minus b_{w-1} r_{w-1}, over the lcm of the two denominators
            prev, dp = rows[w - 1]
            g = gcd(d, dp)
            s1, s2 = dp // g, b[w - 1] * (d // g)
            acc = [x * s1 - s2 * y for x, y in zip(acc, prev)]
            d *= s1
        # over c_{w+1}, with its sign moved to the numerators
        if cw < 0:
            acc = [-x for x in acc]
        d *= abs(cw)
        g = gcd(d, *acc)
        if g != 1:
            acc = [x // g for x in acc]
            d //= g
        rows.append((acc, d))
    den = lcm(*(d for _, d in rows))
    num = tuple(tuple(v) if d == den else tuple(x * (den // d) for x in v) for v, d in rows)
    return RatMatrix._of(num, den)
