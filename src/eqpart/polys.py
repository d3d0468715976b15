"""Exact polynomials: the P-polynomials of an intersection array and the
Krawtchouk and Eberlein closed forms.

The distance-w adjacency matrix of a distance-regular graph is p_w(A) for
the degree-w polynomials of the three-term recurrence

    c_{w+1} * p_{w+1}(x) = (x - a_w) * p_w(x) - b_{w-1} * p_{w-1}(x).

No distribution expands these polynomials: every one runs the recurrence
on rows (:func:`eqpart.ratmat.recurrence_rows`), and no function of this
package calls into this module.  It stays for two readers.  The ``drg.poly``
layer of the benchmark's tracer (``perfbench/tracer.py``) wraps
``p_polynomials``, ``krawtchouk_p_polynomials``, ``krawtchouk`` and
``eberlein``, looked up as names of :mod:`eqpart.drg`, which resolves every
name of this module on first access.  The tests check the row kernel
against these coefficients and the recurrence against the Krawtchouk and
Eberlein closed forms.

Polynomials are plain lists of Fractions, constant term first.
"""
from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from ._record import Record
from .drg import IntersectionArray
from .errors import EqpartError
from .ratmat import parse_rational, rat_str

Poly = list[Fraction]


# -- polynomial helpers --------------------------------------------------


def poly_trim(p: Sequence[Fraction]) -> Poly:
    out = list(p)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def poly_add(p: Sequence[Fraction], q: Sequence[Fraction]) -> Poly:
    n = max(len(p), len(q))
    return poly_trim(
        [
            (p[i] if i < len(p) else Fraction(0)) + (q[i] if i < len(q) else Fraction(0))
            for i in range(n)
        ]
    )


def poly_scale(c, p: Sequence[Fraction]) -> Poly:
    c = parse_rational(c)
    return poly_trim([c * x for x in p])


def poly_mul(p: Sequence[Fraction], q: Sequence[Fraction]) -> Poly:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


def poly_mul_x(p: Sequence[Fraction]) -> Poly:
    return [Fraction(0)] + list(p)


def poly_eval(p: Sequence[Fraction], x) -> Fraction:
    x = parse_rational(x)
    acc = Fraction(0)
    for c in reversed(list(p)):
        acc = acc * x + c
    return acc


def poly_compose_affine(p: Sequence[Fraction], a, b) -> Poly:
    """Substitute x -> a + b*y into p, returning a polynomial in y."""
    a, b = parse_rational(a), parse_rational(b)
    inner = [a, b]
    acc: Poly = [Fraction(0)]
    for c in reversed(list(p)):
        acc = poly_add(poly_mul(acc, inner), [c])
    return poly_trim(acc)


def poly_to_strings(p: Sequence[Fraction]) -> list[str]:
    return [rat_str(c) for c in p]


def binomial_poly(shift: Fraction, sign: int, j: int) -> Poly:
    """The polynomial binom(shift + sign*x, j) = prod_{i<j}(shift + sign*x - i) / j!.

    Covers both binom(x, j) (shift=0, sign=+1) and binom(n-x, j)
    (shift=n, sign=-1); evaluation at any rational point uses the same
    falling-factorial polynomial, with no combinatorial reinterpretation.
    """
    acc: Poly = [Fraction(1)]
    for i in range(j):
        acc = poly_mul(acc, [shift - i, Fraction(sign)])
    fact = 1
    for i in range(2, j + 1):
        fact *= i
    return poly_scale(Fraction(1, fact), acc)


# -- P-polynomials ---------------------------------------------------------


class PPolynomials(Record):
    """Degree-w polynomials turning the adjacency matrix into the
    distance-w matrices; polys[0] = 1 and polys[1] = x."""

    polys: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        for w, p in enumerate(self.polys):
            if len(p) != w + 1 or p[-1] == 0:
                raise EqpartError(f"polynomial {w} does not have degree exactly {w}")
        if self.polys[0] != (Fraction(1),):
            raise EqpartError("polynomial 0 must be the constant 1")

    def __len__(self):
        return len(self.polys)

    def __getitem__(self, w: int) -> Poly:
        return list(self.polys[w])


def p_polynomials(ia: IntersectionArray) -> PPolynomials:
    """Expand the intersection array into exact polynomial coefficients."""
    polys: list[Poly] = [[Fraction(1)]]
    if ia.diameter >= 1:
        polys.append([Fraction(0), Fraction(1)])
    for w in range(1, ia.diameter):
        c_next = ia.c[w]
        assert c_next >= 1
        top = poly_add(
            poly_mul_x(polys[w]),
            poly_scale(-ia.a[w], polys[w]),
        )
        top = poly_add(top, poly_scale(-ia.b[w - 1], polys[w - 1]))
        polys.append(poly_scale(Fraction(1, c_next), top))
    return PPolynomials(tuple(tuple(p) for p in polys))


# -- Krawtchouk and Eberlein closed forms ----------------------------------


def krawtchouk(w: int, n: int, q) -> Poly:
    """Krawtchouk polynomial of degree w for length n and alphabet size q
    (q may be any rational > 1):

        sum_j (-1)**j * (q-1)**(w-j) * binom(x, j) * binom(n-x, w-j)
    """
    q = parse_rational(q)
    if not 0 <= w <= n:
        raise EqpartError(f"krawtchouk needs 0 <= w <= n, got w={w}, n={n}")
    acc: Poly = [Fraction(0)]
    for j in range(w + 1):
        term = poly_mul(binomial_poly(Fraction(0), 1, j), binomial_poly(Fraction(n), -1, w - j))
        coef = (-1) ** j * (q - 1) ** (w - j)
        acc = poly_add(acc, poly_scale(coef, term))
    return acc


def krawtchouk_recurrence_check(w: int, n: int, q) -> bool:
    """Whether the three-term identity

        (w+1) K_{w+1} = ((n-w)(q-1) + w - q*x) K_w - (q-1)(n-w+1) K_{w-1}

    holds coefficient-by-coefficient for these parameters.
    """
    q = parse_rational(q)
    if not 1 <= w < n:
        raise EqpartError(f"recurrence check needs 1 <= w < n, got w={w}, n={n}")
    lhs = poly_scale(w + 1, krawtchouk(w + 1, n, q))
    mid = poly_mul([(n - w) * (q - 1) + w, -q], krawtchouk(w, n, q))
    rhs = poly_add(mid, poly_scale(-(q - 1) * (n - w + 1), krawtchouk(w - 1, n, q)))
    return poly_trim(lhs) == poly_trim(rhs)


def krawtchouk_p_polynomials(n: int, q) -> PPolynomials:
    """P-polynomials of the Hamming scheme obtained by composing each
    Krawtchouk polynomial with the inverse of the degree-1 one.

    K_1(x) = (q-1)n - qx is affine, so the inverse substitution is exact;
    this is the polynomial source for rational q, where no graph exists.
    """
    q = parse_rational(q)
    # x = ((q-1)n - y) / q
    a = (q - 1) * n / q
    b = Fraction(-1) / q
    polys = [poly_compose_affine(krawtchouk(w, n, q), a, b) for w in range(n + 1)]
    return PPolynomials(tuple(tuple(p) for p in polys))


def eberlein(w: int, n: int, k: int) -> Poly:
    """Eberlein polynomial for the Johnson scheme:

        sum_j (-1)**j * binom(x, j) * binom(k-x, w-j) * binom(n-k-x, w-j)

    Degree at most 2w in x.
    """
    if not 0 <= w <= min(k, n - k):
        raise EqpartError(f"eberlein needs 0 <= w <= min(k, n-k), got w={w}")
    acc: Poly = [Fraction(0)]
    for j in range(w + 1):
        term = poly_mul(binomial_poly(Fraction(0), 1, j), binomial_poly(Fraction(k), -1, w - j))
        term = poly_mul(term, binomial_poly(Fraction(n - k), -1, w - j))
        acc = poly_add(acc, poly_scale((-1) ** j, term))
    return acc
