"""Distance-regularity, intersection arrays, and the polynomial families.

A connected regular graph is distance-regular when, for vertices u, v at
distance w, the number of neighbors of v at distance w-1 (resp. w, w+1)
from u depends only on w; those counts c_w, a_w, b_w form the intersection
array.  The distance-w adjacency matrix is then a degree-w polynomial in the
adjacency matrix, produced here by the three-term recurrence

    c_{w+1} * p_{w+1}(x) = (x - a_w) * p_w(x) - b_{w-1} * p_{w-1}(x).

The Krawtchouk and Eberlein closed forms are implemented independently and
used both as cross-checks and as the polynomial source when no concrete
graph exists (rational alphabet parameters).

Polynomials are plain lists of Fractions, constant term first.
"""
from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import comb

from ._record import Record
from .errors import EqpartError, NotDistanceRegularError
from .graphs import DEFAULT_VERTEX_BUDGET, Graph, bfs_distances, load_graph, read_spec
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


# -- intersection arrays --------------------------------------------------


class IntersectionArray(Record):
    """Witness data of a distance-regular graph.

    b has entries b_0..b_{D-1}, a has a_0..a_D, c has c_1..c_D; the
    conventions c_0 = 0 and b_D = 0 are implicit.  For every w,
    b_w + a_w + c_w equals the degree b_0.
    """

    diameter: int
    b: tuple[int, ...]
    a: tuple[int, ...]
    c: tuple[int, ...]

    def __post_init__(self):
        d = self.diameter
        if len(self.b) != d or len(self.a) != d + 1 or len(self.c) != d:
            raise EqpartError(
                f"array lengths ({len(self.b)},{len(self.a)},{len(self.c)}) "
                f"do not match diameter {d}"
            )
        k = self.degree
        for w in range(d + 1):
            bw = self.b[w] if w < d else 0
            cw = self.c[w - 1] if w >= 1 else 0
            if bw + self.a[w] + cw != k:
                raise EqpartError(f"b_{w}+a_{w}+c_{w} != degree {k}")
            if w >= 1 and cw < 1:
                raise EqpartError(f"c_{w} = {cw} < 1")

    @property
    def degree(self) -> int:
        return self.b[0] if self.b else 0

    def c_at(self, w: int) -> int:
        return self.c[w - 1] if w >= 1 else 0

    def b_at(self, w: int) -> int:
        return self.b[w] if w < self.diameter else 0


def _array_from_bc(b: Sequence[int], c: Sequence[int]) -> IntersectionArray:
    """Complete b_0..b_{D-1} and c_1..c_D with a_w = b_0 - b_w - c_w."""
    d = len(b)
    k = b[0] if b else 0
    a = tuple(k - (b[w] if w < d else 0) - (c[w - 1] if w else 0) for w in range(d + 1))
    return IntersectionArray(d, tuple(b), a, tuple(c))


def intersection_array(g: Graph) -> IntersectionArray:
    """Compute the intersection array, verifying distance-regularity over
    every vertex pair; raises NotDistanceRegularError with a witness pair.
    """
    if g.n == 0:
        raise EqpartError("empty graph")
    degs = g.degrees()
    k = degs[0]
    for v, d in enumerate(degs):
        if d != k:
            raise NotDistanceRegularError((0, v), f"degrees {k} and {d} differ")
    dist = [bfs_distances(g, [u]) for u in range(g.n)]
    diam = max(max(row) for row in dist)
    b: dict[int, int] = {}
    c: dict[int, int] = {}
    witness: dict[int, tuple[int, int]] = {}
    for u in range(g.n):
        du = dist[u]
        for v in range(g.n):
            w = du[v]
            closer = sum(1 for t in g.adj[v] if du[t] == w - 1)
            farther = sum(1 for t in g.adj[v] if du[t] == w + 1)
            if w not in b:
                b[w], c[w] = farther, closer
                witness[w] = (u, v)
            elif b[w] != farther or c[w] != closer:
                raise NotDistanceRegularError(
                    (u, v),
                    f"at distance {w}: counts ({closer},{farther}) vs "
                    f"({c[w]},{b[w]}) seen at pair {witness[w]}",
                )
    return _array_from_bc([b[w] for w in range(diam)], [c[w] for w in range(1, diam + 1)])


def hamming_intersection_array(n: int, q: int) -> IntersectionArray:
    """Closed-form array of the Hamming graph: b_w = (q-1)(n-w), c_w = w.

    Two words at distance w differ in w coordinates.  A neighbour of the
    second one changes one coordinate: one of the n - w where the words
    agree, to any of q - 1 other letters, to move farther, or one of the w
    where they differ, back to the first word's letter, to move closer.  No
    BFS over the q**n vertices is needed; the tests compare this array with
    :func:`intersection_array` of the built graph on every small case.
    """
    if n < 1 or q < 2:
        raise EqpartError(f"invalid Hamming parameters n={n}, q={q}")
    return _array_from_bc([(q - 1) * (n - w) for w in range(n)], range(1, n + 1))


def johnson_intersection_array(n: int, k: int) -> IntersectionArray:
    """Closed-form array of the Johnson graph J(n, k) (Brouwer, Cohen and
    Neumaier, *Distance-Regular Graphs*, 1989):

        b_w = (k - w)(n - k - w),  c_w = w**2,  diameter min(k, n - k).

    Two k-subsets at distance w share k - w points.  A neighbour of the
    second one moves one step farther by swapping one of those k - w points
    for one of the n - k - w points outside both, and one step closer by
    swapping one of its w private points for one of the first subset's w
    private points.  The counts do not depend on the pair, so no BFS over
    the C(n, k) vertices is needed; the tests compare this array with
    :func:`intersection_array` of the built graph on every small case.
    """
    if not 0 <= k <= n:
        raise EqpartError(f"johnson graph needs 0 <= k <= n, got k={k}, n={n}")
    d = min(k, n - k)
    return _array_from_bc(
        [(k - w) * (n - k - w) for w in range(d)], [w * w for w in range(1, d + 1)]
    )


def halved_cube_intersection_array(n: int) -> IntersectionArray:
    """Closed-form array of the halved n-cube (Brouwer, Cohen and Neumaier,
    1989), the same for both weight parities:

        b_w = C(n - 2w, 2),  c_w = C(2w, 2),  diameter floor(n / 2).

    Two words at halved distance w differ in 2w coordinates.  A neighbour
    of the second one flips two coordinates: two of the n - 2w where the
    words agree to move farther, two of the 2w where they differ to move
    closer.  The counts depend only on w, so no BFS over the 2**(n-1)
    vertices is needed; the tests compare this array with
    :func:`intersection_array` of the built graph for n = 2..10.
    """
    if n < 2:
        raise EqpartError(f"halved cube needs n >= 2, got {n}")
    d = n // 2
    return _array_from_bc(
        [comb(n - 2 * w, 2) for w in range(d)], [comb(2 * w, 2) for w in range(1, d + 1)]
    )


def spec_intersection_array(
    spec, budget: int = DEFAULT_VERTEX_BUDGET, graph: Graph | None = None
) -> IntersectionArray:
    """Intersection array of the graph a JSON spec describes.

    Hamming, Johnson and halved-cube specs take their closed forms and build
    nothing.  Edge lists and products have no closed form: their graph is
    built (or ``graph``, if the caller already built it, is used) and
    :func:`intersection_array` checks distance-regularity pair by pair.
    """
    kind, x, y = read_spec(spec)
    if kind == "hamming":
        return hamming_intersection_array(x, y)
    if kind == "johnson":
        return johnson_intersection_array(x, y)
    if kind == "halved":
        return halved_cube_intersection_array(x)
    return intersection_array(graph if graph is not None else load_graph(spec, budget))


def regular_degree(spec, budget: int = DEFAULT_VERTEX_BUDGET, graph: Graph | None = None) -> int:
    """Degree of the regular graph a JSON spec describes.

    Generators read it from their closed-form arrays; edge lists and
    products are built (or ``graph`` is used) and checked.  Raises
    EqpartError when the graph is not regular.
    """
    if read_spec(spec)[0] in ("hamming", "johnson", "halved"):
        return spec_intersection_array(spec).degree
    g = graph if graph is not None else load_graph(spec, budget)
    if not g.is_regular():
        raise EqpartError(f"{g.n}-vertex graph is not regular")
    return g.degree(0)


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
        c_next = ia.c_at(w + 1)
        assert c_next >= 1
        top = poly_add(
            poly_mul_x(polys[w]),
            poly_scale(-ia.a[w], polys[w]),
        )
        top = poly_add(top, poly_scale(-ia.b[w - 1], polys[w - 1]))
        polys.append(poly_scale(Fraction(1, c_next), top))
    return PPolynomials(tuple(tuple(p) for p in polys))


def p_polynomials_of(g: Graph | IntersectionArray) -> PPolynomials:
    """P-polynomials of a distance-regular graph, or straight from its array."""
    return p_polynomials(g if isinstance(g, IntersectionArray) else intersection_array(g))


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
