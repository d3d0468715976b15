"""Distance-regularity and intersection arrays.

A connected regular graph is distance-regular when, for vertices u, v at
distance w, the number of neighbors of v at distance w-1 (resp. w, w+1)
from u depends only on w; those counts c_w, a_w, b_w form the intersection
array.  Equivalently, every vertex is a completely regular code and all
share one quotient matrix, the array's tridiagonal matrix: that is how
:func:`intersection_array` checks a built graph.  The array is all a
closed-form distribution needs: each form of :mod:`eqpart.distributions`
takes one and runs the row kernel on its diagonals.
The Hamming, Johnson and halved-cube arrays have closed forms, so a
generator spec yields its array without building the graph; this module
imports :mod:`eqpart.graphs` and :mod:`eqpart.equitable` only to build or
inspect one.

The polynomial families (P-polynomials, Krawtchouk, Eberlein) live in
:mod:`eqpart.polys`, which no distribution imports; each of their names
also resolves here, on first access.
"""
from __future__ import annotations

from collections.abc import Callable, Sequence
from math import comb

from ._record import Record
from .errors import EqpartError, NotDistanceRegularError, NotEquitableError
from .inputs import _check_generator, read_spec
from .ratmat import array_band, band, first_difference

# names defined in eqpart.polys, looked up there on first access
_POLYS_NAMES = frozenset((
    "Poly", "PPolynomials", "binomial_poly", "eberlein", "krawtchouk",
    "krawtchouk_p_polynomials", "krawtchouk_recurrence_check", "p_polynomials", "poly_add",
    "poly_compose_affine", "poly_eval", "poly_mul", "poly_mul_x", "poly_scale",
    "poly_to_strings", "poly_trim",
))


def __getattr__(name: str):
    if name in _POLYS_NAMES:
        from . import polys

        return getattr(polys, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
        if d >= 1 and self.c[0] != 1:
            # a neighbour of u has u as its one neighbour at distance 0
            raise EqpartError(f"c_1 = {self.c[0]} != 1")

    @property
    def degree(self) -> int:
        return self.b[0] if self.b else 0


def _array_from_bc(b: Sequence[int], c: Sequence[int]) -> IntersectionArray:
    """The array b_0..b_{D-1}, c_1..c_D of degree b_0, completed by array_band."""
    b, a, c = array_band(b, c, b[0] if b else 0)
    return IntersectionArray(len(b), tuple(b), tuple(a), tuple(c))


def intersection_array(g: Graph) -> IntersectionArray:
    """Compute the intersection array, verifying distance-regularity.

    A graph is distance-regular exactly when every vertex is a completely
    regular code and all of them share one quotient matrix; row w of that
    tridiagonal matrix is (c_w, a_w, b_w).  Raises NotDistanceRegularError
    with a witness pair: two vertices at one distance from a third with
    different neighbour counts per distance, or two vertices whose distance
    partitions have different quotient matrices, named by their first
    differing entry or their two shapes.
    """
    if g.n == 0:
        raise EqpartError("empty graph")
    from .equitable import check_completely_regular

    first = None
    for u in range(g.n):
        try:
            r = check_completely_regular(g, [u])
        except NotEquitableError as exc:
            counts = " != ".join(map(str, exc.profiles))
            raise NotDistanceRegularError(
                exc.witness, f"at one distance from vertex {u}, counts per distance {counts}"
            ) from exc
        if first is None:
            first = r
        elif r != first:
            raise NotDistanceRegularError(
                (0, u), f"the quotient matrices R_0 and R_{u} of their distance partitions "
                "differ: " + first_difference(first, r, "R_0", f"R_{u}")
            )
    c, a, b, _ = band(first)  # an integer matrix: its denominator is 1
    return IntersectionArray(len(b), tuple(b), tuple(a), tuple(c))


def hamming_intersection_array(n: int, q: int) -> IntersectionArray:
    """Closed-form array of the Hamming graph: b_w = (q-1)(n-w), c_w = w.

    Two words at distance w differ in w coordinates.  A neighbour of the
    second one changes one coordinate: one of the n - w where the words
    agree, to any of q - 1 other letters, to move farther, or one of the w
    where they differ, back to the first word's letter, to move closer.  No
    BFS over the q**n vertices is needed; the tests compare this array with
    :func:`intersection_array` of the built graph on every small case.
    """
    _check_generator(("hamming", n, q))
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
    _check_generator(("johnson", n, k))
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
    _check_generator(("halved", n, "even"))
    d = n // 2
    return _array_from_bc(
        [comb(n - 2 * w, 2) for w in range(d)], [comb(2 * w, 2) for w in range(1, d + 1)]
    )


def spec_intersection_array(
    spec, load: Callable[[tuple], Graph] | None = None
) -> IntersectionArray:
    """Intersection array of the graph a JSON spec (or what :func:`read_spec`
    read from it) describes.

    Hamming, Johnson and halved-cube specs take their closed forms and build
    nothing.  Edge lists and products have no closed form: ``load`` builds
    their graph from what ``read_spec`` read, which
    :func:`eqpart.graphs.load_graph` (the default) and the CLI's graph table
    accept, and :func:`intersection_array` checks distance-regularity.
    """
    key = spec if isinstance(spec, tuple) else read_spec(spec)
    kind, x, y = key
    if kind == "hamming":
        return hamming_intersection_array(x, y)
    if kind == "johnson":
        return johnson_intersection_array(x, y)
    if kind == "halved":
        return halved_cube_intersection_array(x)
    if load is None:
        from .graphs import load_graph as load
    return intersection_array(load(key))


def regular_degree(spec, load: Callable[[tuple], Graph] | None = None) -> int:
    """Degree of the regular graph a JSON spec describes.

    Generators read it from their closed-form arrays; edge lists and
    products are built by ``load``, as for :func:`spec_intersection_array`,
    and checked.  Raises EqpartError when the graph is not regular.
    """
    key = read_spec(spec)
    if key[0] in ("hamming", "johnson", "halved"):
        return spec_intersection_array(key).degree
    if load is None:
        from .graphs import load_graph as load
    graph = load(key)
    if not graph.is_regular():
        raise EqpartError(f"{graph.n}-vertex graph is not regular")
    return graph.degree(0)

