"""Brute-force reference distributions.

Ground truth for everything else in the package: only breadth-first search
and addition, no quotient matrices and no polynomials.  Deliberately naive;
may be quadratic.  A coloring's values are counted per (class, colour) pair
in plain ints; other values are summed as integer numerator rows.
"""
from __future__ import annotations

from collections.abc import Iterable

from .errors import ShapeError
from .graphs import Graph, bfs_distances, class_sums
from .ratmat import RatMatrix


def brute_distribution(g: Graph, code: Iterable[int], f) -> RatMatrix:
    """Row w = sum of f over the vertices at distance w from the set,
    for w = 0 .. covering radius."""
    dist = bfs_distances(g, code)
    return class_sums(f, dist, max(dist) + 1)


# the name the benchmark tracer wraps
brute_distribution_report = brute_distribution


def brute_pair_distribution(g: Graph, gcol, f) -> RatMatrix:
    """Contingency table: entry (i, j) sums f-column j over the vertices
    where ``gcol`` takes color i."""
    gcolors = getattr(gcol, "colors", None)
    if gcolors is None or len(gcolors) != g.n:
        raise ShapeError("first argument must be a coloring of the same graph")
    return class_sums(f, gcolors, gcol.n_colors)
