"""Brute-force reference distributions.

Ground truth for everything else in the package: only breadth-first search
and addition, no quotient matrices and no polynomials.  Deliberately naive;
may be quadratic.  A coloring's values are counted per class and colour in
plain ints; other values are summed as integer numerator rows.
"""
from __future__ import annotations

import time
from collections.abc import Iterable

from ._record import Record
from .errors import ShapeError
from .graphs import Graph, class_sums, distances_from_set, vertex_values
from .ratmat import RatMatrix


class OracleReport(Record):
    computed: RatMatrix
    method: str
    elapsed: float


def brute_distribution(g: Graph, code: Iterable[int], f) -> RatMatrix:
    """Row w = sum of f over the vertices at distance w from the set,
    for w = 0 .. covering radius."""
    rows = brute_distribution_report(g, code, f).computed
    return rows


def brute_distribution_report(g: Graph, code: Iterable[int], f) -> OracleReport:
    start = time.monotonic()
    values = vertex_values(g, f)
    dist, rho = distances_from_set(g, code)
    rows = class_sums(values, dist, rho + 1)
    return OracleReport(rows, "bfs-sum", time.monotonic() - start)


def brute_pair_distribution(g: Graph, gcol, f) -> RatMatrix:
    """Contingency table: entry (i, j) sums f-column j over the vertices
    where ``gcol`` takes color i."""
    gcolors = getattr(gcol, "colors", None)
    if gcolors is None or len(gcolors) != g.n:
        raise ShapeError("first argument must be a coloring of the same graph")
    return class_sums(vertex_values(g, f), gcolors, gcol.n_colors)
