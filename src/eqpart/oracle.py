"""Brute-force reference distributions.

Ground truth for everything else in the package: only breadth-first search
and addition, no quotient matrices and no polynomials.  Deliberately naive;
may be quadratic.
"""
from __future__ import annotations

import time
from collections.abc import Iterable
from fractions import Fraction

from ._record import Record
from .errors import ShapeError
from .graphs import Graph, distances_from_set
from .ratmat import RatMatrix


def _value_rows(g: Graph, f) -> list[tuple[Fraction, ...]]:
    """Per-vertex value tuples of a coloring, structure, or raw matrix."""
    colors = getattr(f, "colors", None)
    if colors is not None:
        k = f.n_colors
        zero, one = Fraction(0), Fraction(1)
        base = [zero] * k
        rows = []
        for c in colors:
            row = list(base)
            row[c] = one
            rows.append(tuple(row))
        return rows
    values = f if isinstance(f, RatMatrix) else getattr(f, "values", None)
    if not isinstance(values, RatMatrix):
        raise ShapeError(f"cannot read values from {type(f).__name__}")
    if values.rows != g.n:
        raise ShapeError(f"value matrix has {values.rows} rows for {g.n} vertices")
    return [values.row(v) for v in range(g.n)]


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
    values = _value_rows(g, f)
    dist, rho = distances_from_set(g, code)
    k = len(values[0])
    acc = [[Fraction(0)] * k for _ in range(rho + 1)]
    for v, w in enumerate(dist):
        row = acc[w]
        for j, x in enumerate(values[v]):
            row[j] += x
    return OracleReport(RatMatrix(acc), "bfs-sum", time.monotonic() - start)


def brute_pair_distribution(g: Graph, gcol, f) -> RatMatrix:
    """Contingency table: entry (i, j) sums f-column j over the vertices
    where ``gcol`` takes color i."""
    gcolors = getattr(gcol, "colors", None)
    if gcolors is None or len(gcolors) != g.n:
        raise ShapeError("first argument must be a coloring of the same graph")
    values = _value_rows(g, f)
    k = len(values[0])
    acc = [[Fraction(0)] * k for _ in range(gcol.n_colors)]
    for v in range(g.n):
        row = acc[gcolors[v]]
        for j, x in enumerate(values[v]):
            row[j] += x
    return RatMatrix(acc)
