"""Exception hierarchy shared across the package, and the vertex budget
that ``VertexBudgetError`` enforces.

Everything raised on bad mathematical input derives from ``EqpartError`` so
the CLI can map domain failures to a single exit code.
"""
from __future__ import annotations


class EqpartError(Exception):
    """Base class for all domain errors."""


class ShapeError(EqpartError, ValueError):
    """Matrix or vector dimensions do not conform."""


class VertexBudgetError(EqpartError, ValueError):
    """A generator would exceed the configured vertex budget."""


# The largest graph built unless the caller sets a budget (the CLI's
# --vertex-budget default); ``eqpart.graphs`` re-exports it.
DEFAULT_VERTEX_BUDGET = 2**20


def check_budget(counts, budget: int, what: str) -> int:
    """The last of ``counts``, nondecreasing partial counts of ``what`` (say
    "vertices of H(3,2)"), if at most ``budget``; else VertexBudgetError.
    ``counts`` is read only until one passes the budget and 10**18, so a
    huge count is neither computed nor printed."""
    limit = max(budget, 10**18)
    for count in counts:
        if count > limit:
            break
    if count > budget:
        shown = count if count <= limit else f"over {limit}"
        raise VertexBudgetError(f"{shown} {what} exceeds the budget of {budget}")
    return count


class UnreachableVertexError(EqpartError, ValueError):
    """BFS from the given sources does not reach every vertex."""


class NotEquitableError(EqpartError, ValueError):
    """A coloring is not equitable; carries a witness pair.

    ``witness`` is a pair of same-colored vertices whose neighbor color
    profiles differ; ``profiles`` are the two differing count tuples.
    """

    def __init__(self, witness: tuple[int, int], profiles: tuple[tuple, tuple]):
        self.witness = witness
        self.profiles = profiles
        u, v = witness
        super().__init__(
            f"coloring not equitable: vertices {u} and {v} share a color but "
            f"have neighbor profiles {profiles[0]} != {profiles[1]}"
        )


class NotDistanceRegularError(EqpartError, ValueError):
    """A graph fails distance-regularity; carries a witness vertex pair."""

    def __init__(self, witness: tuple[int, int], detail: str = ""):
        self.witness = witness
        msg = f"graph is not distance-regular (witness pair {witness})"
        if detail:
            msg += ": " + detail
        super().__init__(msg)


class NotTridiagonalError(EqpartError, ValueError):
    """A quotient matrix expected to be tridiagonal is not."""


class StructureError(EqpartError, ValueError):
    """A claimed perfect structure fails its defining equation."""


class ReconstructionError(EqpartError, ValueError):
    """The row-reconstruction pattern is violated (zero superdiagonal or
    nonzero entries above it)."""
