"""Classic binary codes as vertex sets of the corresponding Hamming graphs.

Codewords are returned as vertex indices under the standard encoding of
:func:`eqpart.graphs.hamming_graph` (coordinate 0 most significant).
"""
from __future__ import annotations

from .errors import DEFAULT_VERTEX_BUDGET, check_budget


def hamming_code_vertices(r: int = 3) -> list[int]:
    """The single-error-correcting code of length n = 2**r - 1, sorted.

    Parity-check columns are the binary expansions of 1..n in order, so
    coordinate i of a word checks against the number i+1.  The code is
    built in systematic form, 2**(n-r) words rather than all 2**n: the
    information bits sit at the coordinates i where i+1 is not a power of
    two, and the parity bit at i+1 = 2**j is bit j of the syndrome of the
    information bits.  More codewords than the default vertex budget raise
    VertexBudgetError before any is built.
    """
    n = 2**r - 1
    counts = (2**i for i in range(n - r + 1))
    check_budget(counts, DEFAULT_VERTEX_BUDGET, f"codewords of the Hamming code with r={r}")
    # (vertex, syndrome) of every assignment of the information bits
    words = [(0, 0)]
    for i in range(n):
        if (i + 1) & i:  # i+1 is not a power of two
            bit = 1 << (n - 1 - i)
            words += [(v | bit, syn ^ (i + 1)) for v, syn in words]
    parity = [sum(1 << (n - (1 << j)) for j in range(r) if syn >> j & 1) for syn in range(n + 1)]
    return sorted(v | parity[syn] for v, syn in words)


def extended_hamming_code_vertices(r: int = 3) -> list[int]:
    """The length-2**r extension by an overall parity coordinate."""
    out = []
    for v in hamming_code_vertices(r):
        parity = bin(v).count("1") & 1
        out.append(v * 2 + parity)
    return out
