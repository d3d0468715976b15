"""The words of the vertices of Hamming graphs and halved cubes.

Hamming vertex v is the base-q word of v, coordinate 0 most significant.
The halved n-cube lists the binary words of one weight parity in increasing
order, so word w has index w >> 1.  :mod:`eqpart.graphs` builds its graphs
by these conventions and re-exports every name here.
"""
from __future__ import annotations

import itertools
import operator
from collections.abc import Sequence


def decode_word(index: int, n: int, q: int) -> tuple[int, ...]:
    """Inverse of the Hamming vertex indexing (coordinate 0 most significant)."""
    word = [0] * n
    for i in range(n - 1, -1, -1):
        index, word[i] = divmod(index, q)
    return tuple(word)


def encode_word(word: Sequence[int], q: int) -> int:
    index = 0
    for x in word:
        index = index * q + x
    return index


def halved_word(v: int, parity: int) -> int:
    """The word of vertex v of the halved cube whose words have weight
    parity ``parity`` (0 or 1), as an int read most significant bit first:
    the bits of v, then the bit that gives the word that parity."""
    return (v << 1) | ((bin(v).count("1") + parity) & 1)


class Words(Sequence):
    """The words of the vertices of H(n,q), or, with ``parity`` 0 or 1, of
    the even or odd halved n-cube (q = 2), in vertex order: an immutable
    sequence that decodes each word when it is read, by :func:`decode_word`
    and :func:`halved_word`, and iterates through ``itertools.product``.  It
    equals, and hashes as, the tuple of those words."""

    __slots__ = ("n", "q", "parity")

    def __init__(self, n: int, q: int, parity: int | None = None):
        for name, value in zip(self.__slots__, (n, q, parity)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of a Words sequence")

    def __len__(self) -> int:
        return self.q**self.n if self.parity is None else 2 ** (self.n - 1)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        v = range(len(self))[i]
        if self.parity is not None:
            v = halved_word(v, self.parity)
        return decode_word(v, self.n, self.q)

    def __iter__(self):
        if self.parity is None:
            return itertools.product(range(self.q), repeat=self.n)
        return (w + ((sum(w) + self.parity) & 1,)
                for w in itertools.product((0, 1), repeat=self.n - 1))

    def _key(self) -> tuple:
        return self.n, self.q, self.parity

    def __eq__(self, other):
        if isinstance(other, Words):
            return self._key() == other._key()
        if isinstance(other, tuple):
            return len(other) == len(self) and all(map(operator.eq, self, other))
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __reduce__(self):
        return Words, self._key()

    def __repr__(self):
        parity = "" if self.parity is None else f", parity={self.parity}"
        return f"Words(n={self.n}, q={self.q}{parity})"
