"""Interned direction-basis table with cached pivots.

EPPP generation and the partition trie key dictionaries by the RREF
direction basis — a tuple of ints.  Many pseudocubes share the same
basis (that sharing *is* Theorem 1), but the tuples arrive from
independent ``insert_vector`` calls, so equal bases are usually
distinct objects and every dict probe pays a full tuple compare after
the hash.  Interning collapses equal bases to one canonical tuple,
making the identity fast-path inside ``dict`` lookups hit and keeping
one copy of each basis alive instead of thousands.

The table also caches the pivot tuple of each distinct basis — the
per-insert ``[gf2.pivot_of(b) for b in basis]`` recomputation in the
partition trie was pure waste, since pivots are a function of the basis
alone (the same observation behind the cached ``pivot_mask`` slot on
:class:`~repro.core.pseudocube.Pseudocube`).
"""

from __future__ import annotations

from repro.core import gf2

__all__ = ["BasisInterner"]


class BasisInterner:
    """Canonicalise basis tuples: equal tuples in, one shared object out.

    ``intern`` returns the first tuple seen for each distinct value, so
    callers that key dicts by the result get identity-equal keys for
    structurally equal bases.  The pivot tuple of a basis is computed at
    most once.
    """

    __slots__ = ("_bases", "_pivots")

    def __init__(self) -> None:
        self._bases: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._pivots: dict[tuple[int, ...], tuple[int, ...]] = {}

    def intern(self, basis: tuple[int, ...]) -> tuple[int, ...]:
        return self._bases.setdefault(basis, basis)

    def pivots(self, basis: tuple[int, ...]) -> tuple[int, ...]:
        """Cached pivot positions of ``basis``."""
        cached = self._pivots.get(basis)
        if cached is None:
            cached = self._pivots[basis] = tuple(gf2.pivot_of(b) for b in basis)
        return cached
