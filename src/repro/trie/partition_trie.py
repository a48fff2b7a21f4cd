"""The partition trie — the paper's central data structure (Section 3.2).

A partition trie stores a set of CEX expressions so that

* a root-to-leaf-parent path spells a *structure* (Definition 2), with
  every EXOR factor starting at its NC-node followed by its C-nodes in
  increasing order;
* the leaves under one parent are the complementation vectors of the
  expressions sharing that structure (Property 1).

Pseudoproducts that can be unified by Algorithm 1 are therefore exactly
the leaves with a common parent, which is what makes the minimization
algorithms of Sections 3.3/3.4 avoid the quadratic all-pairs structure
comparison of the original method.

The trie is generic in its payload; the minimizers store
:class:`~repro.core.pseudocube.Pseudocube` objects.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Generic, TypeVar

from repro.budget import Budget
from repro.core.bitvec import bits_of, get_bit
from repro.core.cex import CexExpression
from repro.core.pseudocube import Pseudocube
from repro.kernels.intern import BasisInterner
from repro.trie.nodes import C_NODE, NC_NODE, Leaf, TrieNode

__all__ = ["PartitionTrie"]

T = TypeVar("T")

def _path_of_structure(structure: tuple[int, ...]) -> list[tuple[str, int]]:
    """Flatten a structure into the trie path: for each factor, the
    NC-node of its non-canonical (highest) variable, then C-nodes in
    increasing order."""
    path: list[tuple[str, int]] = []
    for support in structure:
        variables = list(bits_of(support))
        nc = variables[-1]  # the non-canonical variable is the highest
        path.append((NC_NODE, nc))
        for v in variables[:-1]:
            path.append((C_NODE, v))
    return path


def _structure_and_vector(
    pc: Pseudocube, interner: BasisInterner
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Structure (factor supports) and complementation vector of a
    pseudocube.

    ``L[i] = 1`` iff the i-th non-canonical variable is *not*
    complemented, which in the affine form is bit ``j`` of the anchor
    (see Definition 1, rule 2).

    Pivots are a function of the basis alone, so they come from the
    interner's per-basis cache instead of being recomputed on every
    insert (the same reasoning as the cached ``pivot_mask`` slot on
    :class:`Pseudocube`).
    """
    pivots = interner.pivots(pc.basis)
    canonical = pc.canonical_mask
    supports = []
    vector = []
    for j in range(pc.n):
        if (canonical >> j) & 1:
            continue
        support = 1 << j
        for b, p in zip(pc.basis, pivots):
            if (b >> j) & 1:
                support |= 1 << p
        supports.append(support)
        vector.append(get_bit(pc.anchor, j))
    return tuple(supports), tuple(vector)


class PartitionTrie(Generic[T]):
    """A partition trie mapping CEX structures to leaf groups.

    The public operations mirror the paper: :meth:`insert` (extension of
    trie insertion honouring the node-kind constraints), :meth:`search`,
    and :meth:`groups` — the leaf sets with a common parent, i.e. the
    unifiable classes used by Algorithm 2.
    """

    def __init__(self) -> None:
        self.root: TrieNode[T] = TrieNode()
        self._size = 0
        # Interned bases with cached pivot tuples: repeated inserts of
        # same-structure pseudocubes (the common case — that sharing is
        # Theorem 1) compute pivots once per distinct basis.
        self._interner = BasisInterner()

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    # ------------------------------------------------------------------
    # Insertion / search on raw (structure, vector) pairs
    # ------------------------------------------------------------------

    def insert_structure(
        self, structure: tuple[int, ...], vector: tuple[int, ...], payload: T
    ) -> bool:
        """Insert an expression given as (structure, complementations).

        Returns True if the expression was new, False if a leaf with the
        same structure and vector already existed (the payload is then
        left untouched — duplicate generation is expected and benign in
        the union steps).
        """
        node = self.root
        for kind, label in _path_of_structure(structure):
            node = node.ensure_child(kind, label)
        if vector in node.leaves:
            return False
        node.leaves[vector] = Leaf(vector, payload)
        self._size += 1
        return True

    def search_structure(
        self, structure: tuple[int, ...], vector: tuple[int, ...]
    ) -> T | None:
        """Find the payload of an expression, or None."""
        node: TrieNode[T] | None = self.root
        for kind, label in _path_of_structure(structure):
            node = node.child(kind, label)
            if node is None:
                return None
        leaf = node.leaves.get(vector)
        return None if leaf is None else leaf.payload

    # ------------------------------------------------------------------
    # Pseudocube-level convenience (the payload is the pseudocube)
    # ------------------------------------------------------------------

    def insert(self, pc: Pseudocube) -> bool:
        """Insert a pseudocube keyed by its CEX structure/vector."""
        structure, vector = _structure_and_vector(pc, self._interner)
        return self.insert_structure(structure, vector, pc)  # type: ignore[arg-type]

    def insert_cex(self, cex: CexExpression) -> bool:
        """Insert a CEX expression, storing its pseudocube as payload."""
        return self.insert(cex.to_pseudocube())

    def __contains__(self, pc: Pseudocube) -> bool:
        structure, vector = _structure_and_vector(pc, self._interner)
        return self.search_structure(structure, vector) is not None

    # ------------------------------------------------------------------
    # Grouping — Property 1
    # ------------------------------------------------------------------

    def groups(self, *, budget: Budget | None = None) -> Iterator[list[T]]:
        """Yield the payload groups of leaves sharing a parent.

        By Property 1 each group holds expressions with the same
        structure, hence (Theorem 1) every pair in a group unifies.

        ``budget`` is ticked once per trie node visited, so walking a
        huge trie stays cancellable between groups.
        """
        stack = [self.root]
        while stack:
            node = stack.pop()
            if budget is not None:
                budget.tick()
            if node.leaves:
                yield [leaf.payload for leaf in node.leaves.values()]
            stack.extend(node.nc_children.values())
            stack.extend(node.c_children.values())

    def items(self, *, budget: Budget | None = None) -> Iterator[T]:
        """All payloads in the trie."""
        for group in self.groups(budget=budget):
            yield from group

    # ------------------------------------------------------------------
    # Rendering (figure 2)
    # ------------------------------------------------------------------

    def render(self, var: str = "x") -> str:
        """ASCII rendering of the trie (double circles = NC-nodes)."""
        lines: list[str] = []

        def walk(node: TrieNode[T], depth: int) -> None:
            if node.kind is not None:
                tag = f"(({var}{node.label}))" if node.kind == NC_NODE else f"({var}{node.label})"
                lines.append("  " * depth + tag)
            for vector in sorted(node.leaves):
                lines.append("  " * (depth + 1) + "[" + "".join(map(str, vector)) + "]")
            for child in node.ordered_children():
                walk(child, depth + (node.kind is not None))

        lines.append("(root)")
        walk(self.root, 1)
        return "\n".join(lines)
