"""Tests for the partition trie (Section 3.2)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.cex import cex_of
from repro.core.exor import ExorFactor
from repro.core.cex import CexExpression
from repro.core.pseudocube import Pseudocube
from repro.core.structure import structure_of
from repro.trie.partition_trie import PartitionTrie, _path_of_structure

from tests.conftest import pseudocubes

F = ExorFactor.from_literals


class TestPath:
    def test_figure2_path(self):
        """(x0⊕x̄1)·x4·(x0⊕x2⊕x̄5)·(x3⊕x6)·(x2⊕x3⊕x8): each factor is
        its NC-node followed by its C-nodes in increasing order."""
        cex = CexExpression(
            9,
            (F([0], [1]), F([4]), F([0, 2], [5]), F([3, 6]), F([2, 3], [8])),
        )
        path = _path_of_structure(cex.structure())
        assert path == [
            ("NC", 1), ("C", 0),
            ("NC", 4),
            ("NC", 5), ("C", 0), ("C", 2),
            ("NC", 6), ("C", 3),
            ("NC", 8), ("C", 2), ("C", 3),
        ]


class TestInsertSearch:
    def test_insert_and_contains(self):
        trie = PartitionTrie()
        pc = Pseudocube.from_points(3, [0b011, 0b100])
        assert trie.insert(pc)
        assert pc in trie
        assert len(trie) == 1

    def test_duplicate_insert_returns_false(self):
        trie = PartitionTrie()
        pc = Pseudocube.from_point(3, 5)
        assert trie.insert(pc)
        assert not trie.insert(pc)
        assert len(trie) == 1

    def test_search_absent(self):
        trie = PartitionTrie()
        assert Pseudocube.from_point(3, 5) not in trie

    def test_insert_cex(self):
        trie = PartitionTrie()
        pc = Pseudocube.from_points(3, [0b011, 0b100])
        assert trie.insert_cex(cex_of(pc))
        assert pc in trie

    @given(st.lists(pseudocubes(min_n=4, max_n=4), max_size=12))
    def test_size_counts_distinct(self, pcs):
        trie = PartitionTrie()
        for pc in pcs:
            trie.insert(pc)
        assert len(trie) == len(set(pcs))
        assert sorted(map(hash, trie.items())) == sorted(map(hash, set(pcs)))


class TestGrouping:
    def test_property1_same_parent_same_structure(self):
        """Leaves with the same parent represent expressions with the
        same structure (Property 1)."""
        trie = PartitionTrie()
        pcs = [
            Pseudocube.from_points(3, [0b000, 0b011]),
            Pseudocube.from_points(3, [0b100, 0b111]),  # same structure
            Pseudocube.from_points(3, [0b000, 0b101]),  # different
            Pseudocube.from_point(3, 0b010),
        ]
        for pc in pcs:
            trie.insert(pc)
        groups = list(trie.groups())
        by_size = sorted(len(g) for g in groups)
        assert by_size == [1, 1, 2]
        for group in groups:
            structures = {structure_of(pc) for pc in group}
            assert len(structures) == 1

    @given(st.lists(pseudocubes(min_n=5, max_n=5), max_size=20))
    def test_groups_partition_by_structure(self, pcs):
        trie = PartitionTrie()
        for pc in pcs:
            trie.insert(pc)
        seen = []
        structures_seen = set()
        for group in trie.groups():
            assert group, "empty group yielded"
            structures = {pc.basis for pc in group}
            assert len(structures) == 1
            key = structures.pop()
            assert key not in structures_seen, "structure split across groups"
            structures_seen.add(key)
            seen.extend(group)
        assert len(seen) == len(set(pcs))


class TestRender:
    def test_render_marks_node_kinds(self):
        trie = PartitionTrie()
        trie.insert(Pseudocube.from_points(3, [0b000, 0b011]))
        text = trie.render()
        assert "(root)" in text
        assert "((" in text  # an NC-node
        assert "[" in text  # a leaf vector
