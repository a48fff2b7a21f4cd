"""Tests for the dict-backed structure index, including agreement with
the partition trie."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.pseudocube import Pseudocube
from repro.trie.index import StructureIndex
from repro.trie.partition_trie import PartitionTrie

from tests.conftest import pseudocubes


class TestBasics:
    def test_insert_contains_len(self):
        index = StructureIndex()
        pc = Pseudocube.from_point(4, 9)
        assert not index
        assert index.insert(pc)
        assert pc in index
        assert not index.insert(pc)
        assert len(index) == 1
        assert bool(index)

    def test_groups_by_structure(self):
        index = StructureIndex()
        a = Pseudocube.from_points(3, [0b000, 0b011])
        b = Pseudocube.from_points(3, [0b100, 0b111])
        c = Pseudocube.from_points(3, [0b000, 0b101])
        for pc in (a, b, c):
            index.insert(pc)
        groups = sorted((len(g) for g in index.groups()))
        assert groups == [1, 2]


class TestColumnarViews:
    def test_group_bases_in_iteration_order(self):
        index = StructureIndex()
        a = Pseudocube.from_points(3, [0b000, 0b011])
        b = Pseudocube.from_points(3, [0b100, 0b111])  # same structure as a
        c = Pseudocube.from_points(3, [0b000, 0b101])
        for pc in (a, b, c):
            index.insert(pc)
        assert index.group_bases() == [a.basis, c.basis]

    def test_packed_arrays_roundtrip(self):
        pytest.importorskip("numpy")
        from repro.kernels import gf2mat

        if not gf2mat.AVAILABLE:
            pytest.skip("numpy kernels disabled")
        index = StructureIndex()
        pcs = [
            Pseudocube.from_points(3, [0b000, 0b011]),
            Pseudocube.from_points(3, [0b100, 0b111]),
            Pseudocube.from_points(3, [0b000, 0b101]),
        ]
        for pc in pcs:
            index.insert(pc)
        anchors, sizes, rows = index.packed_arrays()
        assert anchors.tolist() == [pcs[0].anchor, pcs[1].anchor, pcs[2].anchor]
        assert sizes.tolist() == [2, 1]
        assert [tuple(int(v) for v in r.tolist()) for r in rows] == index.group_bases()

    def test_packed_arrays_none_on_mixed_rank(self):
        pytest.importorskip("numpy")
        from repro.kernels import gf2mat

        if not gf2mat.AVAILABLE:
            pytest.skip("numpy kernels disabled")
        index = StructureIndex()
        index.insert(Pseudocube.from_point(3, 1))  # rank 0
        index.insert(Pseudocube.from_points(3, [0b000, 0b011]))  # rank 1
        assert index.packed_arrays() is None

    def test_packed_arrays_none_when_empty(self):
        assert StructureIndex().packed_arrays() is None


class TestAgreementWithTrie:
    @given(st.lists(pseudocubes(min_n=5, max_n=5), max_size=25))
    def test_same_partition_as_trie(self, pcs):
        """The hash index and the partition trie induce exactly the same
        same-structure partition (the property Algorithm 2 relies on)."""
        index = StructureIndex()
        trie = PartitionTrie()
        for pc in pcs:
            assert index.insert(pc) == trie.insert(pc)
        index_groups = {frozenset(g) for g in index.groups()}
        trie_groups = {frozenset(g) for g in trie.groups()}
        assert index_groups == trie_groups
