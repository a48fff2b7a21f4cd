"""The index backend's basis-keyed grouping agrees with the partition
trie."""

from hypothesis import given
from hypothesis import strategies as st

from repro.minimize.eppp import _trie_level
from repro.trie.partition_trie import PartitionTrie

from tests.conftest import pseudocubes


class TestAgreementWithTrie:
    @given(st.lists(pseudocubes(min_n=5, max_n=5), max_size=25))
    def test_same_partition_as_trie(self, pcs):
        """A level keyed by direction basis, as the index backend keys
        it, and the partition trie induce exactly the same
        same-structure partition (the property Algorithm 2 relies on);
        the trie lane's regrouping keeps every bucket whole."""
        level: dict[tuple[int, ...], dict[int, None]] = {}
        trie = PartitionTrie()
        for pc in pcs:
            anchors = level.setdefault(pc.basis, {})
            assert trie.insert(pc) == (pc.anchor not in anchors)
            anchors[pc.anchor] = None
        index_groups = {
            frozenset((basis, anchor) for anchor in anchors)
            for basis, anchors in level.items()
        }
        trie_groups = {
            frozenset((pc.basis, pc.anchor) for pc in group) for group in trie.groups()
        }
        assert index_groups == trie_groups
        regrouped = _trie_level(5, level, None)
        assert {b: set(a) for b, a in regrouped.items()} == {
            b: set(a) for b, a in level.items()
        }
