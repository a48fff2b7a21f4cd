"""Partition tries (Section 3.2)."""

from repro.trie.nodes import C_NODE, NC_NODE, Leaf, TrieNode
from repro.trie.partition_trie import PartitionTrie

__all__ = [
    "C_NODE",
    "NC_NODE",
    "Leaf",
    "PartitionTrie",
    "TrieNode",
]
