"""Ablation A — grouping backend: partition trie vs hash index.

Both backends realize the same same-structure partition (Theorem 1) and
run the same union step, so Algorithm 2 produces identical EPPP sets;
the lanes differ only in grouping.  The index lane sorts each level by
basis, the trie lane regroups each level through a ``PartitionTrie``
(and inserts every union, as the paper does), so this ablation times
the trie's regrouping against the hash map in Python; with numpy the
index lane runs its steps packed, and ``REPRO_NO_NUMPY=1`` leaves the
regrouping as the only difference.  (In the paper's
C setting the trie also buys prefix compression; in Python the hash map
dominates, which is why it is the default backend — see DESIGN.md §6.)
"""

from __future__ import annotations

import pytest

from repro.bench.suite import get_benchmark
from repro.minimize.eppp import generate_eppp

CASES = [("adr3", 3), ("life6", 0)]


@pytest.mark.parametrize("name,output", CASES)
@pytest.mark.parametrize("backend", ["index", "trie"])
def test_backend_generation_speed(benchmark, name, output, backend):
    fo = get_benchmark(name)[output]
    result = benchmark.pedantic(
        generate_eppp, args=(fo,), kwargs={"backend": backend}, rounds=1, iterations=1
    )
    assert result.eppps


@pytest.mark.parametrize("name,output", CASES)
def test_backends_identical_results(name, output):
    fo = get_benchmark(name)[output]
    index = generate_eppp(fo, backend="index")
    trie = generate_eppp(fo, backend="trie")
    assert set(index.eppps) == set(trie.eppps)
    assert index.total_comparisons == trie.total_comparisons
