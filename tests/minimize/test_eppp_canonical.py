"""The canonical union rule of EPPP generation.

Every degree-``k+1`` pseudocube is the union of ``2^(k+1) - 1`` pairs of
the degree-``k`` level, and generation builds it from one of them, its
canonical pair (``eppp._canonical_bits``).  These tests check the rule
against brute force, pin the counters it must leave unchanged, run the
packed lane at its widest functions, and run generations on several
threads at once.
"""

import random
import sys
import threading
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.suite import get_benchmark
from repro.boolfunc.function import BoolFunc
from repro.core import gf2
from repro.core.pseudocube import Pseudocube
from repro.fuzz.generators import FAMILIES
from repro.kernels import gf2mat
from repro.minimize import eppp as eppp_mod
from repro.minimize.eppp import generate_eppp
from tests.minimize.test_eppp import _all_pseudoproducts, step_counters
from tests.minimize.test_eppp_kernels import _run_both, _snapshot

family_funcs = st.builds(
    lambda name, n, seed: FAMILIES[name](random.Random(seed), n),
    st.sampled_from(sorted(FAMILIES)),
    st.integers(3, 5),
    st.integers(0, 2**31),
)


# The kernels' switch selecting each index lane: the packed lane where
# numpy is available, and the scalar lane with the kernels off.
LANES = [gf2mat.AVAILABLE, False]


class TestCanonicalRule:
    @settings(max_examples=30, deadline=None)
    @given(family_funcs)
    def test_each_union_has_exactly_one_canonical_pair(self, func):
        """Over the complete level-k stream (every degree-k pseudocube
        of the care set, by brute force), the canonical pairs make every
        degree-(k+1) pseudocube exactly once, and the step counts them
        as its ``generated`` unions."""
        levels: dict[int, list[Pseudocube]] = {}
        for pc in _all_pseudoproducts(func):
            levels.setdefault(pc.degree, []).append(pc)
        steps = generate_eppp(func).steps
        for k, level in sorted(levels.items()):
            groups: dict[tuple[int, ...], list[int]] = {}
            for pc in level:
                groups.setdefault(pc.basis, []).append(pc.anchor)
            made: Counter = Counter()
            for basis, anchors in groups.items():
                bits = eppp_mod._canonical_bits(basis)
                for ai, aj in combinations(anchors, 2):
                    delta = ai ^ aj
                    if delta & -delta & bits:
                        union = Pseudocube(func.n, ai, basis).union(
                            Pseudocube(func.n, aj, basis)
                        )
                        made[union] += 1
                        assert union.basis == (*basis, delta)
            children = levels.get(k + 1, [])
            assert set(made) == set(children)
            assert set(made.values()) <= {1}
            assert steps[k].pseudoproducts == len(level)
            assert steps[k].generated == len(children)

    @settings(max_examples=30, deadline=None)
    @given(
        family_funcs,
        st.sampled_from([None, 1, 2, 3]),
        st.sampled_from([None, 3, 20, 100]),
    )
    def test_both_lanes_emit_candidates_in_degree_basis_anchor_order(
        self, func, width, cap
    ):
        """Retained items come level by level in (basis, anchor) order;
        an overflow appends its level and the children made before the
        trigger, so the order holds under a cap too."""
        for available in LANES:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(gf2mat, "AVAILABLE", available)
                result = generate_eppp(
                    func, factor_width=width, max_pseudoproducts=cap, on_limit="stop"
                )
            keys = [(pc.degree, pc.basis, pc.anchor) for pc in result.eppps]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)


# Per-degree (degree, pseudoproducts, groups, comparisons,
# naive_comparisons, generated, duplicates, retained) as generated by
# the first-occurrence pipeline that built every copy of each union.
PINNED_STEPS = {
    ("life", 0, None): [
        (0, 140, 1, 9730, 9730, 9730, 0, 0),
        (1, 9730, 493, 106050, 47331585, 35350, 70700, 0),
        (2, 35350, 8022, 79380, 624793575, 11340, 68040, 0),
        (3, 11340, 6090, 6300, 64292130, 420, 5880, 1680),
        (4, 420, 420, 0, 87990, 0, 0, 420),
    ],
    ("life", 0, 2): [
        (0, 140, 1, 9730, 9730, 9730, 0, 0),
        (1, 9730, 493, 106050, 47331585, 21070, 42140, 0),
        (2, 21070, 4032, 55440, 221961915, 7140, 35700, 0),
        (3, 7140, 3990, 4200, 25486230, 420, 3780, 1680),
        (4, 420, 420, 0, 87990, 0, 0, 420),
    ],
    ("dist", 1, None): [
        (0, 120, 1, 7140, 7140, 7140, 0, 0),
        (1, 7140, 251, 116166, 25486230, 38722, 77444, 0),
        (2, 38722, 4989, 187677, 749677281, 26811, 160866, 592),
        (3, 26811, 7568, 54885, 359401455, 3659, 51226, 2248),
        (4, 3659, 1434, 4185, 6692311, 135, 4050, 533),
        (5, 135, 72, 63, 9045, 1, 62, 9),
        (6, 1, 1, 0, 0, 0, 0, 1),
    ],
    ("dist", 1, 2): [
        (0, 120, 1, 7140, 7140, 7140, 0, 0),
        (1, 7140, 251, 116166, 25486230, 14844, 29688, 16),
        (2, 14844, 1589, 84966, 110164746, 6307, 31535, 806),
        (3, 6307, 1580, 14565, 19885971, 856, 7704, 663),
        (4, 856, 368, 915, 365940, 46, 644, 187),
        (5, 46, 25, 21, 1035, 1, 20, 4),
        (6, 1, 1, 0, 0, 0, 0, 1),
    ],
    ("adr4", 3, None): [
        (0, 128, 1, 8128, 8128, 8128, 0, 0),
        (1, 8128, 253, 143904, 33028128, 47968, 95936, 0),
        (2, 47968, 5438, 240912, 1150440528, 34416, 206496, 10),
        (3, 34416, 10920, 60960, 592213320, 4064, 56896, 360),
        (4, 4064, 1839, 4185, 8256016, 135, 4050, 936),
        (5, 135, 72, 63, 9045, 1, 62, 11),
        (6, 1, 1, 0, 0, 0, 0, 1),
    ],
    ("adr4", 3, 2): [
        (0, 128, 1, 8128, 8128, 8128, 0, 0),
        (1, 8128, 253, 143904, 33028128, 15108, 30216, 0),
        (2, 15108, 1533, 84086, 114118278, 4638, 23190, 16),
        (3, 4638, 1418, 8435, 10753203, 305, 2745, 1253),
        (4, 305, 149, 285, 46360, 6, 84, 133),
        (5, 6, 3, 3, 15, 0, 0, 6),
    ],
}


class TestPinnedCounters:
    @pytest.mark.parametrize("name,output,width", sorted(PINNED_STEPS, key=str))
    def test_full_width_step_counters(self, name, output, width):
        """Building each union once changes no counter: the canonical
        pairs are the distinct unions, and every other pair is still a
        comparison and a duplicate."""
        result = generate_eppp(get_benchmark(name)[output], factor_width=width)
        assert step_counters(result) == PINNED_STEPS[name, output, width]


@pytest.mark.skipif(
    not gf2mat.AVAILABLE,
    reason="numpy GF(2) kernels disabled (REPRO_NO_NUMPY or no bitwise_count)",
)
class TestWideFunctions:
    @pytest.mark.parametrize("n", [15, 16])
    @pytest.mark.parametrize("width", [None, 1, 2])
    @pytest.mark.parametrize("cap", [None, 12])
    def test_packed_matches_scalar_at_the_widest_n(self, n, width, cap):
        """A coset of dimension 3 with high bits set, plus two loose
        points, at the packed lane's widest functions: the degree-0 key
        (Δ, anchor) fills 2n bits and the 24 degree-1 groups add 5."""
        packed, scalar = _run_both(
            _wide_function(n), factor_width=width, max_pseudoproducts=cap, on_limit="stop"
        )
        assert packed == scalar

    def test_wider_functions_run_the_scalar_lane(self):
        """Past ``MAX_PACKED_N`` the index lane is the scalar loop: its
        candidates are a list."""
        assert gf2mat.MAX_PACKED_N == 16
        result = generate_eppp(_wide_function(17))
        assert isinstance(result.eppps, list) and result.eppps


def _wide_function(n):
    top = 1 << (n - 1)
    span = gf2.span_points((1 | top, 2 | (top >> 1), 4 | (top >> 2)), 8)
    care = set(span) | {top | 3, (top >> 3) | 5}
    return BoolFunc(n, frozenset(care))


class TestThreadSafety:
    def test_concurrent_generations_match_snapshots(self):
        """Four threads generating different functions at once (the
        serving tier generates on several request threads) each get
        their single-threaded answer."""
        funcs = [
            FAMILIES[name](random.Random(seed), 8)
            for seed, name in enumerate(("dense", "arith-like", "dc-heavy", "sparse"))
        ]
        want = [_snapshot(generate_eppp(f)) for f in funcs]
        barrier = threading.Barrier(4)
        wrong = []

        def run(i):
            barrier.wait(timeout=30)
            for rep in range(10):
                try:
                    got = _snapshot(generate_eppp(funcs[i]))
                except Exception as exc:  # noqa: BLE001 — a race may raise too
                    wrong.append((i, rep, repr(exc)))
                    continue
                if got != want[i]:
                    wrong.append((i, rep))

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads inside the steps often
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
