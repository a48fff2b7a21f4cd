"""End-to-end parity: packed generation vs. the pinned scalar fallback.

``generate_eppp`` selects the numpy-packed step loop at call time when
``gf2mat.AVAILABLE`` is set; these tests run every function through
both paths and assert the results are identical to the bit — same
candidate pseudocubes in the same order, same per-step statistics, and
the same final ``SppForm`` out of the full minimizer.  Functions come
from the fuzz generator families (dense / sparse / arith-like /
dc-heavy), the same distributions the differential fuzz harness uses.
"""

import random
import tracemalloc

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.suite import get_benchmark
from repro.boolfunc.function import BoolFunc
from repro.budget import Budget
from repro.fuzz.generators import FAMILIES
from repro.kernels import gf2mat
from repro.minimize import eppp as eppp_mod
from repro.minimize.eppp import GenerationBudgetExceeded, generate_eppp
from repro.minimize.exact import minimize_spp

pytestmark = pytest.mark.skipif(
    not gf2mat.AVAILABLE,
    reason="numpy GF(2) kernels disabled (REPRO_NO_NUMPY or no bitwise_count)",
)


def _snapshot(result):
    return (
        result.n,
        [(pc.anchor, pc.basis) for pc in result.eppps],
        [
            (
                s.degree,
                s.pseudoproducts,
                s.groups,
                s.comparisons,
                s.naive_comparisons,
                s.generated,
                s.duplicates,
                s.retained,
            )
            for s in result.steps
        ],
        result.truncated,
    )


def _run_both(func, **kwargs):
    """(packed, scalar) snapshots of ``generate_eppp`` on ``func``.

    The packed leg forces the vector lane even for tiny pair streams
    (``_MIN_PACKED_PAIRS = 0``) so parity covers the kernels, not the
    size-based hand-off.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eppp_mod, "_MIN_PACKED_PAIRS", 0)
        try:
            packed = _snapshot(generate_eppp(func, **kwargs))
        except GenerationBudgetExceeded:
            packed = "raised"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf2mat, "AVAILABLE", False)
        try:
            scalar = _snapshot(generate_eppp(func, **kwargs))
        except GenerationBudgetExceeded:
            scalar = "raised"
    return packed, scalar


family_funcs = st.builds(
    lambda name, n, seed: FAMILIES[name](random.Random(seed), n),
    st.sampled_from(sorted(FAMILIES)),
    st.integers(3, 5),
    st.integers(0, 2**31),
)


# Factor-width bounds: None is Algorithm 2 unchanged; 1-3 filter unions
# in every lane (B = 1 already at degree 0, from the delta's popcount).
widths = st.sampled_from([None, 1, 2, 3])


class TestGenerationParity:
    @settings(max_examples=40, deadline=None)
    @given(family_funcs, widths)
    def test_candidates_and_stats_identical(self, func, width):
        packed, scalar = _run_both(func, factor_width=width)
        assert packed == scalar

    @settings(max_examples=25, deadline=None)
    @given(
        family_funcs,
        st.sampled_from([3, 20, 100]),
        st.sampled_from(["stop", "raise"]),
        widths,
    )
    def test_budget_semantics_identical(self, func, cap, on_limit, width):
        """Truncation and overflow behave identically: the packed loop
        must stop (or raise) at exactly the same generated prefix, with
        filtered pairs counted as comparisons but never as insertions."""
        packed, scalar = _run_both(
            func, max_pseudoproducts=cap, on_limit=on_limit, factor_width=width
        )
        assert packed == scalar

    @settings(max_examples=20, deadline=None)
    @given(family_funcs, widths)
    def test_discard_equal_off_identical(self, func, width):
        packed, scalar = _run_both(func, discard_equal=False, factor_width=width)
        assert packed == scalar

    def test_handoff_threshold_consistent(self):
        """At the production threshold small streams take the scalar
        lane and large ones the packed lane — outputs agree regardless."""
        func = FAMILIES["dense"](random.Random(7), 5)
        for width in (None, 1, 2, 3):
            default = _snapshot(generate_eppp(func, factor_width=width))
            packed, scalar = _run_both(func, factor_width=width)
            assert default == packed == scalar


class TestMinimizerParity:
    @settings(max_examples=15, deadline=None)
    @given(family_funcs)
    def test_spp_form_identical(self, func):
        """The full minimizer yields the same ``SppForm`` (same
        pseudoproducts, same order, same cost) with kernels on vs. off."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(eppp_mod, "_MIN_PACKED_PAIRS", 0)
            on = minimize_spp(func)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gf2mat, "AVAILABLE", False)
            off = minimize_spp(func)
        assert on.form == off.form
        assert on.form.num_literals == off.form.num_literals
        assert on.num_candidates == off.num_candidates
        assert on.covering_optimal == off.covering_optimal


class TestBlockedSteps:
    """A packed step walks its pair stream in blocks of whole rows; the
    block size changes no candidate, counter or tick total."""

    @pytest.mark.parametrize("block", [1, 5, 64])
    @settings(max_examples=20, deadline=None)
    @given(
        family_funcs,
        st.sampled_from([None, 3, 20, 100]),
        st.sampled_from(["stop", "raise"]),
        widths,
    )
    def test_any_block_size_matches_scalar(self, block, func, cap, on_limit, width):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(eppp_mod, "_BLOCK_PAIRS", block)
            packed, scalar = _run_both(
                func, max_pseudoproducts=cap, on_limit=on_limit, factor_width=width
            )
        assert packed == scalar

    def test_overflow_stops_anywhere_in_a_block(self):
        """One function per family, caps 3/20/100, blocks of 1, 5, 64
        and the default pairs: every block holds pairs, the overflowing
        step stops in its first block, inside a block and on a block's
        last row, each time where the scalar lane stops, and the tick
        total is the same for every block size."""
        decode = gf2mat.pair_block
        seen = set()
        for seed, name in enumerate(sorted(FAMILIES)):
            func = FAMILIES[name](random.Random(seed), 5)
            for cap in (3, 20, 100):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(gf2mat, "AVAILABLE", False)
                    budget = Budget()
                    want = _snapshot(
                        generate_eppp(
                            func, max_pseudoproducts=cap, on_limit="stop", budget=budget
                        )
                    )
                ticks = set()
                for block in (1, 5, 64, eppp_mod._BLOCK_PAIRS):
                    blocks: list[int] = []

                    def spy(lengths, start, stop, blocks=blocks):
                        left, right = decode(lengths, start, stop)
                        assert left.size, "a block without pairs"
                        if start == 0:  # a new step
                            blocks.clear()
                        blocks.append(int(left.size))
                        return left, right

                    budget = Budget()
                    with pytest.MonkeyPatch.context() as mp:
                        mp.setattr(eppp_mod, "_BLOCK_PAIRS", block)
                        mp.setattr(eppp_mod, "_MIN_PACKED_PAIRS", 0)
                        mp.setattr(gf2mat, "pair_block", spy)
                        result = generate_eppp(
                            func, max_pseudoproducts=cap, on_limit="stop", budget=budget
                        )
                    assert _snapshot(result) == want
                    ticks.add(budget.ticks)
                    if not result.truncated:
                        continue
                    processed = result.steps[-1].comparisons
                    if len(blocks) == 1:
                        seen.add("first block")
                    seen.add("last row" if processed == sum(blocks) else "mid-block")
                assert len(ticks) == 1
        assert seen == {"first block", "mid-block", "last row"}


class TestStepMemory:
    def test_generation_peak_follows_the_block_not_the_stream(self):
        """radd[1]'s degree-2 step pairs 434,000 items.  A step holds
        one block of pairs at a time, so a generation capped far above
        its size peaks under 8 MiB of traced allocations; holding each
        step's whole stream peaks near 37 MiB here."""
        func = get_benchmark("radd")[1]
        generate_eppp(func, max_pseudoproducts=2_000_000)  # warm caches
        tracemalloc.start()
        try:
            generate_eppp(func, max_pseudoproducts=2_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"
