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
from repro.minimize.eppp import EpppColumns, GenerationBudgetExceeded, generate_eppp
from repro.minimize.exact import minimize_spp
from tests.kernels.test_columnar import POOL
from tests.minimize.test_eppp import step_counters

pytestmark = pytest.mark.skipif(
    not gf2mat.AVAILABLE,
    reason="numpy GF(2) kernels disabled (REPRO_NO_NUMPY or no bitwise_count)",
)


def _snapshot(result):
    return (
        result.n,
        [(pc.anchor, pc.basis) for pc in result.eppps],
        step_counters(result),
        result.truncated,
    )


def _run_both(func, **kwargs):
    """(packed, scalar) snapshots of ``generate_eppp`` on ``func``, each
    with its budget's tick total: the lanes tick one unit per pair
    compared, up to the row where a cap stops the step."""
    snapshots = []
    for available in (True, False):
        budget = Budget()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gf2mat, "AVAILABLE", available)
            try:
                snapshot = _snapshot(generate_eppp(func, budget=budget, **kwargs))
            except GenerationBudgetExceeded:
                snapshot = "raised"
        snapshots.append((snapshot, budget.ticks))
    return tuple(snapshots)


def _no_scalar_step(*args, **kwargs):
    raise AssertionError("a packed generation ran the scalar union step")


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
        """No step hands off to the scalar loop, whatever its size: a
        dense 5-input draw at every width runs packed from its first
        step to its last and agrees with the scalar lane."""
        func = FAMILIES["dense"](random.Random(7), 5)
        for width in (None, 1, 2, 3):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(eppp_mod, "_union_step", _no_scalar_step)
                packed = _snapshot(generate_eppp(func, factor_width=width))
            (packed_run, ticks), scalar = _run_both(func, factor_width=width)
            assert packed_run == packed
            assert (packed_run, ticks) == scalar


class TestOnePackedLane:
    def test_packed_generation_never_runs_a_scalar_step(self):
        """A packed generation finishes every step it starts, down to a
        last level with no pairs, and returns columns: the pool at
        widths None and 2, an empty care set, one point, every care set
        of at most 7 points drawn below, and mlp4[7], whose degree-3
        step has 15 pairs."""
        funcs = [get_benchmark(name)[output] for name, output in POOL]
        funcs += [BoolFunc(4, frozenset()), BoolFunc(4, frozenset({9}))]
        rng = random.Random(22)
        for size in range(2, 8):
            for n in (3, 4, 6):
                points = rng.sample(range(1 << n), size)
                funcs.append(BoolFunc(n, frozenset(points[1:]), frozenset(points[:1])))
        mlp4 = get_benchmark("mlp4")[7]
        funcs.append(mlp4)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(eppp_mod, "_union_step", _no_scalar_step)
            for func in funcs:
                for width in (None, 2):
                    result = generate_eppp(func, factor_width=width)
                    assert isinstance(result.eppps, EpppColumns)
                    assert not result.truncated
            steps = generate_eppp(mlp4).steps
        assert 15 in [s.comparisons for s in steps]


class TestMinimizerParity:
    @settings(max_examples=15, deadline=None)
    @given(family_funcs)
    def test_spp_form_identical(self, func):
        """The full minimizer yields the same ``SppForm`` (same
        pseudoproducts, same order, same cost) with kernels on vs. off."""
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
        total is the scalar lane's for every block size."""
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
                want_ticks = budget.ticks
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
                assert ticks == {want_ticks}
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
