"""Cancellation responsiveness: every instrumented algorithm stops fast.

The cooperative-budget contract is that each minimization inner loop
ticks its budget often enough that a cancellation (or a tick cap) lands
within a bounded amount of further work.  These tests drive every
instrumented entry point two ways:

* a **pre-cancelled** token must surface :class:`Cancelled` within one
  ``tick_every`` window of work (here ``tick_every=1``, so immediately
  at the first tick);
* a tight **tick cap** must surface ``BudgetExceeded(reason="ticks")``,
  proving the loop actually ticks proportionally to its work (an
  uninstrumented loop would run to completion and never notice).

Plus a live-thread test: cancelling from another thread mid-run returns
within a wall-clock bound far below the job's natural runtime.
"""

from __future__ import annotations

import itertools
import threading
import time

import pytest

from repro.bench.suite import get_benchmark
from repro.boolfunc.function import BoolFunc
from repro.budget import Budget
from repro.errors import BudgetExceeded, Cancelled
from repro.kernels import gf2mat
from repro.minimize import covering as cov
from repro.minimize import eppp as eppp_mod
from repro.minimize.bounded import minimize_spp_bounded
from repro.minimize.eppp import generate_eppp
from repro.minimize.exact import minimize_spp
from repro.minimize.heuristic import minimize_spp_k
from repro.minimize.sp import minimize_sp
from repro.trie.partition_trie import PartitionTrie


def _dense_func(n: int = 7) -> BoolFunc:
    """A function with enough on-points that every algorithm loops a lot."""
    return BoolFunc.from_lambda(n, lambda p: bin(p).count("1") % 3 != 0)


def _cancelled_budget() -> Budget:
    budget = Budget(tick_every=1)
    budget.cancel("test")
    return budget


def _capped_budget(ticks: int = 64) -> Budget:
    return Budget(max_ticks=ticks, tick_every=1)


ALGORITHMS = {
    "exact": lambda f, b: minimize_spp(f, budget=b),
    "bounded": lambda f, b: minimize_spp_bounded(f, 2, budget=b),
    "heuristic-k1": lambda f, b: minimize_spp_k(f, 1, budget=b),
    "sp": lambda f, b: minimize_sp(f, budget=b),
    "eppp": lambda f, b: generate_eppp(f, budget=b),
    "covering-greedy": lambda f, b: _solve_covering(f, "greedy", b),
    "covering-exact": lambda f, b: _solve_covering(f, "exact", b),
    "trie-groups": lambda f, b: _walk_trie(f, b),
}


def _solve_covering(func: BoolFunc, mode: str, budget: Budget):
    from repro.minimize.qm import prime_implicants

    primes = prime_implicants(func)
    problem = cov.build_covering(
        sorted(func.on_set),
        primes,
        covered_rows_of=lambda c: c.points(),
        cost_of=lambda c: max(c.num_literals(func.n), 1),
    )
    return cov.solve(problem, mode=mode, budget=budget)


def _walk_trie(func: BoolFunc, budget: Budget):
    from repro.core.pseudocube import Pseudocube

    # Two-point pseudocubes with varied offsets produce many distinct
    # structures, so the trie walk visits plenty of interior nodes.
    space = 1 << func.n
    trie = PartitionTrie()
    for p in sorted(func.care_set):
        offset = 1 + (p % (space - 1))
        trie.insert(Pseudocube.from_points(func.n, [p, p ^ offset]))
    return list(trie.groups(budget=budget))


class TestPreCancelled:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_raises_cancelled_immediately(self, name):
        func = _dense_func()
        with pytest.raises(Cancelled):
            ALGORITHMS[name](func, _cancelled_budget())


class TestTickCap:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_tick_cap_fires(self, name):
        # A cap far below the work of a 7-variable dense function must
        # trip — if an algorithm never ticks, it completes and fails.
        func = _dense_func()
        budget = _capped_budget(64)
        with pytest.raises(BudgetExceeded) as info:
            ALGORITHMS[name](func, budget)
        assert info.value.reason == "ticks"
        # Responsiveness bound: with tick_every=1 the overshoot past
        # the cap is at most one bulk-tick batch (one inner-loop row).
        assert budget.ticks < 64 + 2 ** func.n


class TestLiveCancellation:
    def test_cancel_mid_run_returns_quickly(self):
        # minimize_spp on 8 dense variables runs far longer than the
        # bound asserted here; a cancel from another thread must cut it
        # short.  Exercises the full exact pipeline's tick plumbing.
        func = _dense_func(8)
        budget = Budget()
        outcome: list[str] = []

        def worker():
            try:
                minimize_spp(func, budget=budget)
                outcome.append("finished")
            except Cancelled:
                outcome.append("cancelled")
            except BudgetExceeded:  # pragma: no cover — wrong flavour
                outcome.append("budget")

        thread = threading.Thread(target=worker)
        t0 = time.monotonic()
        thread.start()
        time.sleep(0.05)
        budget.cancel("mid-run")
        thread.join(timeout=5.0)
        elapsed = time.monotonic() - t0
        assert not thread.is_alive()
        assert outcome == ["cancelled"]
        assert elapsed < 5.0

    @pytest.mark.skipif(
        not gf2mat.AVAILABLE,
        reason="numpy GF(2) kernels disabled (REPRO_NO_NUMPY or no bitwise_count)",
    )
    def test_cancel_lands_inside_a_packed_step(self):
        """A packed step ticks once per block of its pair stream, so a
        cancel that arrives while a step runs stops it at the next
        block.  With blocks of 2^15 pairs, life[0]'s degree-0 step
        (9,730 pairs) is one block and its degree-1 step (106,050 pairs)
        four; cancelling from inside the block decoder on its second
        call (the degree-1 step's first block) must raise before that
        step decodes another block."""
        func = get_benchmark("life")[0]
        budget = Budget()
        decode = gf2mat.pair_block
        calls = []

        def cancelling_decode(lengths, start, stop):
            calls.append(start)
            if len(calls) == 2:
                budget.cancel("mid-step")
            return decode(lengths, start, stop)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(eppp_mod, "_BLOCK_PAIRS", 1 << 15)
            mp.setattr(gf2mat, "pair_block", cancelling_decode)
            with pytest.raises(Cancelled):
                generate_eppp(func, budget=budget)
        assert calls == [0, 0]

    @pytest.mark.skipif(
        not gf2mat.AVAILABLE,
        reason="numpy GF(2) kernels disabled (REPRO_NO_NUMPY or no bitwise_count)",
    )
    def test_cancel_lands_inside_a_truncated_level(self):
        """Past its cap a generation keeps its whole level — over a
        million pseudocubes for a dense 9-input function, seconds of
        object construction after the last block ticked — so a level's
        pseudocubes are built in chunks with a budget check before
        each.  life[0] capped at 1000 overflows in its degree-0 step and
        first builds that level's 140 points: with one-item chunks, a
        cancel while the first chunk is built must raise before the
        second."""
        func = get_benchmark("life")[0]
        budget = Budget()
        chunks = []

        def cancelling_repeat(n):
            chunks.append(n)
            budget.cancel("mid-level")
            return itertools.repeat(n)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(eppp_mod, "_MATERIALIZE_CHUNK", 1)
            mp.setattr(eppp_mod, "repeat", cancelling_repeat)
            with pytest.raises(Cancelled):
                generate_eppp(
                    func, max_pseudoproducts=1000, on_limit="stop", budget=budget
                )
        assert len(chunks) == 1

    def test_cancel_lands_inside_a_truncated_scalar_level(self):
        """The scalar lane keeps a truncated step's levels the same way:
        built in chunks with a budget check before each.  life[0]
        capped at 1000 overflows in its degree-0 step; with one-item
        chunks, a cancel while the first chunk is built must raise
        before the second."""
        func = get_benchmark("life")[0]
        budget = Budget()
        chunks = []

        def cancelling_repeat(n):
            chunks.append(n)
            budget.cancel("mid-level")
            return itertools.repeat(n)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gf2mat, "AVAILABLE", False)
            mp.setattr(eppp_mod, "_MATERIALIZE_CHUNK", 1)
            mp.setattr(eppp_mod, "repeat", cancelling_repeat)
            with pytest.raises(Cancelled):
                generate_eppp(
                    func, max_pseudoproducts=1000, on_limit="stop", budget=budget
                )
        assert len(chunks) == 1
