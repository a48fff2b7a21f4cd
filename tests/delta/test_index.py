"""Tests for the near-duplicate index and the scheduler warm path."""

import random

import pytest

from repro.boolfunc.function import BoolFunc
from repro.delta import (
    DeltaIndex,
    MinimizationContext,
    build_context,
    toggle_points,
    warm_minimize,
    warm_record_for,
)
from repro.delta import index as index_module
from repro.engine import Job, run_batch
from repro.engine import ladder as ladder_module
from repro.engine.ladder import execute_rung, ladder_for
from repro.kernels import coverage as coverage_module
from repro.minimize.exact import minimize_spp
from repro.serialize import form_from_dict
from repro.trie.partition_trie import PartitionTrie
from repro.verify import VerificationReport, verify_form

FUNC = BoolFunc(4, frozenset({0, 1, 3, 6, 9, 12, 14}), frozenset({5, 10}))


def _ctx(func=FUNC, covering="greedy"):
    ctx = build_context(func, minimize_spp(func, covering=covering), covering=covering)
    assert ctx is not None
    return ctx


def _put(index, func=FUNC, covering="greedy"):
    job = Job(func, method="exact", covering=covering)
    index.put(job.content_hash, _ctx(func, covering))
    return job


class TestLookup:
    def test_near_duplicate_job_finds_base(self):
        index = DeltaIndex()
        _put(index)
        edited = toggle_points(FUNC, [0, 5])
        got = index.lookup(Job(edited, method="exact"))
        assert got is not None and got.func == FUNC
        assert index.stats()["lookups"] == 1

    def test_non_exact_job_never_looked_up(self):
        index = DeltaIndex()
        _put(index)
        assert index.lookup(Job(FUNC, method="heuristic")) is None
        assert index.stats()["lookups"] == 0

    def test_covering_mode_must_match(self):
        index = DeltaIndex()
        _put(index, covering="greedy")
        edited = toggle_points(FUNC, [0])
        job = Job(edited, method="exact", covering="exact")
        assert index.lookup(job) is None
        assert index.stats()["fallback_reasons"] == {"covering-mode-changed": 1}

    def test_gate_precedence(self):
        """Only contexts filed under the job's (n, care set) are read: an
        entry of another dimension or another care set is a plain miss,
        counted as no fallback.  Under the key, the covering-mode gate
        reports before the cap gate."""
        index = DeltaIndex()
        _put(index, BoolFunc(3, frozenset({0, 1, 3}), frozenset({6})))
        _put(index)
        grown = toggle_points(FUNC, [7])  # care set changed as well
        assert index.lookup(Job(grown, method="exact", covering="exact")) is None
        assert index.stats()["fallback_reasons"] == {}
        edited = toggle_points(FUNC, [0])
        job = Job(edited, method="exact", covering="exact", max_pseudoproducts=1)
        assert index.lookup(job) is None
        assert index.stats()["fallback_reasons"] == {"covering-mode-changed": 1}

    def test_eligibility_runs_only_past_the_cheap_gates(self, monkeypatch):
        """The edit size is measured only for contexts filed under the
        job's care set that pass the covering-mode and cap gates; a
        context under another care set is never read."""
        calls = []
        edit_size = MinimizationContext.edit_size

        def counted(ctx, func):
            calls.append(ctx.func)
            return edit_size(ctx, func)

        monkeypatch.setattr(MinimizationContext, "edit_size", counted)
        index = DeltaIndex()
        _put(index)
        _put(index, BoolFunc(4, frozenset({0, 1, 3, 6, 9, 12}), frozenset({5, 10})))
        edited = toggle_points(FUNC, [0])
        assert index.lookup(Job(edited, method="exact", covering="exact")) is None
        assert index.lookup(Job(edited, method="exact", max_pseudoproducts=1)) is None
        assert calls == []
        assert index.lookup(Job(edited, method="exact")) is not None
        assert calls == [FUNC]

    def test_base_found_whatever_its_recency(self):
        """A base with the job's care set is found however many newer
        entries of its dimension came after it."""
        base = BoolFunc(5, frozenset({2, 3, 9, 10, 11, 13, 15, 17, 21, 23, 29, 31}))
        index = DeltaIndex()
        _put(index, base)
        rng = random.Random(5)
        for _ in range(8):
            _put(index, BoolFunc(5, frozenset(rng.sample(range(32), 12))))
        edited = toggle_points(base, [11, 17, 21, 31])
        got = index.lookup(Job(edited, method="exact"))
        assert got is not None and got.func == base
        assert index.stats()["fallbacks"] == 0

    def test_unrelated_functions_count_no_fallback(self):
        """Distinct functions share no care set: each lookup, made before
        its function is captured, is a plain miss with no fallback."""
        index = DeltaIndex()
        rng = random.Random(11)
        for n in (3, 4, 4, 4, 5, 5, 5, 5):
            func = BoolFunc(n, frozenset(rng.sample(range(1 << n), 1 << (n - 1))))
            assert index.lookup(Job(func, method="exact")) is None
            _put(index, func)
        stats = index.stats()
        assert stats["lookups"] == 8 and stats["warm_hits"] == 0
        assert stats["fallbacks"] == 0 and stats["fallback_reasons"] == {}

    def test_smallest_edit_wins(self):
        index = DeltaIndex()
        near = toggle_points(FUNC, [0])
        _put(index)
        _put(index, near)
        got = index.lookup(Job(near, method="exact"))
        assert got is not None and got.func == near

    def test_drop_quarantines(self):
        index = DeltaIndex()
        _put(index)
        job = Job(toggle_points(FUNC, [0]), method="exact")
        index.drop(index.lookup(job))
        assert len(index) == 0
        assert index.lookup(job) is None


@pytest.fixture(scope="module")
def wide_base():
    """80 on-points and 72 don't-cares over B^8: room for 64-point edits
    in both directions."""
    points = random.Random(1).sample(range(256), 152)
    return BoolFunc(8, frozenset(points[:80]), frozenset(points[80:]))


class TestLargeEdits:
    @pytest.mark.parametrize("size", [16, 32, 64])
    @pytest.mark.parametrize("direction", ["on-to-dc", "dc-to-on"])
    def test_large_edit_goes_warm_and_equals_cold(self, wide_base, direction, size):
        """Any care-preserving edit finds its base, whatever its size, and
        the warm cover is the cold cover."""
        index = DeltaIndex()
        _put(index, wide_base)
        pool = wide_base.on_set if direction == "on-to-dc" else wide_base.dc_set
        toggles = random.Random(size).sample(sorted(pool), size)
        edited = toggle_points(wide_base, toggles)
        base = index.lookup(Job(edited, method="exact"))
        assert base is not None and base.edit_size(edited) == size
        assert warm_minimize(base, edited).form == minimize_spp(edited).form
        assert index.stats()["fallbacks"] == 0


class TestLru:
    def test_capacity_evicts_oldest(self):
        index = DeltaIndex(capacity=2)
        funcs = [
            BoolFunc(3, frozenset({0, 1, 3}), frozenset({6})),
            BoolFunc(3, frozenset({1, 2, 4}), frozenset({7})),
            BoolFunc(3, frozenset({2, 5, 6}), frozenset({0})),
        ]
        for f in funcs:
            _put(index, f)
        stats = index.stats()
        assert stats["entries"] == 2
        assert stats["inserts"] == 3
        assert stats["evictions"] == 1
        # The first insert was evicted; its near-duplicates go cold.
        assert index.lookup(Job(funcs[0], method="exact")) is None


class TestWarmRecord:
    def test_record_is_full_engine_record(self):
        index = DeltaIndex()
        _put(index)
        edited = toggle_points(FUNC, [0, 5])
        job = Job(edited, method="exact")
        record = warm_record_for(job, index)
        assert record is not None
        assert record["kind"] == "engine_record"
        assert record["rung"] == "exact"
        assert record["extras"]["delta"]["warm"] is True
        assert record["extras"]["delta"]["edit"] == 2
        assert record["integrity"]["verified"]
        form = form_from_dict(record["form"])
        assert verify_form(form, edited)
        cold = minimize_spp(edited)
        assert form == cold.form
        assert index.stats()["warm_hits"] == 1

    def test_miss_returns_none(self):
        index = DeltaIndex()
        job = Job(FUNC, method="exact")
        assert warm_record_for(job, index) is None

    def test_verify_failure_quarantines_the_base(self, monkeypatch):
        """The base context is stored under the *base* job's hash, so the
        quarantine must drop the entry lookup chose, not the edited
        job's key."""
        index = DeltaIndex()
        _put(index)
        job = Job(toggle_points(FUNC, [0, 5]), method="exact")
        monkeypatch.setattr(
            ladder_module,
            "verify_form",
            lambda form, func: VerificationReport(False, (0,), ()),
        )
        assert warm_record_for(job, index) is None
        assert index.stats()["fallback_reasons"] == {"verify-failed": 1}
        assert len(index) == 0
        assert index.lookup(job) is None


class TestSchedulerIntegration:
    def test_run_batch_serves_edit_warm(self):
        index = DeltaIndex()
        base_job = Job(FUNC, method="exact", label="base")
        edited = toggle_points(FUNC, [0, 5])
        edit_job = Job(edited, method="exact", label="edited")

        first = run_batch([base_job], workers=0, delta_index=index)
        assert first.ok
        assert len(index) == 1  # the inline rung captured a context

        second = run_batch([edit_job], workers=0, delta_index=index)
        assert second.ok
        record = second.outcomes[0].record
        assert record["extras"]["delta"]["warm"] is True
        assert index.stats()["warm_hits"] == 1
        cold = run_batch([edit_job], workers=0)
        assert record["form"] == cold.outcomes[0].record["form"]

    def test_capture_error_is_counted_not_raised(self, monkeypatch):
        """A snapshot that raises leaves the rung's record intact and
        shows up in ``capture_errors``, not as a fallback."""

        def broken(*args, **kwargs):
            raise RuntimeError("snapshot failed")

        monkeypatch.setattr(index_module, "build_context", broken)
        index = DeltaIndex()
        job = Job(FUNC, method="exact")
        rung = ladder_for(job)[0]
        record = execute_rung(job, rung, capture=index.observe)
        assert record["rung"] == "exact"
        assert verify_form(form_from_dict(record["form"]), FUNC)
        stats = index.stats()
        assert stats["capture_errors"] == 1
        assert stats["fallbacks"] == 0 and stats["inserts"] == 0
        assert len(index) == 0

    def test_capture_runs_no_kernel_and_builds_no_trie(self, monkeypatch):
        """Capture references the cold solve's candidates and covering
        problem: with the mask kernel and trie insertion broken, a
        finished exact rung is still indexed."""
        job = Job(FUNC, method="exact")
        rung = ladder_for(job)[0]
        result = minimize_spp(FUNC)

        def broken(*args, **kwargs):
            raise RuntimeError("capture must not recompute")

        monkeypatch.setattr(coverage_module, "_masks_and_costs", broken)
        monkeypatch.setattr(PartitionTrie, "insert", broken)
        index = DeltaIndex()
        index.observe(job, rung, result, {"truncated": False})
        stats = index.stats()
        assert stats["capture_errors"] == 0 and stats["inserts"] == 1
        assert index.lookup(Job(toggle_points(FUNC, [0]), method="exact")) is not None
