"""Tests for the near-duplicate index and the scheduler warm path."""

from repro.boolfunc.function import BoolFunc
from repro.delta import (
    DeltaIndex,
    build_context,
    onset_signature,
    toggle_points,
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


class TestSignature:
    def test_deterministic_and_order_independent(self):
        assert onset_signature([3, 1, 9]) == onset_signature([9, 3, 1])
        assert onset_signature(FUNC.on_set) == onset_signature(sorted(FUNC.on_set))

    def test_near_duplicates_collide_in_some_band(self):
        a = onset_signature(FUNC.on_set)
        b = onset_signature(toggle_points(FUNC, [0]).on_set)
        assert any(x == y for x, y in zip(a, b))

    def test_disjoint_sets_differ(self):
        assert onset_signature({0, 1, 2}) != onset_signature({13, 14, 15})


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

    def test_edit_too_large_counted(self):
        index = DeltaIndex(max_edit=1)
        _put(index)
        edited = toggle_points(FUNC, [0, 5])  # symmetric diff of 2
        assert index.lookup(Job(edited, method="exact")) is None
        assert index.stats()["fallback_reasons"] == {"edit-too-large": 1}

    def test_gate_precedence(self):
        """An entry of another dimension is skipped uncounted, and the
        covering-mode gate reports before eligibility()'s reasons."""
        index = DeltaIndex()
        _put(index, BoolFunc(3, frozenset({0, 1, 3}), frozenset({6})))
        grown = toggle_points(FUNC, [7])  # care set changed as well
        assert index.lookup(Job(grown, method="exact", covering="exact")) is None
        assert index.stats()["fallback_reasons"] == {}
        _put(index)
        assert index.lookup(Job(grown, method="exact", covering="exact")) is None
        assert index.stats()["fallback_reasons"] == {"covering-mode-changed": 1}

    def test_eligibility_runs_only_past_the_cheap_gates(self, monkeypatch):
        """Care-set and edit checks run only for entries that pass the
        dimension, covering-mode and cap gates."""
        calls = []
        check = index_module.eligibility

        def counted(*args, **kwargs):
            calls.append(args[0])
            return check(*args, **kwargs)

        monkeypatch.setattr(index_module, "eligibility", counted)
        index = DeltaIndex()
        _put(index)
        edited = toggle_points(FUNC, [0])
        assert index.lookup(Job(edited, method="exact", covering="exact")) is None
        assert index.lookup(Job(edited, method="exact", max_pseudoproducts=1)) is None
        assert calls == []
        assert index.lookup(Job(edited, method="exact")) is not None
        assert len(calls) == 1

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
