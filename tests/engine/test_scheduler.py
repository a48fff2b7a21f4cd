"""Tests for the batch scheduler: parallelism, deadlines, degradation."""

import os

import pytest

from repro.bench.suite import get_benchmark
from repro.engine import (
    DeadlineExceeded,
    Job,
    Manifest,
    ResultCache,
    parallel_map,
    run_batch,
)
from repro.engine.scheduler import _deadline
from repro.minimize.exact import minimize_spp


def _jobs(*names, method="exact"):
    jobs = []
    for name in names:
        func = get_benchmark(name)
        for o, fo in enumerate(func.outputs):
            if fo.on_set:
                jobs.append(Job(fo, method=method, label=f"{name}[{o}]"))
    return jobs


class TestDeadlineContext:
    def test_no_deadline_is_noop(self):
        with _deadline(None):
            pass
        with _deadline(0):
            pass

    def test_deadline_fires(self):
        with pytest.raises(DeadlineExceeded):
            with _deadline(0.02):
                while True:
                    pass

    def test_deadline_cleared_after_exit(self):
        import time

        with _deadline(0.05):
            pass
        time.sleep(0.08)  # would raise if the timer leaked

    def test_noop_off_main_thread(self):
        # SIGALRM handlers can only be installed from the main thread;
        # elsewhere the context must degrade to a no-op, not blow up.
        # Off-main-thread deadline *enforcement* is the cooperative
        # budget's job now — see TestBudgetIntegration below.
        import threading
        import time

        failures = []

        def body():
            try:
                with _deadline(0.01):
                    time.sleep(0.05)  # would exceed the deadline
            except BaseException as exc:  # noqa: BLE001 — recording, not hiding
                failures.append(exc)

        thread = threading.Thread(target=body)
        thread.start()
        thread.join()
        assert failures == []


class TestInlineBatch:
    def test_matches_sequential_minimize(self):
        jobs = _jobs("adr2", "adr3")
        assert len(jobs) >= 4
        result = run_batch(jobs, workers=0)
        assert result.ok
        for outcome in result:
            assert outcome.rung == "exact"
            assert not outcome.degraded
            assert outcome.literals == minimize_spp(outcome.job.func).num_literals

    def test_outcomes_preserve_job_order(self):
        jobs = _jobs("adr2")
        result = run_batch(jobs, workers=0)
        assert [o.job.label for o in result] == [j.label for j in jobs]

    def test_duplicate_jobs_computed_once(self):
        job = _jobs("adr2")[0]
        twin = Job(job.func, method=job.method, label="twin")
        cache = ResultCache()
        result = run_batch([job, twin], workers=0, cache=cache)
        assert result.ok
        sources = [o.source for o in result]
        assert sources == ["computed", "cache"]
        assert result.outcomes[0].literals == result.outcomes[1].literals

    def test_followers_are_handed_the_record_directly(self):
        # The follower gets the resolved record, not a cache.get():
        # distinct keys miss once each on the initial lookup and nothing
        # else touches the stats (a re-fetch used to add phantom hits).
        job = _jobs("adr2")[0]
        twin = Job(job.func, method=job.method, label="twin")
        cache = ResultCache()
        result = run_batch([job, twin], workers=0, cache=cache)
        assert result.ok
        assert [o.source for o in result] == ["computed", "cache"]
        assert cache.stats.hits == 0
        assert cache.stats.misses == 2

    def test_follower_survives_eviction_of_the_record(self):
        # With an LRU too small to retain the record, a follower that
        # re-fetched through the cache would spuriously fail; handing
        # the record over directly is immune to the eviction race.
        jobs = _jobs("adr2")[:2]
        twin = Job(jobs[0].func, method=jobs[0].method, label="twin")
        cache = ResultCache(max_entries=1)
        result = run_batch([*jobs, twin], workers=0, cache=cache)
        assert result.ok
        assert result.outcomes[2].source == "cache"
        assert result.outcomes[2].literals == result.outcomes[0].literals


class TestPooledBatch:
    def test_pooled_matches_sequential(self):
        jobs = _jobs("adr2", "adr3")
        result = run_batch(jobs, workers=4)
        assert result.ok
        for outcome in result:
            assert outcome.literals == minimize_spp(outcome.job.func).num_literals

    def test_progress_callback_sees_every_job(self):
        seen = []
        result = run_batch(_jobs("adr2"), workers=2, progress=lambda o: seen.append(o))
        assert len(seen) == len(result)


class TestCacheIntegration:
    def test_second_batch_hits_cache_per_job(self, tmp_path):
        jobs = _jobs("adr2", "adr3")
        cache = ResultCache(cache_dir=tmp_path)
        first = run_batch(jobs, workers=0, cache=cache)
        assert first.ok and all(o.source == "computed" for o in first)

        fresh = ResultCache(cache_dir=tmp_path)  # cold memory, warm disk
        second = run_batch(jobs, workers=0, cache=fresh)
        assert all(o.source == "cache" for o in second)
        assert fresh.stats.total_hits >= len(jobs)  # >= 1 hit per job
        assert [o.literals for o in second] == [o.literals for o in first]


# An alarm that fires while the interpreter is inside a frame whose
# exceptions are discarded (e.g. hypothesis's gc callback) is reported
# as "unraisable"; the deadline still lands via the timer's re-fire
# interval, so the stray report is expected noise here.
@pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")
class TestDegradation:
    # A random 9-input ROM output: its exact rung takes ~1 s, some fifty
    # times the 20 ms deadline (life[0]'s can finish inside it).
    @staticmethod
    def _slow_job() -> Job:
        return Job(get_benchmark("max512")[0], method="exact", label="max512[0]")

    def test_tiny_deadline_walks_the_ladder(self):
        result = run_batch([self._slow_job()], workers=0, timeout=0.02)
        outcome = result.outcomes[0]
        assert outcome.ok
        assert outcome.degraded
        assert outcome.rung != "exact"
        assert outcome.record["optimal"] is False
        rungs_tried = [a["rung"] for a in outcome.attempts]
        assert rungs_tried[0] == "exact"
        assert all(a["status"] == "timeout" for a in outcome.attempts)

    def test_degraded_record_lands_in_manifest(self, tmp_path):
        manifest = Manifest(tmp_path)
        result = run_batch(
            [self._slow_job()], workers=0, timeout=0.02, manifest=manifest
        )
        stored = manifest.load(result.outcomes[0].job.content_hash)
        assert stored is not None
        assert stored["rung"] == result.outcomes[0].rung
        assert stored["degraded"] is True
        assert stored["attempts"]

    def test_generous_deadline_stays_on_top_rung(self):
        result = run_batch(_jobs("adr2"), workers=0, timeout=60.0)
        assert all(o.rung == "exact" for o in result)


class TestResume:
    def test_resume_skips_completed_hashes(self, tmp_path):
        jobs = _jobs("adr2")
        manifest = Manifest(tmp_path)
        first = run_batch(jobs, workers=0, manifest=manifest)
        assert first.ok
        assert manifest.completed_keys() == {j.content_hash for j in jobs}

        resumed = run_batch(jobs, workers=0, manifest=manifest, resume=True)
        assert all(o.source == "manifest" for o in resumed)
        assert [o.literals for o in resumed] == [o.literals for o in first]

    def test_partial_manifest_computes_only_the_rest(self, tmp_path):
        jobs = _jobs("adr2")
        manifest = Manifest(tmp_path)
        run_batch(jobs[:1], workers=0, manifest=manifest)

        resumed = run_batch(jobs, workers=0, manifest=manifest, resume=True)
        assert resumed.outcomes[0].source == "manifest"
        assert all(o.source == "computed" for o in resumed.outcomes[1:])

    def test_without_resume_manifest_is_write_only(self, tmp_path):
        jobs = _jobs("adr2")[:1]
        manifest = Manifest(tmp_path)
        run_batch(jobs, workers=0, manifest=manifest)
        again = run_batch(jobs, workers=0, manifest=manifest, resume=False)
        assert again.outcomes[0].source == "computed"


class TestBudgetIntegration:
    def test_deadline_enforced_off_main_thread(self):
        # The regression the budget work exists for: _deadline/SIGALRM
        # is a silent no-op off the main thread, so an inline run from
        # a worker thread (a `repro serve` request handler) used to run
        # a worst-case exact job to completion.  With a cooperative
        # 200ms budget it must come back in well under a second with a
        # structured cancelled/budget outcome.
        import threading
        import time

        from repro.boolfunc.function import BoolFunc
        from repro.budget import Budget

        # On 9 inputs the exact rung runs for seconds: its generation
        # hits the rung's cap, then millions of candidates are built and
        # pruned, and each of those phases must heed the budget too.
        hard = BoolFunc.from_lambda(9, lambda p: bin(p).count("1") % 3 != 0)
        job = Job(hard, method="exact", label="hard")
        results = []

        def body():
            budget = Budget(seconds=0.2)
            results.append(run_batch([job], workers=0, budget=budget))

        thread = threading.Thread(target=body)
        t0 = time.monotonic()
        thread.start()
        thread.join(timeout=10.0)
        elapsed = time.monotonic() - t0
        assert not thread.is_alive()
        assert elapsed < 1.0
        outcome = results[0].outcomes[0]
        assert not outcome.ok
        assert outcome.source == "cancelled"
        assert outcome.attempts  # the rung attempt or termination is logged

    def test_expired_budget_cancels_every_job_inline(self):
        from repro.budget import Budget

        budget = Budget(seconds=0.0001)
        while not budget.expired():
            pass
        result = run_batch(_jobs("adr2", "adr3"), workers=0, budget=budget)
        assert not result.ok
        assert all(o.source == "cancelled" for o in result)
        assert result.counts()["cancelled"] == len(result)

    def test_cancel_token_terminates_with_reason(self):
        from repro.budget import Budget

        budget = Budget()
        budget.cancel("client hung up")
        result = run_batch(_jobs("adr2"), workers=0, budget=budget)
        assert all(o.source == "cancelled" for o in result)
        messages = [a.get("message", "") for o in result for a in o.attempts]
        assert any("client hung up" in m for m in messages)

    def test_pooled_budget_terminates_coarsely(self):
        from repro.budget import Budget

        budget = Budget()
        budget.cancel("drain")
        result = run_batch(_jobs("adr2", "adr3"), workers=2, budget=budget)
        assert all(o.source == "cancelled" for o in result)

    def test_generous_budget_changes_nothing(self):
        from repro.budget import Budget

        with_budget = run_batch(
            _jobs("adr2"), workers=0, budget=Budget(seconds=120)
        )
        without = run_batch(_jobs("adr2"), workers=0)
        assert with_budget.ok and without.ok
        assert [o.literals for o in with_budget] == [o.literals for o in without]


class TestRungGate:
    def test_gated_rung_is_skipped_and_recorded(self):
        gated = {"exact"}
        result = run_batch(
            _jobs("adr2")[:1],
            workers=0,
            rung_gate=lambda job, rung: rung.name not in gated,
        )
        outcome = result.outcomes[0]
        assert outcome.ok
        assert outcome.rung == "bounded-2"
        assert outcome.degraded
        assert outcome.attempts[0] == {
            "rung": "exact", "status": "skipped", "seconds": 0.0,
        }

    def test_last_rung_is_never_gated(self):
        result = run_batch(
            _jobs("adr2")[:1], workers=0, rung_gate=lambda job, rung: False
        )
        outcome = result.outcomes[0]
        assert outcome.ok
        assert outcome.rung == "sp"
        skipped = [a for a in outcome.attempts if a["status"] == "skipped"]
        assert len(skipped) == 3  # exact, bounded-2, heuristic-k0

    def test_gate_applies_in_pooled_mode(self):
        result = run_batch(
            _jobs("adr2"),
            workers=2,
            rung_gate=lambda job, rung: rung.method != "exact",
        )
        assert result.ok
        assert all(o.rung != "exact" for o in result)


class TestParallelMap:
    def test_inline_and_pooled_agree(self):
        items = [(2,), (3,), (4,)]
        inline = parallel_map(_square, items, workers=1, star=True)
        pooled = parallel_map(_square, items, workers=2, star=True)
        assert inline == pooled == [4, 9, 16]

    def test_preserves_order(self):
        items = [(i,) for i in range(8)]
        assert parallel_map(_square, items, workers=4, star=True) == [
            i * i for i in range(8)
        ]

    def test_survives_worker_crash(self):
        # Item 3 kills its pool worker (BrokenProcessPool); the lost
        # items must be recomputed inline and come back in order.
        items = [(i,) for i in range(6)]
        result = parallel_map(_crash_in_worker, items, workers=2, star=True)
        assert result == [i * i for i in range(6)]


def _square(x):
    return x * x


_PARENT_PID = os.getpid()


def _crash_in_worker(x):
    # Deterministic poison item: dies hard, but only inside a pool
    # worker — the inline retry in the parent process must succeed.
    if x == 3 and os.getpid() != _PARENT_PID:
        os._exit(1)
    return x * x
