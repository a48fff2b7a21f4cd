"""Worker-pool scheduler: fan jobs across cores, enforce deadlines.

Batches run on a :class:`concurrent.futures.ProcessPoolExecutor` (one
task = one rung of one job).  Deadlines are enforced **cooperatively**:
every attempt runs under a :class:`repro.budget.Budget` whose deadline
is checked from inside the minimization inner loops, so a runaway rung
stops promptly on any thread and any platform.  ``SIGALRM`` remains as
a main-thread *backstop* (it can interrupt code paths that predate the
budget instrumentation), no longer the sole mechanism — in particular,
``workers=0`` inline runs now honour deadlines even when invoked from a
non-main thread, e.g. a ``repro serve`` request handler.

Degradation walk: a rung that times out, exhausts its memory budget, or
errors is abandoned and the next rung of
:func:`repro.engine.ladder.ladder_for` is submitted.  The **final**
rung (two-level SP) runs without a deadline so every job terminates
with a verified answer; the record notes ``degraded: true`` and the
rung that produced it.

Crash supervision: a worker that dies hard (kernel OOM killer,
segfault, an injected ``os._exit``) breaks the whole pool, and the pool
cannot say *which* task killed it.  The scheduler rebuilds the pool and
puts every in-flight job on **probation**: each runs alone, so a repeat
crash is unambiguously that job's.  Solo crashes are retried at the
same rung with capped exponential backoff and counted; a job that
reaches ``crash_cap`` solo crashes is **quarantined** — terminal
outcome ``quarantined``, full attempt log — so one poison job can
never wedge the batch in an endless rebuild loop, and its innocent
peers no longer lose ladder rungs to crashes they didn't cause.

``workers=0`` runs everything inline in the calling process (same
ladder, same deadline mechanism) — handy for tests and debugging.
Instrumented fault sites (``scheduler.rung_start``, ``batch.job_done``)
let :mod:`repro.faults` provoke all of the above on demand.
"""

from __future__ import annotations

import contextlib
import os
import signal
import time
from collections import deque
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from repro import faults
from repro.budget import Budget
from repro.engine.batch import (
    SOURCE_CACHE,
    SOURCE_CANCELLED,
    SOURCE_COMPUTED,
    SOURCE_FAILED,
    SOURCE_MANIFEST,
    SOURCE_QUARANTINED,
    BatchResult,
    JobOutcome,
    Manifest,
)
from repro.engine.cache import ResultCache
from repro.engine.job import Job
from repro.engine.ladder import Rung, execute_rung, ladder_for
from repro.errors import BudgetExceeded, Cancelled, IntegrityError

__all__ = ["DeadlineExceeded", "run_batch", "parallel_map"]

# Ceiling for the capped exponential crash-retry backoff (seconds).
_BACKOFF_CAP = 2.0


class DeadlineExceeded(Exception):
    """A rung ran past its per-attempt deadline."""


@contextlib.contextmanager
def _deadline(seconds: float | None):
    """Raise :class:`DeadlineExceeded` in this thread after ``seconds``.

    Uses ``SIGALRM``/``setitimer``, which only works in a process's
    main thread on POSIX; anywhere else the context degrades to a
    no-op.  Since the cooperative :class:`repro.budget.Budget` checks
    landed in the minimization inner loops, this is only a *backstop*
    for uninstrumented code paths — off-main-thread and non-POSIX runs
    are fully covered by the budget.

    The timer re-fires on an interval rather than one-shot: if the
    signal happens to be delivered while the interpreter is inside a
    frame whose exceptions are discarded as "unraisable" (a GC
    callback, a ``__del__``), the raise is silently dropped — the next
    firing delivers it in a normal frame.
    """
    if not seconds or seconds <= 0:
        yield
        return

    def _on_alarm(signum, frame):
        raise DeadlineExceeded(f"deadline of {seconds}s exceeded")

    try:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
    except (ValueError, AttributeError):  # non-main thread / no SIGALRM
        yield
        return
    signal.setitimer(signal.ITIMER_REAL, seconds, min(0.05, seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@contextlib.contextmanager
def _memory_cap(megabytes: int | None):
    """Best-effort address-space cap: allocations past it raise
    :class:`MemoryError`, which the ladder turns into a degradation."""
    if not megabytes or megabytes <= 0:
        yield
        return
    try:
        import resource
    except ImportError:
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    wanted = megabytes * 1024 * 1024
    try:
        resource.setrlimit(resource.RLIMIT_AS, (wanted, hard))
    except (ValueError, OSError):
        yield
        return
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def _run_rung_task(
    job: Job,
    rung: Rung,
    timeout: float | None,
    memory_mb: int | None,
    budget: Budget | None = None,
    capture: Callable[..., None] | None = None,
) -> dict[str, Any]:
    """One pool task: run a single rung under its budgets.

    Always returns a status dict (never raises) so pool plumbing only
    breaks when the worker process itself dies.

    The attempt always runs under a cooperative budget: the per-attempt
    ``timeout``/``memory_mb`` allowance, tightened by (and sharing the
    cancel token of) the caller's ``budget`` when one is given — so an
    overall request deadline or a cancellation wins over the attempt's
    own allowance.  ``SIGALRM`` stays armed as a main-thread backstop.
    """
    t0 = time.perf_counter()
    if budget is not None:
        attempt = budget.child(seconds=timeout, memory_mb=memory_mb)
    elif timeout is not None or memory_mb:
        attempt = Budget(seconds=timeout, memory_mb=memory_mb)
    else:
        attempt = None
    try:
        with _deadline(timeout), _memory_cap(memory_mb):
            # Inside the deadline on purpose: an injected "slow" fault
            # must be interruptible, exactly like a slow real rung.
            faults.maybe_fire(
                "scheduler.rung_start", label=job.label, rung=rung.name,
                budget=attempt,
            )
            record = execute_rung(job, rung, budget=attempt, capture=capture)
        return {"status": "ok", "record": record}
    except Cancelled as exc:
        return {
            "status": "cancelled",
            "seconds": time.perf_counter() - t0,
            "message": str(exc),
        }
    except BudgetExceeded as exc:
        status = "memory" if exc.reason == "memory" else "timeout"
        return {"status": status, "seconds": time.perf_counter() - t0}
    except DeadlineExceeded:
        return {"status": "timeout", "seconds": time.perf_counter() - t0}
    except MemoryError:
        return {"status": "memory", "seconds": time.perf_counter() - t0}
    except IntegrityError as exc:
        # A rung produced a wrong cover (or a mismatched certificate):
        # record the structured counterexamples — serving layers surface
        # them in error bodies — and degrade to the next rung like any
        # other per-attempt failure.
        return {
            "status": "integrity",
            "seconds": time.perf_counter() - t0,
            "message": str(exc),
            "detail": exc.detail,
        }
    except Exception as exc:  # noqa: BLE001 — report, degrade, continue
        return {
            "status": "error",
            "seconds": time.perf_counter() - t0,
            "message": f"{type(exc).__name__}: {exc}",
        }


def _make_executor(workers: int) -> ProcessPoolExecutor:
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        ctx = multiprocessing.get_context("fork")
    else:  # pragma: no cover — non-POSIX fallback
        ctx = multiprocessing.get_context()
    return ProcessPoolExecutor(max_workers=workers, mp_context=ctx)


class _Pending:
    """Mutable ladder position of one scheduled job."""

    __slots__ = ("index", "job", "ladder", "rung_idx", "attempts", "crashes")

    def __init__(self, index: int, job: Job, ladder: Sequence[Rung]):
        self.index = index
        self.job = job
        self.ladder = ladder
        self.rung_idx = 0
        self.attempts: list[dict[str, Any]] = []
        self.crashes = 0  # attributed (solo) worker crashes


def run_batch(
    jobs: Sequence[Job],
    *,
    workers: int | None = None,
    timeout: float | None = None,
    memory_mb: int | None = None,
    cache: ResultCache | None = None,
    manifest: Manifest | None = None,
    resume: bool = False,
    progress: Callable[[JobOutcome], None] | None = None,
    crash_cap: int = 3,
    retry_backoff: float = 0.1,
    budget: Budget | None = None,
    rung_gate: Callable[[Job, Rung], bool] | None = None,
    delta_index=None,
) -> BatchResult:
    """Run ``jobs`` through cache, manifest, pool and ladder.

    Resolution order per job: manifest record (when ``resume``), then
    result cache, then computation.  ``timeout`` is the per-attempt
    deadline; each ladder rung gets the full budget and the final rung
    runs unbounded so the batch always terminates.  Duplicate jobs
    (equal content hashes) are computed once and their followers are
    handed the resolved record directly.

    ``crash_cap`` bounds attributed worker crashes per job before it is
    quarantined (terminal outcome ``quarantined``); ``retry_backoff``
    seeds the capped exponential sleep (``backoff · 2^k``, ≤ 2 s)
    before a crash retry.

    ``budget`` is an *overall* cooperative budget for the whole call
    (deadline / memory ceiling / cancel token).  Unlike the per-attempt
    ``timeout`` — which degrades a rung and keeps the job alive — an
    exhausted or cancelled overall budget **terminates**: remaining
    jobs resolve with source ``"cancelled"`` instead of walking further
    down the ladder, bounding the caller's latency (the contract
    ``repro serve`` relies on).  In the inline path the budget's cancel
    token is honoured from inside the minimizer loops, so cancellation
    from another thread lands within a few thousand ticks; the pooled
    path checks it between task completions.

    ``rung_gate(job, rung)`` may veto individual rungs (return False to
    skip — used by the serving layer's per-rung circuit breaker and
    rung caps).  The final rung is never gated when every earlier rung
    was skipped, so a gated job still terminates with an answer.

    ``workers=None`` uses ``os.cpu_count()``; ``workers=0`` runs inline.

    ``delta_index`` is an optional :class:`repro.delta.DeltaIndex`: a
    cache-missed exact job is first offered to the near-duplicate warm
    path (:func:`repro.delta.warm_record_for` — patch the base context,
    re-solve covering, full verify + certificate) before being
    scheduled cold; contexts are captured from completed exact rungs on
    the inline path (workers=0), where the minimizer result shares the
    caller's address space.
    """
    t_start = time.perf_counter()
    if workers is None:
        workers = os.cpu_count() or 1
    if cache is None:
        cache = ResultCache(max_entries=2 * len(jobs) + 16)

    outcomes: dict[int, JobOutcome] = {}
    to_run: list[_Pending] = []
    followers: dict[str, list[int]] = {}
    scheduled: dict[str, _Pending] = {}

    def finish(index: int, job: Job, record, source, attempts=()) -> None:
        outcome = JobOutcome(job, record, source, list(attempts))
        outcomes[index] = outcome
        if progress is not None:
            progress(outcome)
        # Fires after the outcome (and any manifest record) is durable:
        # a "crash" here simulates dying between jobs, the resume case.
        faults.maybe_fire("batch.job_done", label=job.display_label)

    def resolve(
        pending: _Pending,
        record,
        *,
        failed_message: str | None = None,
        source: str = SOURCE_FAILED,
    ) -> None:
        """Terminal state for a scheduled job (+ its duplicate followers)."""
        key = pending.job.content_hash
        if record is not None:
            record["degraded"] = pending.rung_idx > 0
            if record["degraded"]:
                record["optimal"] = False
            record["attempts"] = pending.attempts
            cache.put(key, record)
            if manifest is not None:
                manifest.store(key, record)
            finish(pending.index, pending.job, record, SOURCE_COMPUTED, pending.attempts)
        else:
            attempts = list(pending.attempts)
            if failed_message:
                attempts.append({"status": "failed", "message": failed_message})
            finish(pending.index, pending.job, None, source, attempts)
        for follower_index in followers.get(key, ()):
            # Hand followers the resolved record directly — re-fetching
            # through the cache inflated hit/miss stats and raced LRU
            # eviction into a spurious failure.
            follower_source = SOURCE_CACHE if record is not None else source
            finish(follower_index, jobs[follower_index], record, follower_source)

    for index, job in enumerate(jobs):
        key = job.content_hash
        if resume and manifest is not None:
            record = manifest.load(key)
            if record is not None:
                finish(index, job, record, SOURCE_MANIFEST)
                continue
        record = cache.get(key, func=job.func)
        if record is not None:
            if manifest is not None:
                manifest.store(key, record)
            finish(index, job, record, SOURCE_CACHE)
            continue
        if key in scheduled:
            followers.setdefault(key, []).append(index)
            continue
        warm = None
        if delta_index is not None and job.method == "exact":
            from repro.delta import warm_record_for  # lazy: optional subsystem

            try:
                warm = warm_record_for(job, delta_index, budget=budget)
            except BudgetExceeded:
                pass  # let the normal path resolve the job as cancelled
        pending = _Pending(index, job, ladder_for(job))
        if warm is not None:
            resolve(pending, warm)
            continue
        scheduled[key] = pending
        to_run.append(pending)

    def rung_timeout(pending: _Pending) -> float | None:
        # The last rung is the never-fails floor: no deadline.
        if pending.rung_idx >= len(pending.ladder) - 1:
            return None
        return timeout

    def quarantine(pending: _Pending) -> None:
        resolve(
            pending,
            None,
            failed_message=(
                f"quarantined after {pending.crashes} worker crashes "
                f"(cap {crash_cap})"
            ),
            source=SOURCE_QUARANTINED,
        )

    if workers == 0:
        capture = delta_index.observe if delta_index is not None else None
        for pending in to_run:
            if pending.index in outcomes:
                continue  # resolved early by a budget termination
            _run_inline(
                pending, timeout, memory_mb, resolve,
                budget=budget, rung_gate=rung_gate, capture=capture,
            )
            if budget is not None and (budget.cancelled or budget.expired()):
                _cancel_remaining(to_run, outcomes, resolve, budget)
                break
    else:
        _run_pooled(
            to_run, workers, timeout, memory_mb, rung_timeout, resolve,
            quarantine, crash_cap, retry_backoff,
            budget=budget, rung_gate=rung_gate,
        )

    result = BatchResult(
        outcomes=[outcomes[i] for i in sorted(outcomes)],
        seconds=time.perf_counter() - t_start,
        cache_stats=cache.stats,
    )
    if manifest is not None:
        manifest.write_summary(result)
    return result


def _apply_gate(
    pending: _Pending, rung_gate: Callable[[Job, Rung], bool] | None
) -> None:
    """Skip gated rungs, recording each skip; never gates the last rung."""
    if rung_gate is None:
        return
    while pending.rung_idx < len(pending.ladder) - 1:
        rung = pending.ladder[pending.rung_idx]
        if rung_gate(pending.job, rung):
            return
        pending.attempts.append(
            {"rung": rung.name, "status": "skipped", "seconds": 0.0}
        )
        pending.rung_idx += 1


def _cancel_remaining(
    to_run: Iterable[_Pending],
    outcomes: dict[int, JobOutcome],
    resolve: Callable[..., None],
    budget: Budget,
) -> None:
    """Resolve every not-yet-finished job as cancelled/budget-terminated."""
    if budget.cancelled:
        message = f"cancelled: {budget.token.reason}"
    else:
        message = "overall budget exhausted"
    for pending in to_run:
        if pending.index not in outcomes:
            resolve(
                pending, None,
                failed_message=message, source=SOURCE_CANCELLED,
            )


def _run_inline(
    pending: _Pending,
    timeout: float | None,
    memory_mb: int | None,
    resolve: Callable[..., None],
    budget: Budget | None = None,
    rung_gate: Callable[[Job, Rung], bool] | None = None,
    capture: Callable[..., None] | None = None,
) -> None:
    while True:
        # Overall budget gone → terminate instead of degrading further.
        # Both exhaustion and cancellation end the job with source
        # "cancelled"; the attempt log explains which one it was.
        if budget is not None:
            try:
                budget.check()
            except BudgetExceeded as exc:
                resolve(
                    pending, None,
                    failed_message=str(exc), source=SOURCE_CANCELLED,
                )
                return
        _apply_gate(pending, rung_gate)
        last = pending.rung_idx >= len(pending.ladder) - 1
        rung = pending.ladder[pending.rung_idx]
        result = _run_rung_task(
            pending.job, rung, None if last else timeout, memory_mb,
            budget=budget, capture=capture,
        )
        if result["status"] == "ok":
            resolve(pending, result["record"])
            return
        pending.attempts.append(
            {
                "rung": rung.name,
                "status": result["status"],
                "seconds": round(result.get("seconds", 0.0), 3),
                **({"message": result["message"]} if "message" in result else {}),
                **({"detail": result["detail"]} if "detail" in result else {}),
            }
        )
        if result["status"] == "cancelled" or (
            budget is not None and (budget.cancelled or budget.expired())
        ):
            # The *overall* budget is gone (a mere per-attempt timeout
            # would leave it intact) — stop walking the ladder.
            resolve(
                pending, None,
                failed_message=result.get("message"),
                source=SOURCE_CANCELLED,
            )
            return
        if last:
            resolve(pending, None, failed_message=result.get("message"))
            return
        pending.rung_idx += 1


def _run_pooled(
    to_run: list[_Pending],
    workers: int,
    timeout: float | None,
    memory_mb: int | None,
    rung_timeout: Callable[[_Pending], float | None],
    resolve: Callable[..., None],
    quarantine: Callable[[_Pending], None],
    crash_cap: int,
    retry_backoff: float,
    budget: Budget | None = None,
    rung_gate: Callable[[Job, Rung], bool] | None = None,
) -> None:
    """Pooled execution with crash supervision.

    Three job pools: ``ready`` (submit whenever the pool is healthy),
    ``probation`` (crash suspects, run strictly one at a time for
    unambiguous attribution), and ``in_flight``.  A broken pool sends
    every in-flight job to probation; a job that crashes **solo** gets
    a counted crash, a backoff sleep, and a same-rung retry until
    ``crash_cap``, then quarantine.  Termination: every probation run
    either resolves a job, advances a rung (≤ ladder length per job),
    or counts a crash (≤ ``crash_cap`` per job), and ambiguous breaks
    only arise from normal mode, which probation always drains.

    The overall ``budget`` is checked between submissions and waits —
    *coarse* cancellation, because the cancel token cannot cross the
    process boundary (workers rebuild per-attempt budgets from the
    picklable ``timeout``/``memory_mb`` args).  On expiry or cancel,
    in-flight futures are abandoned and every unresolved job resolves
    as ``cancelled``.  Latency is bounded by one rung attempt, which
    ``timeout`` itself bounds except on the final rung.
    """
    executor = _make_executor(workers)
    in_flight: dict[Future, _Pending] = {}
    ready: deque[_Pending] = deque(to_run)
    probation: deque[_Pending] = deque()

    def budget_blown() -> bool:
        return budget is not None and (budget.cancelled or budget.expired())

    def terminate() -> None:
        remaining = [*in_flight.values(), *ready, *probation]
        for future in in_flight:
            future.cancel()
        in_flight.clear()
        ready.clear()
        probation.clear()
        if budget.cancelled:
            message = f"cancelled: {budget.token.reason}"
        else:
            message = "overall budget exhausted"
        for pending in remaining:
            resolve(pending, None, failed_message=message, source=SOURCE_CANCELLED)

    def handle_break(first_victim: _Pending) -> None:
        """Pool died: rebuild it, triage every lost job."""
        nonlocal executor
        victims = [first_victim, *in_flight.values()]
        in_flight.clear()
        executor.shutdown(wait=False, cancel_futures=True)
        executor = _make_executor(workers)
        solo = len(victims) == 1
        for victim in victims:
            rung = victim.ladder[victim.rung_idx]
            victim.attempts.append(
                {
                    "rung": rung.name,
                    "status": "crash",
                    "seconds": 0.0,
                    "message": "worker process died"
                    + ("" if solo else " (peer suspect)"),
                }
            )
            if solo:
                # Alone in the pool — the crash is unambiguously its.
                victim.crashes += 1
            if victim.crashes >= crash_cap:
                quarantine(victim)
            else:
                probation.append(victim)

    def try_submit(pending: _Pending) -> bool:
        _apply_gate(pending, rung_gate)
        rung = pending.ladder[pending.rung_idx]
        try:
            future = executor.submit(
                _run_rung_task, pending.job, rung, rung_timeout(pending), memory_mb
            )
        except BrokenProcessPool:
            # The pool broke under our feet (race with an unobserved
            # worker death): triage this job with whatever was in flight.
            handle_break(pending)
            return False
        in_flight[future] = pending
        return True

    def advance(pending: _Pending, status: str, seconds: float, message=None,
                detail=None) -> None:
        rung = pending.ladder[pending.rung_idx]
        attempt = {"rung": rung.name, "status": status, "seconds": round(seconds, 3)}
        if message:
            attempt["message"] = message
        if detail:
            attempt["detail"] = detail
        pending.attempts.append(attempt)
        if pending.rung_idx >= len(pending.ladder) - 1:
            resolve(pending, None, failed_message=message)
        else:
            pending.rung_idx += 1
            ready.append(pending)

    try:
        while ready or probation or in_flight:
            if budget_blown():
                terminate()
                return
            if not in_flight and probation:
                suspect = probation.popleft()
                if retry_backoff > 0 and suspect.crashes > 0:
                    time.sleep(
                        min(
                            retry_backoff * (2 ** (suspect.crashes - 1)),
                            _BACKOFF_CAP,
                        )
                    )
                try_submit(suspect)
            elif not probation:
                while ready:
                    if not try_submit(ready.popleft()):
                        break
            if not in_flight:
                continue  # submission failed or probation re-queued
            # With an overall budget, poll so a deadline or cancel is
            # noticed even while every worker is deep in a rung.
            poll = 0.05 if budget is not None else None
            done, _ = wait(in_flight, timeout=poll, return_when=FIRST_COMPLETED)
            for future in done:
                pending = in_flight.pop(future)
                try:
                    result = future.result()
                except BrokenProcessPool:
                    # The worker died hard (OOM kill, segfault, injected
                    # os._exit).  Everything in flight was lost with it.
                    handle_break(pending)
                    break  # in_flight was cleared — re-enter the loop
                except Exception as exc:  # pickling/plumbing failure
                    advance(pending, "error", 0.0, f"{type(exc).__name__}: {exc}")
                    continue
                if result["status"] == "ok":
                    resolve(pending, result["record"])
                else:
                    advance(
                        pending,
                        result["status"],
                        result.get("seconds", 0.0),
                        result.get("message"),
                        result.get("detail"),
                    )
    finally:
        executor.shutdown(wait=False, cancel_futures=True)


def parallel_map(
    fn: Callable[..., Any],
    items: Iterable[Any],
    *,
    workers: int | None = None,
    star: bool = False,
) -> list[Any]:
    """Order-preserving parallel map over a process pool.

    The escape hatch for batch work that is not a single minimization
    job (e.g. Table 2's naive-vs-Algorithm-2 timing races): ``fn`` must
    be picklable (a module-level callable).  ``workers in (0, 1)`` or a
    single item runs inline.  ``star=True`` unpacks each item as
    positional arguments.

    A broken pool (a worker killed hard) does not propagate a raw
    :class:`BrokenProcessPool` out of a ``tables`` run: the items lost
    with the pool are recomputed inline in the calling process, where a
    genuine error in ``fn`` surfaces as itself.
    """
    items = list(items)
    if workers is None:
        workers = os.cpu_count() or 1
    if workers <= 1 or len(items) <= 1:
        return [fn(*item) if star else fn(item) for item in items]
    executor = _make_executor(min(workers, len(items)))
    results: list[Any] = [None] * len(items)
    lost: list[int] = []
    try:
        futures: dict[Future, int] = {}
        broken = False
        for i, item in enumerate(items):
            if broken:
                lost.append(i)
                continue
            try:
                future = executor.submit(fn, *item) if star else executor.submit(fn, item)
            except BrokenProcessPool:
                broken = True
                lost.append(i)
                continue
            futures[future] = i
        for future, i in futures.items():
            try:
                results[i] = future.result()
            except BrokenProcessPool:
                lost.append(i)
    finally:
        executor.shutdown(wait=False, cancel_futures=True)
    for i in sorted(lost):
        item = items[i]
        results[i] = fn(*item) if star else fn(item)
    return results
