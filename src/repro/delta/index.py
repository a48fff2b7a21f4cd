"""The engine-level near-duplicate index.

:class:`DeltaIndex` is an LRU of recent exact-job contexts keyed by the
job content hash, and files each context under its function's
``(n, care set)``.  EPPP generation is a pure function of the care set
(``on ∪ dc``), so the contexts filed under a job's care set are exactly
the ones whose candidate list the job can reuse: a lookup reads those
and no others, and an edit that changes the care set is a plain miss.

:func:`warm_record_for` is the scheduler's entry point: look up a base
context, run the warm solve, and seal it with
:func:`repro.engine.ladder.seal_record`, the one record builder every
cold rung uses, so a warm result is indistinguishable from a cold one
downstream and reuse can never change answers, only speed.  A seal
that raises quarantines the context and falls back cold.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any

from repro.boolfunc.function import BoolFunc
from repro.budget import Budget
from repro.delta.context import MinimizationContext, build_context
from repro.delta.reminimize import warm_minimize
from repro.engine.ladder import _DEFAULT_EXACT_CAP, seal_record
from repro.errors import BudgetExceeded, IntegrityError

__all__ = ["DeltaIndex", "warm_record_for"]

_CareKey = tuple[int, frozenset[int]]


def _care_key(func: BoolFunc) -> _CareKey:
    return func.n, func.care_set


class DeltaIndex:
    """LRU of minimization contexts, looked up by care set.

    Thread-safe: the serving tier shares one index across request
    threads.  Counters (``lookups``, ``warm_hits``, ``fallbacks`` with
    a per-reason breakdown, ``inserts``, ``evictions``,
    ``capture_errors``) feed ``/stats`` and ``/metrics``.  A fallback
    is a lookup that found contexts under the job's care set but could
    use none of them; a lookup with nothing filed under its care set
    counts in neither ``warm_hits`` nor ``fallbacks``.
    """

    def __init__(self, capacity: int = 64) -> None:
        self.capacity = capacity
        self._entries: OrderedDict[str, MinimizationContext] = OrderedDict()
        # Job hashes per care set, in insertion order (a dict, not a set,
        # so equal edits break ties the same way in every process).
        self._by_care: dict[_CareKey, dict[str, None]] = {}
        self._lock = threading.Lock()
        self.lookups = 0
        self.warm_hits = 0
        self.inserts = 0
        self.evictions = 0
        self.capture_errors = 0
        self.fallback_reasons: dict[str, int] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    # Capture / insertion
    # ------------------------------------------------------------------

    def observe(self, job: Any, rung: Any, result: Any, record: dict) -> None:
        """Scheduler capture hook: index a completed exact rung.

        Only top-rung (non-degraded) exact results are worth keeping —
        a degraded or truncated solve has no reusable candidate stream.
        A failed capture never fails the rung: it is counted in
        ``capture_errors`` and the result is simply not indexed.
        """
        if getattr(rung, "method", None) != "exact" or record.get("truncated"):
            return
        try:
            ctx = build_context(job.func, result, covering=job.covering)
            if ctx is not None:
                self.put(job.content_hash, ctx)
        except Exception:  # noqa: BLE001 — capture must never fail a rung
            with self._lock:
                self.capture_errors += 1

    def put(self, key: str, ctx: MinimizationContext) -> None:
        with self._lock:
            if key in self._entries:
                # An equal job hash means an equal function: same care set.
                self._entries.move_to_end(key)
                self._entries[key] = ctx
                return
            self._entries[key] = ctx
            self._by_care.setdefault(_care_key(ctx.func), {})[key] = None
            self.inserts += 1
            while len(self._entries) > self.capacity:
                self._unlink(*self._entries.popitem(last=False))
                self.evictions += 1

    def _unlink(self, key: str, ctx: MinimizationContext) -> None:
        care = _care_key(ctx.func)
        keys = self._by_care[care]
        del keys[key]
        if not keys:
            del self._by_care[care]

    def drop(self, ctx: MinimizationContext) -> None:
        """Quarantine a context (e.g. after an integrity failure)."""
        with self._lock:
            for key in [k for k, c in self._entries.items() if c is ctx]:
                self._unlink(key, self._entries.pop(key))

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def lookup(self, job: Any) -> MinimizationContext | None:
        """The best warm-eligible base context for ``job``, or None.

        Reads only the contexts filed under the job's ``(n, care set)``:
        each is gated on covering-mode equality, then on a candidate
        count within the job's effective cap, and the one with the
        smallest on-set edit wins.  When contexts were filed under the
        key but every one was gated out, the first gate that refused
        one is counted as the fallback reason.
        """
        if job.method != "exact":
            return None
        func = job.func
        with self._lock:
            self.lookups += 1
            keys = self._by_care.get(_care_key(func))
            if keys is None:
                return None
            cap = job.max_pseudoproducts if job.max_pseudoproducts is not None else _DEFAULT_EXACT_CAP
            best: str | None = None
            best_edit = -1
            near_miss: str | None = None
            for key in keys:
                ctx = self._entries[key]
                if ctx.covering != job.covering:
                    near_miss = near_miss or "covering-mode-changed"
                elif ctx.num_candidates > cap:
                    near_miss = near_miss or "cap-exceeded"
                else:
                    edit = ctx.edit_size(func)
                    if best is None or edit < best_edit:
                        best, best_edit = key, edit
            if best is None:
                self.fallback_reasons[near_miss] = self.fallback_reasons.get(near_miss, 0) + 1
                return None
            self._entries.move_to_end(best)
            return self._entries[best]

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------

    def count_warm_hit(self) -> None:
        with self._lock:
            self.warm_hits += 1

    def count_fallback(self, reason: str) -> None:
        with self._lock:
            self.fallback_reasons[reason] = self.fallback_reasons.get(reason, 0) + 1

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "lookups": self.lookups,
                "warm_hits": self.warm_hits,
                "fallbacks": sum(self.fallback_reasons.values()),
                "inserts": self.inserts,
                "evictions": self.evictions,
                "capture_errors": self.capture_errors,
                "fallback_reasons": dict(self.fallback_reasons),
            }


def warm_record_for(
    job: Any, index: DeltaIndex, *, budget: Budget | None = None
) -> dict | None:
    """Try the warm path for ``job``; a full engine record or None.

    The warm form is sealed by :func:`repro.engine.ladder.seal_record`,
    the builder every cold rung uses (verify against the edited
    function, fresh certificate), so reuse can never change answers,
    only speed.  A seal that raises quarantines the base context and
    returns None (the cold path recomputes); so does any unexpected
    error: the warm path is an optimization and must never take a
    request down.
    """
    base = index.lookup(job)
    if base is None:
        return None
    func = job.func
    t0 = time.perf_counter()
    try:
        result = warm_minimize(base, func, budget=budget)
    except BudgetExceeded:
        raise
    except Exception:  # noqa: BLE001 — warm path must never break serving
        index.count_fallback("warm-error")
        return None
    extras: dict[str, Any] = {
        "comparisons": base.generation_comparisons,
        "delta": {
            "warm": True,
            "edit": base.edit_size(func),
            "base_cost": base.cost,
        },
    }
    if result.covering_stats is not None:
        extras["covering"] = result.covering_stats
    try:
        record = seal_record(
            job,
            "exact",
            result.form,
            candidates=result.num_candidates,
            optimal=result.covering_optimal,
            truncated=False,
            extras=extras,
            started=t0,
        )
    except IntegrityError:
        index.drop(base)
        index.count_fallback("verify-failed")
        return None
    index.count_warm_hit()
    return record
