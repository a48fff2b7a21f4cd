"""The engine-level near-duplicate index.

:class:`DeltaIndex` is an LRU of recent exact-job contexts keyed by the
job content hash, with a **banded minhash** signature over the on-set
as the locality-sensitive shortlist: two functions whose on-sets agree
on most points collide in at least one band with high probability, so
a lookup inspects a handful of entries instead of all of them.  (The
last few MRU entries are additionally always scanned — service traffic
edits *recent* functions, and the deterministic scan makes warm-path
behaviour reproducible in tests and benches.)

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
from collections.abc import Iterable
from typing import Any

from repro.budget import Budget
from repro.delta.context import MinimizationContext, build_context
from repro.delta.reminimize import (
    DEFAULT_MAX_EDIT,
    DeltaIneligible,
    eligibility,
    warm_minimize,
)
from repro.engine.ladder import _DEFAULT_EXACT_CAP, seal_record
from repro.errors import BudgetExceeded, IntegrityError

__all__ = ["DeltaIndex", "onset_signature", "warm_record_for"]

_SIG_BANDS = 4
_SIG_ROWS = 2  # minhashes per band
_MASK64 = (1 << 64) - 1
# Fixed odd multipliers (splitmix64-style constants): the signature must
# be deterministic across processes and sessions.
_MIXERS = tuple(
    ((0x9E3779B97F4A7C15 * (k + 1)) | 1) & _MASK64 for k in range(_SIG_BANDS * _SIG_ROWS)
)
_MRU_SCAN = 8


def _minhash(points: Iterable[int], mixer: int) -> int:
    best = _MASK64
    for p in points:
        h = ((p + 1) * mixer) & _MASK64
        h ^= h >> 31
        if h < best:
            best = h
    return best


def onset_signature(on_set: Iterable[int]) -> tuple[int, ...]:
    """Banded minhash signature: ``_SIG_BANDS`` band keys, each combining
    ``_SIG_ROWS`` independent minhashes of the on-set."""
    pts = list(on_set)
    sig = []
    for band in range(_SIG_BANDS):
        acc = band
        for row in range(_SIG_ROWS):
            acc = (acc * 0x100000001B3 + _minhash(pts, _MIXERS[band * _SIG_ROWS + row])) & _MASK64
        sig.append(acc)
    return tuple(sig)


class _Entry:
    __slots__ = ("key", "ctx", "signature")

    def __init__(self, key: str, ctx: MinimizationContext, signature: tuple[int, ...]):
        self.key = key
        self.ctx = ctx
        self.signature = signature


class DeltaIndex:
    """LRU of minimization contexts with near-duplicate lookup.

    Thread-safe: the serving tier shares one index across request
    threads.  Counters (``lookups``, ``warm_hits``, ``fallbacks`` with
    a per-reason breakdown, ``inserts``, ``evictions``,
    ``capture_errors``) feed ``/stats`` and ``/metrics``.
    """

    def __init__(self, capacity: int = 64, *, max_edit: int = DEFAULT_MAX_EDIT) -> None:
        self.capacity = capacity
        self.max_edit = max_edit
        self._entries: OrderedDict[str, _Entry] = OrderedDict()
        self._bands: dict[tuple[int, int], set[str]] = {}
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
                self._entries.move_to_end(key)
                self._entries[key].ctx = ctx
                return
            entry = _Entry(key, ctx, onset_signature(ctx.func.on_set))
            self._entries[key] = entry
            for band, value in enumerate(entry.signature):
                self._bands.setdefault((band, value), set()).add(key)
            self.inserts += 1
            while len(self._entries) > self.capacity:
                _, victim = self._entries.popitem(last=False)
                self._unlink(victim)
                self.evictions += 1

    def _unlink(self, entry: _Entry) -> None:
        for band, value in enumerate(entry.signature):
            keys = self._bands.get((band, value))
            if keys is not None:
                keys.discard(entry.key)
                if not keys:
                    del self._bands[(band, value)]

    def drop(self, ctx: MinimizationContext) -> None:
        """Quarantine a context (e.g. after an integrity failure)."""
        with self._lock:
            for key in [k for k, e in self._entries.items() if e.ctx is ctx]:
                self._unlink(self._entries.pop(key))

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def lookup(self, job: Any) -> MinimizationContext | None:
        """The best warm-eligible base context for ``job``, or None.

        Shortlist = banded-signature collisions ∪ the last ``_MRU_SCAN``
        MRU entries; each entry of the job's dimension is gated on
        covering-mode equality, candidate count within the job's
        effective cap, then :func:`~repro.delta.reminimize.eligibility`
        (exact care-set equality, edit distance ≤ ``max_edit``).  A near
        miss (shortlisted but gated out) counts as a fallback with its
        reason.
        """
        if job.method != "exact":
            return None
        func = job.func
        with self._lock:
            self.lookups += 1
            if not self._entries:
                return None
            shortlist: OrderedDict[str, _Entry] = OrderedDict()
            for band, value in enumerate(onset_signature(func.on_set)):
                for key in self._bands.get((band, value), ()):
                    shortlist[key] = self._entries[key]
            for key in list(reversed(self._entries))[:_MRU_SCAN]:
                shortlist.setdefault(key, self._entries[key])
            cap = job.max_pseudoproducts if job.max_pseudoproducts is not None else _DEFAULT_EXACT_CAP
            best: _Entry | None = None
            best_edit = -1
            near_miss: str | None = None
            for entry in shortlist.values():
                ctx = entry.ctx
                if ctx.func.n != func.n:
                    continue
                if ctx.covering != job.covering:
                    reason = "covering-mode-changed"
                elif ctx.num_candidates > cap:
                    reason = "cap-exceeded"
                else:
                    reason = eligibility(ctx, func, max_edit=self.max_edit)
                if reason is not None:
                    near_miss = near_miss or reason
                    continue
                edit = ctx.edit_size(func)
                if best is None or edit < best_edit:
                    best = entry
                    best_edit = edit
            if best is None:
                if near_miss is not None:
                    self.fallback_reasons[near_miss] = self.fallback_reasons.get(near_miss, 0) + 1
                return None
            self._entries.move_to_end(best.key)
            return best.ctx

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
        result = warm_minimize(base, func, max_edit=index.max_edit, budget=budget)
    except DeltaIneligible as exc:
        index.count_fallback(exc.reason)
        return None
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
