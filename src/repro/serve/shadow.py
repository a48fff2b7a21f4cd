"""Sampled shadow verification: re-check served responses off the hot path.

The serving tier answers from three sources — freshly computed records
(verified synchronously by the seal), disk-cache hits (sampled by
verify-on-read auditing), and in-memory LRU hits (not re-checked at
all).  Shadow verification closes the remaining gap without touching
request latency: a sample of successful responses is re-audited on a
background thread *after* the response went out, by the same
:func:`~repro.integrity.check_certificate` the cache audit runs (cover,
cost and certificate hashes alike).

Budget awareness: each submission carries the request's remaining
end-to-end deadline as its allowance (a generous default when the
client sent none).  A request whose deadline is already spent is not
shadow-verified at all, and queued work whose allowance lapses before
the worker reaches it is dropped — under pressure the shadow lane sheds
itself, never the serving lane.  The queue is bounded for the same
reason: a full queue drops the sample instead of blocking the request
thread.

A mismatch cannot un-send the wrong response.  What it can do:

* purge the record from both cache tiers
  (:meth:`repro.engine.cache.ResultCache.quarantine_key`), so the next
  request recomputes;
* feed the per-rung quarantine counter on the
  :class:`~repro.serve.breaker.RungBreaker` — a rung that keeps
  producing wrong covers trips its breaker exactly like one that keeps
  timing out.

Counters are exposed through :meth:`snapshot` for ``/stats`` and
``/metrics``.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import TYPE_CHECKING, Any

from repro.errors import IntegrityError
from repro.integrity import check_certificate

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.cache import ResultCache
    from repro.serve.breaker import RungBreaker

__all__ = ["ShadowVerifier"]

# Allowance granted to a sampled response whose client sent no deadline:
# long enough to verify any record the engine can produce, short enough
# that a backlog drains by shedding.
_DEFAULT_ALLOWANCE = 5.0


class ShadowVerifier:
    """Background re-verification of a sample of served results."""

    def __init__(
        self,
        *,
        rate: int = 8,
        queue_size: int = 64,
        breaker: "RungBreaker | None" = None,
        cache: "ResultCache | None" = None,
    ) -> None:
        if rate < 0:
            raise ValueError("rate must be non-negative")
        if queue_size < 1:
            raise ValueError("queue_size must be positive")
        self.rate = rate
        self.breaker = breaker
        self.cache = cache
        self._queue: queue.Queue = queue.Queue(maxsize=queue_size)
        self._tick = 0
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._stopping = False
        self._busy = False
        self.scheduled = 0      # responses picked by the sampler
        self.verified = 0       # records re-verified clean
        self.mismatches = 0     # records that failed re-verification
        self.dropped = 0        # samples lost to a full queue
        self.expired = 0        # samples shed because their allowance lapsed
        self.verify_seconds = 0.0

    # -- submission (request thread) -----------------------------------

    def consider(self, outcomes, remaining: float | None) -> bool:
        """Maybe enqueue this response's records for shadow verification.

        Called on the request thread after the response body is built;
        sampling is a round-robin over successful responses (every
        ``rate``-th; 0 disables).  ``remaining`` is the request's
        remaining end-to-end deadline — non-positive remaining skips the
        sample entirely.  Returns True iff the response was enqueued.
        """
        if self.rate == 0:
            return False
        with self._lock:
            self._tick += 1
            sampled = self._tick % self.rate == 0
        if not sampled:
            return False
        if remaining is not None and remaining <= 0:
            with self._lock:
                self.expired += 1
            return False
        items = [
            (outcome.job.func, outcome.job.content_hash, outcome.record)
            for outcome in outcomes
            if outcome.record is not None
        ]
        if not items:
            return False
        allowance = _DEFAULT_ALLOWANCE if remaining is None else remaining
        with self._lock:
            self.scheduled += 1
        try:
            self._queue.put_nowait((time.monotonic(), allowance, items))
        except queue.Full:
            with self._lock:
                self.scheduled -= 1
                self.dropped += 1
            return False
        self._ensure_thread()
        return True

    # -- worker (shadow thread) ----------------------------------------

    def _ensure_thread(self) -> None:
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return
            if self._stopping:
                return
            self._thread = threading.Thread(
                target=self._run, name="repro-shadow-verify", daemon=True
            )
            self._thread.start()

    def _run(self) -> None:
        while True:
            try:
                submitted, allowance, items = self._queue.get(timeout=0.5)
            except queue.Empty:
                if self._stopping:
                    return
                continue
            self._busy = True
            try:
                if time.monotonic() - submitted > allowance:
                    with self._lock:
                        self.expired += 1
                    continue
                self._verify_items(items)
            finally:
                self._busy = False

    def _verify_items(self, items) -> None:
        t0 = time.perf_counter()
        for func, key, record in items:
            try:
                check_certificate(record, func)
                ok = True
            except IntegrityError:
                ok = False
            with self._lock:
                if ok:
                    self.verified += 1
                else:
                    self.mismatches += 1
            if not ok:
                if self.cache is not None:
                    self.cache.quarantine_key(key)
                if self.breaker is not None:
                    self.breaker.record_mismatch(
                        record.get("rung", ""), len(func.on_set)
                    )
        with self._lock:
            self.verify_seconds += time.perf_counter() - t0

    # -- lifecycle / introspection -------------------------------------

    def flush(self, timeout: float = 5.0) -> bool:
        """Wait until queued work is fully processed (tests); True on success."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self._queue.empty() and not self._busy:
                return True
            time.sleep(0.01)
        return False

    def stop(self, timeout: float = 2.0) -> None:
        self._stopping = True
        with self._lock:
            thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=timeout)

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "rate": self.rate,
                "scheduled": self.scheduled,
                "verified": self.verified,
                "mismatches": self.mismatches,
                "dropped": self.dropped,
                "expired": self.expired,
                "verify_seconds": round(self.verify_seconds, 6),
            }
