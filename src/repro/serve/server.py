"""The ``repro serve`` HTTP/JSON service: minimization as a long-running
process.

A threaded front-end over the batch engine, built on the HTTP skeleton
it shares with the cluster coordinator (:mod:`repro.serve.tier`:
listener, error table, drain lifecycle).  Each request thread runs the
engine **inline** (``workers=0``) under a per-request
:class:`repro.budget.Budget` — safe off the main thread because
deadlines are cooperative, not ``SIGALRM``-based.  The pieces:

* :class:`~repro.serve.admission.AdmissionQueue` bounds concurrency and
  sheds overload (429 + ``Retry-After``);
* :class:`~repro.serve.breaker.RungBreaker` skips ladder rungs that
  keep timing out on similar-sized jobs (via the scheduler's
  ``rung_gate``);
* :class:`~repro.serve.watchdog.MemoryWatchdog` shrinks the result
  cache and empties the PLA parse memo at the soft RSS ceiling and
  flips admission to shed-all at the hard one;
* SIGTERM triggers a graceful drain: stop admitting, let in-flight
  requests finish within the grace window, cancel stragglers through
  their tokens, then shut the listener down.  The manifest journal is
  fsynced per completion, so everything finished before the drain is
  durable.

Endpoints::

    POST /minimize   {"pla": ...} | {"benchmark": ...}, options
    GET  /healthz    process liveness (200 while the process runs)
    GET  /readyz     admission state (503 when draining/shedding)
    GET  /stats      counters: admission, breaker, watchdog, cache,
                     latency percentiles (p50/p95/p99)
    GET  /metrics    the same counters as Prometheus text exposition
"""

from __future__ import annotations

import math
import sys
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any

from repro import faults
from repro.bench.suite import BENCHMARKS, get_benchmark
from repro.boolfunc.function import MultiBoolFunc
from repro.boolfunc.pla import parse_pla
from repro.budget import Budget
from repro.delta import DeltaIndex
from repro.engine.batch import SOURCE_CANCELLED, Manifest
from repro.engine.cache import ResultCache
from repro.engine.job import Job
from repro.engine.ladder import Rung
from repro.engine.scheduler import run_batch
from repro.errors import IntegrityError, UsageError
from repro.integrity import (
    VERIFIED_FULL,
    VERIFIED_NONE,
    VERIFIED_SAMPLED,
    check_certificate,
)
from repro.serve.admission import AdmissionQueue
from repro.serve.breaker import RungBreaker
from repro.serve.deadline import DeadlineExpired
from repro.serve.metrics import LatencyHistogram, Metric, render_metrics
from repro.serve.shadow import ShadowVerifier
from repro.serve.tier import HttpTier, json_payload
from repro.serve.watchdog import MemoryWatchdog

__all__ = [
    "ServeConfig",
    "MinimizeService",
    "jobs_from_payload",
    "parse_memo_metrics",
    "parse_memo_stats",
    "VERIFIED_HEADER",
]

# Every /minimize response carries the weakest verification level among
# the records it returns: "full" (producer-verified or synchronously
# re-verified), "sampled" (audited on a cache read), or "none".
VERIFIED_HEADER = "X-Repro-Verified"

# Ladder rank of each method: a request's ``max_rung`` gates every rung
# ranked above it (the scheduler still never gates the final rung).
_RUNG_RANK = {"sp": 0, "heuristic": 1, "bounded": 2, "exact": 3}

# The parse memo below keeps at most _PARSE_MEMO_ENTRIES parsed PLA
# texts per process, each an ASCII text of at most _PARSE_MEMO_MAX_TEXT
# bytes whose parsed function holds at most _PARSE_MEMO_MAX_HELD bytes:
# a short text can describe a large function (".i 16" and one all-dash
# cube is 33 bytes and 65,536 points, about 6 MiB parsed).  Any other
# text is parsed on every request.
_PARSE_MEMO_ENTRIES = 64
_PARSE_MEMO_MAX_TEXT = 64 * 1024
_PARSE_MEMO_MAX_HELD = 256 * 1024

# Ceiling on a client-requested ``budget_seconds``.
_MAX_BUDGET = 300.0
# Seconds an open rung breaker stays open before it half-opens.
_BREAKER_COOLDOWN = 30.0


def _option(
    payload: dict[str, Any], key: str, cast, default=None, expect="a number"
):
    """``payload[key]`` converted by ``cast``; ``default`` when absent or
    null.  Every typed request option is read through here, so a
    mistyped one is a :class:`UsageError` (400 ``usage``) on both tiers
    instead of an exception that drops the client's connection."""
    value = payload.get(key)
    if value is None:
        return default
    try:
        result = cast(value)
    except (TypeError, ValueError, OverflowError, KeyError):
        raise UsageError(f"{key} must be {expect}, not {value!r}") from None
    # JSON admits NaN and Infinity; neither is a usable budget, timeout
    # or memory ceiling (a NaN budget would never expire).
    if isinstance(result, float) and not math.isfinite(result):
        raise UsageError(f"{key} must be a finite number, not {value!r}")
    return result


def _held_bytes(func: MultiBoolFunc) -> int:
    """What keeping ``func`` costs: each output's two point-set tables
    plus one integer per point, sized for ``n`` bits.  A point count
    alone would miss wide inputs, where every point is a large integer."""
    point = sys.getsizeof((1 << func.n) - 1)
    return sum(
        sys.getsizeof(f.on_set)
        + sys.getsizeof(f.dc_set)
        + point * (len(f.on_set) + len(f.dc_set))
        for f in func
    )


class _ParseMemo:
    """The functions of request PLA texts this process has parsed, an
    LRU keyed on the text, not the body, so an exact repeat and a
    near-duplicate over a seen base both hit.  Parsed functions are
    frozen, so every caller can share one.  A
    :class:`~repro.boolfunc.pla.PlaError` is never kept; every lookup
    counts as one hit or one miss (a parse)."""

    def __init__(self) -> None:
        self._funcs: OrderedDict[str, MultiBoolFunc] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def parse(self, text: str) -> MultiBoolFunc:
        # isascii() makes the length a byte count (and is O(1)).
        keep = len(text) <= _PARSE_MEMO_MAX_TEXT and text.isascii()
        with self._lock:
            func = self._funcs.get(text) if keep else None
            if func is not None:
                self._funcs.move_to_end(text)
                self.hits += 1
                return func
            self.misses += 1
        func = parse_pla(text, name="request")
        if keep and _held_bytes(func) <= _PARSE_MEMO_MAX_HELD:
            with self._lock:
                self._funcs[text] = func
                while len(self._funcs) > _PARSE_MEMO_ENTRIES:
                    self._funcs.popitem(last=False)
        return func

    def clear(self) -> None:
        with self._lock:
            self._funcs.clear()

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._funcs),
            }


_PARSE_MEMO = _ParseMemo()


def parse_memo_stats() -> dict[str, int]:
    """The process's parse-memo counters (the ``/stats`` ``parse`` block)."""
    return _PARSE_MEMO.stats()


def parse_memo_metrics(prefix: str) -> list[Metric]:
    """The same counters as the ``<prefix>_parse_*`` metric families."""
    parse = parse_memo_stats()
    events = Metric(
        f"{prefix}_parse_events_total",
        "PLA parse-memo lookups by outcome.",
        "counter",
    )
    events.add(parse["hits"], kind="hits").add(parse["misses"], kind="misses")
    entries = Metric(
        f"{prefix}_parse_entries", "Parsed PLA texts in the parse memo."
    )
    return [events, entries.add(parse["entries"])]


def jobs_from_payload(payload: dict[str, Any], *, routing: bool = False) -> list[Job]:
    """Expand a ``POST /minimize`` body into engine jobs.

    Shared with the cluster coordinator, which needs the same expansion
    to compute the content-hash routing key without owning an engine.
    A PLA text this process has parsed before is not parsed again (see
    :func:`parse_memo_stats`).  Raises :class:`UsageError` on malformed
    payloads.

    The near-duplicate request form puts the function spec under
    ``"base"`` and the edit under ``"delta"``::

        {"base": {"benchmark": "life6", "output": 0},
         "delta": {"toggles": [5, 9]}, ...options}

    Toggles move points on→dc, dc→on, or off→on (see
    :func:`repro.delta.toggle_points`); care-set-preserving edits are
    the warm-path sweet spot.  With ``routing=True`` the *base* jobs
    are returned instead of the toggled ones — the coordinator hashes
    those, so near-duplicates land on the worker holding the base
    context.
    """
    if not isinstance(payload, dict):
        raise UsageError("request body must be a JSON object")
    delta = payload.get("delta")
    if delta is not None:
        base = payload.get("base")
        if not isinstance(base, dict):
            raise UsageError('"delta" requires a "base" object with the function spec')
        if not isinstance(delta, dict):
            raise UsageError('"delta" must be a JSON object')
        merged = {k: v for k, v in payload.items() if k not in ("base", "delta")}
        merged.update(base)
        jobs = jobs_from_payload(merged)
        if routing:
            return jobs
        toggles = delta.get("toggles", [])
        if not isinstance(toggles, list) or not all(
            isinstance(t, int) and not isinstance(t, bool) for t in toggles
        ):
            raise UsageError('"delta.toggles" must be a list of integer points')
        from repro.delta.context import toggle_points

        out = []
        for job in jobs:
            try:
                func = toggle_points(job.func, toggles)
            except ValueError as exc:
                raise UsageError(str(exc)) from None
            out.append(replace(job, func=func, label=f"{job.label}+d{len(toggles)}"))
        return out
    if "pla" in payload:
        func = _PARSE_MEMO.parse(str(payload["pla"]))
        name = str(payload.get("label", "request"))
    elif "benchmark" in payload:
        bench = str(payload["benchmark"])
        if bench not in BENCHMARKS:
            raise UsageError(f"unknown benchmark {bench!r}")
        func = get_benchmark(bench)
        name = bench
    else:
        raise UsageError('request needs "pla" text or a "benchmark" name')
    outputs = range(func.num_outputs)
    o = _option(payload, "output", int, expect="an integer")
    if o is not None:
        if not 0 <= o < func.num_outputs:
            raise UsageError(f"output {o} out of range")
        outputs = [o]
    k = _option(payload, "k", int, 0, expect="an integer")
    bound = _option(payload, "bound", int, 2, expect="an integer")
    jobs = []
    for o in outputs:
        fo = func[o]
        if not fo.on_set:
            continue
        try:
            job = Job(
                fo,
                method=payload.get("method", "exact"),
                k=k,
                bound=bound,
                covering=str(payload.get("covering", "greedy")),
                backend=str(payload.get("backend", "index")),
                max_pseudoproducts=payload.get("max_pseudoproducts"),
                label=f"{name}[{o}]",
            )
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        jobs.append(job)
    if not jobs:
        raise UsageError("every requested output is constant 0")
    return jobs


@dataclass
class ServeConfig:
    """Knobs of one service instance.

    ``spp-minimize serve`` exposes most of them as flags; ``wait_timeout``,
    ``retry_after``, ``watchdog_interval`` and ``breaker_threshold`` keep
    their defaults there and are set only programmatically.  The ceiling
    on client budgets (``_MAX_BUDGET``, 300 s) and the breaker cooldown
    (``_BREAKER_COOLDOWN``, 30 s) are module constants.
    """

    host: str = "127.0.0.1"
    port: int = 8351
    threads: int = 4             # concurrent minimizations
    queue_capacity: int = 8      # waiting room beyond the active slots
    wait_timeout: float = 30.0   # max wait for a slot before shedding
    retry_after: float = 1.0     # advisory Retry-After on shed responses
    default_timeout: float = 5.0     # per-attempt rung deadline
    default_budget: float = 30.0     # overall budget when none requested
    memory_soft_mb: float | None = None
    memory_hard_mb: float | None = None
    watchdog_interval: float = 0.5
    breaker_threshold: int = 3
    cache_entries: int = 1024
    cache_dir: str | None = None
    max_disk_entries: int | None = None  # shared disk tier cap (cluster)
    audit_rate: int = 16     # verify-on-read: audit every Nth disk load
    shadow_rate: int = 8     # shadow-verify every Nth response (0 = off)
    delta_entries: int = 64  # near-duplicate context LRU (0 = warm path off)
    manifest_dir: str | None = None
    drain_grace: float = 10.0
    parent_pid: int | None = None  # drain when this process disappears


class MinimizeService(HttpTier):
    """Engine + admission + breaker + watchdog behind an HTTP listener."""

    server_version = "repro-serve"

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        cfg = self.config
        super().__init__(
            (
                "requests",
                "completed",
                "failed",
                "budget_exceeded",
                "cancelled",
                "deadline_shed",
                "integrity",
            ),
            retry_after=cfg.retry_after,
        )
        self.cache = ResultCache(
            max_entries=cfg.cache_entries,
            cache_dir=cfg.cache_dir,
            max_disk_entries=cfg.max_disk_entries,
            audit_rate=cfg.audit_rate,
        )
        self.manifest = (
            Manifest(cfg.manifest_dir) if cfg.manifest_dir is not None else None
        )
        self.admission = AdmissionQueue(
            cfg.threads,
            cfg.queue_capacity,
            wait_timeout=cfg.wait_timeout,
            retry_after=cfg.retry_after,
        )
        self.breaker = RungBreaker(
            threshold=cfg.breaker_threshold, cooldown=_BREAKER_COOLDOWN
        )
        self.shadow = ShadowVerifier(
            rate=cfg.shadow_rate, breaker=self.breaker, cache=self.cache
        )
        self.delta = DeltaIndex(cfg.delta_entries) if cfg.delta_entries > 0 else None
        self.watchdog = MemoryWatchdog(
            soft_mb=cfg.memory_soft_mb,
            hard_mb=cfg.memory_hard_mb,
            interval=cfg.watchdog_interval,
            on_soft=self._on_memory_soft,
            on_hard=self._on_memory_hard,
            on_recover=self._on_memory_recover,
        )
        self._inflight: dict[int, Budget] = {}
        self._inflight_lock = threading.Lock()
        self._next_request_id = 0
        self.latency = LatencyHistogram()

    # -- watchdog callbacks --------------------------------------------

    def _on_memory_soft(self, rss: float) -> None:
        self.cache.shrink()
        _PARSE_MEMO.clear()

    def _on_memory_hard(self, rss: float) -> None:
        self.admission.shed_all = True

    def _on_memory_recover(self, rss: float) -> None:
        if not self._draining:
            self.admission.shed_all = False

    # -- request parsing -----------------------------------------------

    def _budget_from(
        self, payload: dict[str, Any], cap: float | None = None
    ) -> Budget:
        cfg = self.config
        seconds = _option(payload, "budget_seconds", float, cfg.default_budget)
        seconds = min(max(seconds, 0.001), _MAX_BUDGET)
        if cap is not None:
            # The propagated end-to-end deadline wins over whatever the
            # payload asked for: a result the client will never read is
            # pure waste.
            seconds = min(seconds, max(cap, 0.001))
        return Budget(
            seconds=seconds, memory_mb=_option(payload, "memory_mb", float)
        )

    def _shed_deadline(self, remaining: float) -> None:
        """Refuse a request whose end-to-end deadline already passed."""
        self._bump("deadline_shed")
        raise DeadlineExpired(
            f"end-to-end deadline expired {-remaining:.3f}s ago; "
            "shedding instead of computing",
            retry_after=self.config.retry_after,
        )

    def _gate_from(self, payload: dict[str, Any]):
        cap = _option(
            payload, "max_rung", _RUNG_RANK.__getitem__,
            expect=f"one of {', '.join(_RUNG_RANK)}",
        )

        def gate(job: Job, rung: Rung) -> bool:
            if cap is not None and _RUNG_RANK.get(rung.method, 0) > cap:
                return False
            return self.breaker.allow(rung.name, len(job.func.on_set))

        return gate

    # -- the one real endpoint -----------------------------------------

    def handle_minimize(
        self, body: bytes, deadline: float | None = None
    ) -> tuple[int, dict[str, str], dict]:
        """Run one minimization request; returns (HTTP status, headers, body).

        Raises :class:`~repro.errors.ParseError` /
        :class:`~repro.errors.UsageError` (400) on a malformed body,
        :class:`~repro.errors.Overloaded` when shed — the HTTP layer maps
        it to 429 + ``Retry-After`` — and :class:`DeadlineExpired` (503 +
        ``Retry-After``) when the propagated end-to-end ``deadline``
        (seconds remaining, from ``X-Repro-Deadline``) has already
        passed: such a request is shed *before* it costs a worker slot
        any compute, and a live deadline caps the request budget so the
        computation cannot outlive the client's interest.

        The returned headers carry ``X-Repro-Verified``: the weakest
        certificate level among the returned records (``full`` /
        ``sampled`` / ``none``).  With ``"verify": true`` in the payload
        every record is synchronously audited before responding — a
        failure becomes a 500 (:class:`~repro.errors.IntegrityError`)
        whose body carries a wrong cover's counterexamples.
        Independently of all that, a sample of successful responses is
        handed to the shadow verifier after the response is built (off
        the hot path, bounded by the request's remaining deadline).
        """
        received = time.monotonic()
        payload = json_payload(body)
        self._bump("requests")
        if deadline is not None and deadline <= 0:
            self._shed_deadline(deadline)
        jobs = jobs_from_payload(payload)
        timeout = _option(payload, "timeout", float, self.config.default_timeout)
        started = time.monotonic()
        with self.admission.admit():
            remaining = None
            if deadline is not None:
                # The wait for an admission slot ran on the clock too.
                remaining = deadline - (time.monotonic() - received)
                if remaining <= 0:
                    self._shed_deadline(remaining)
            # Chaos/loadtest hook: a ``slow`` rule here injects a
            # deterministic service time into every admitted request —
            # including cache hits, which never reach a ladder rung.
            faults.maybe_fire("serve.request")
            budget = self._budget_from(payload, cap=remaining)
            request_id = self._register(budget)
            try:
                result = run_batch(
                    jobs,
                    workers=0,
                    timeout=timeout,
                    cache=self.cache,
                    manifest=self.manifest,
                    budget=budget,
                    rung_gate=self._gate_from(payload),
                    delta_index=self.delta,
                )
            finally:
                self._unregister(request_id)
        self.latency.observe(time.monotonic() - started)
        self._feed_breaker(result)
        synced = bool(payload.get("verify"))
        if synced:
            self._sync_verify(result)
        status, answer = self._respond(
            result, budget, bool(payload.get("include_form"))
        )
        headers = {VERIFIED_HEADER: self._verified_level(result, synced=synced)}
        if status == 200:
            remaining = None
            if deadline is not None:
                remaining = deadline - (time.monotonic() - received)
            self.shadow.consider(result, remaining)
        return status, headers, answer

    def _sync_verify(self, result) -> None:
        """Client-requested (``"verify": true``) pre-response verification.

        Audits every returned record with
        :func:`~repro.integrity.check_certificate` — the same check the
        cache audit and the shadow lane run — before the response goes
        out: the paranoid mode that turns a wrong cached or computed
        answer into a structured 500 (with counterexamples when the
        cover is wrong) instead of a response.  A failing record is
        purged from the cache and fed to the per-rung quarantine
        counter, same as a shadow-verification mismatch.
        """
        for outcome in result:
            record = outcome.record
            if record is None:
                continue
            try:
                check_certificate(record, outcome.job.func)
            except IntegrityError as exc:
                self._record_integrity_failure(outcome, record)
                exc.detail["label"] = outcome.job.display_label
                raise

    def _record_integrity_failure(self, outcome, record) -> None:
        self._bump("integrity")
        self.cache.quarantine_key(outcome.job.content_hash)
        self.breaker.record_mismatch(
            record.get("rung", ""), len(outcome.job.func.on_set)
        )

    @staticmethod
    def _verified_level(result, synced: bool = False) -> str:
        """The weakest certificate level among the returned records."""
        if synced:
            return VERIFIED_FULL
        order = {VERIFIED_NONE: 0, VERIFIED_SAMPLED: 1, VERIFIED_FULL: 2}
        levels = []
        for outcome in result:
            record = outcome.record
            if record is None:
                continue
            cert = record.get("integrity") or {}
            levels.append(cert.get("verified", VERIFIED_NONE))
        if not levels:
            return VERIFIED_NONE
        return min(levels, key=lambda level: order.get(level, 0))

    def _feed_breaker(self, result) -> None:
        for outcome in result:
            size = len(outcome.job.func.on_set)
            for attempt in outcome.attempts:
                if attempt.get("status") == "timeout":
                    self.breaker.record_timeout(attempt["rung"], size)
            if outcome.ok and outcome.source == "computed":
                self.breaker.record_success(outcome.rung, size)

    def _respond(
        self, result, budget: Budget, include_form: bool
    ) -> tuple[int, dict]:
        results = []
        for outcome in result:
            entry: dict[str, Any] = {
                "label": outcome.job.display_label,
                "source": outcome.source,
            }
            if outcome.ok:
                record = outcome.record
                entry.update(
                    rung=record["rung"],
                    literals=record["literals"],
                    pseudoproducts=record["pseudoproducts"],
                    optimal=record.get("optimal", False),
                    degraded=record.get("degraded", False),
                    seconds=record.get("seconds"),
                )
                if include_form:
                    entry["form"] = record.get("form")
            else:
                entry["attempts"] = outcome.attempts
            results.append(entry)
        body: dict[str, Any] = {
            "ok": result.ok,
            "results": results,
            "seconds": result.seconds,
        }
        terminated = result.by_source(SOURCE_CANCELLED)
        if terminated:
            if budget.cancelled:
                code, status = "cancelled", 503
                message = f"request cancelled: {budget.token.reason}"
                key = "cancelled"
            else:
                code, status = "budget-exceeded", 408
                message = "request budget exhausted before completion"
                key = "budget_exceeded"
            body["error"] = {"code": code, "message": message}
            self._bump(key)
            return status, body
        self._bump("completed" if result.ok else "failed")
        return 200, body

    # -- in-flight registry --------------------------------------------

    def _register(self, budget: Budget) -> int:
        with self._inflight_lock:
            self._next_request_id += 1
            request_id = self._next_request_id
            self._inflight[request_id] = budget
        return request_id

    def _unregister(self, request_id: int) -> None:
        with self._inflight_lock:
            self._inflight.pop(request_id, None)

    @property
    def inflight(self) -> int:
        with self._inflight_lock:
            return len(self._inflight)

    # -- introspection -------------------------------------------------

    def stats(self) -> dict[str, Any]:
        return {
            "uptime_seconds": self.uptime,
            "inflight": self.inflight,
            "draining": self._draining,
            "counters": self.counter_snapshot(),
            "latency": self.latency.snapshot(),
            "admission": self.admission.snapshot(),
            "breaker": {
                "open": self.breaker.snapshot(),
                "skips": self.breaker.skips,
                "quarantined": dict(self.breaker.quarantined),
            },
            "shadow": self.shadow.snapshot(),
            "watchdog": self.watchdog.snapshot(),
            "cache": {
                "entries": len(self.cache),
                "counters": self.cache.stats.as_dict(),
                "stats": self.cache.stats.summary(),
            },
            "delta": self.delta.stats() if self.delta is not None else {},
            "parse": parse_memo_stats(),
        }

    def metrics_text(self) -> str:
        """The service's counters as Prometheus text exposition."""
        counters = self.counter_snapshot()
        admission = self.admission.snapshot()
        cache = self.cache.stats.as_dict()
        metrics = [
            Metric(
                "repro_uptime_seconds", "Seconds since service start."
            ).add(self.uptime),
            Metric(
                "repro_inflight_requests", "Requests currently executing."
            ).add(self.inflight),
        ]
        requests = Metric(
            "repro_requests_total",
            "Terminal request outcomes by status.",
            "counter",
        )
        for key, value in sorted(counters.items()):
            if key != "requests":
                requests.add(value, status=key)
        requests.add(admission["shed"], status="shed")
        metrics.append(requests)
        metrics.append(
            Metric(
                "repro_admission_waiting", "Requests parked in the waiting room."
            ).add(admission["waiting"])
        )
        breaker = Metric(
            "repro_breaker_skips_total",
            "Ladder rungs skipped by an open circuit breaker.",
            "counter",
        ).add(self.breaker.skips)
        metrics.append(breaker)
        metrics.append(
            Metric(
                "repro_breaker_open", "Circuit breakers currently open."
            ).add(len(self.breaker.snapshot()))
        )
        quarantine = Metric(
            "repro_rung_quarantine_total",
            "Integrity mismatches attributed to a rung's results.",
            "counter",
        )
        for rung, count in sorted(self.breaker.quarantined.items()):
            quarantine.add(count, rung=rung or "unknown")
        metrics.append(quarantine)
        shadow = Metric(
            "repro_shadow_events_total",
            "Shadow-verification events by kind.",
            "counter",
        )
        for key, value in sorted(self.shadow.snapshot().items()):
            if key not in ("rate", "verify_seconds"):
                shadow.add(value, kind=key)
        metrics.append(shadow)
        if self.delta is not None:
            delta_stats = self.delta.stats()
            delta_metric = Metric(
                "repro_delta_events_total",
                "Near-duplicate warm-path events by kind.",
                "counter",
            )
            for key in (
                "lookups", "warm_hits", "fallbacks", "inserts", "evictions",
                "capture_errors",
            ):
                delta_metric.add(delta_stats[key], kind=key)
            metrics.append(delta_metric)
            metrics.append(
                Metric(
                    "repro_delta_entries",
                    "Minimization contexts in the near-duplicate LRU.",
                ).add(delta_stats["entries"])
            )
        metrics += parse_memo_metrics("repro")
        cache_metric = Metric(
            "repro_cache_events_total",
            "Result-cache events by kind (memory/disk tiers).",
            "counter",
        )
        for key, value in sorted(cache.items()):
            cache_metric.add(value, kind=key)
        metrics.append(cache_metric)
        metrics.append(
            Metric("repro_cache_entries", "Records in the in-memory LRU.").add(
                len(self.cache)
            )
        )
        metrics.append(
            Metric.from_histogram(
                "repro_request_seconds",
                "End-to-end latency of admitted requests.",
                self.latency,
            )
        )
        return render_metrics(metrics)

    def unready_reason(self) -> str | None:
        if self.admission.accepting:
            return None
        return "draining" if self.admission.closed else "shedding"

    # -- lifecycle -----------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind, start serving on a daemon thread, return (host, port)."""
        address = self._listen(self.config.host, self.config.port)
        self.watchdog.start()
        if self.config.parent_pid is not None:
            threading.Thread(
                target=self._watch_parent,
                name="repro-serve-parent-watch",
                daemon=True,
            ).start()
        return address

    def _watch_parent(self) -> None:
        """Drain when the supervising parent process disappears.

        Cluster workers are children of a coordinator; if it dies
        without draining them (SIGKILL, OOM), they must not linger as
        orphans holding ports and the shared cache lock path.
        """
        import os

        pid = self.config.parent_pid
        while not self._draining:
            try:
                os.kill(pid, 0)
            except (OSError, ProcessLookupError):
                self.drain(grace=1.0)
                return
            time.sleep(1.0)

    def _wind_down(self, grace: float | None) -> None:
        """Stop admitting, then finish or cancel in-flight requests.

        Requests that complete within the grace window land in the
        manifest journal as usual; stragglers are cancelled through
        their budget tokens and answered with the structured
        ``cancelled`` error.
        """
        self.admission.close()
        grace = self.config.drain_grace if grace is None else grace
        deadline = time.monotonic() + max(grace, 0.0)
        while self.inflight and time.monotonic() < deadline:
            time.sleep(0.02)
        with self._inflight_lock:
            stragglers = list(self._inflight.values())
        for budget in stragglers:
            budget.cancel("server draining")
        # Cancellation is cooperative: give the loops a moment to unwind
        # so their (cancelled) responses still go out before the
        # listener dies.
        deadline = time.monotonic() + 5.0
        while self.inflight and time.monotonic() < deadline:
            time.sleep(0.02)
        self.watchdog.stop()
        self.shadow.stop()
