"""The cluster coordinator: shard-routing HTTP front-end over N workers.

One coordinator process accepts the existing ``serve`` API and routes
every ``POST /minimize`` over a consistent-hash ring
(:mod:`repro.cluster.ring`) keyed by the **job content hash** to one of
N supervised worker subprocesses (:mod:`repro.cluster.worker`).  Equal
jobs always land on the same worker, so each worker's in-memory LRU
becomes a clean shard of one logical cache; the shared on-disk tier
under ``cache_dir`` (lockfile-guarded, see :mod:`repro.engine.cache`)
makes a result computed by *any* worker a disk hit for every worker
after ring movement or a restart.

Failure handling, in order of escalation (policies from
:mod:`repro.cluster.resilience`):

* a proxy attempt that cannot reach its worker **fails over** to the
  ring successor (jobs are idempotent and content-hashed, so a retry
  is at worst a cache hit) and nudges the health checker;
* a request outstanding longer than the **adaptive hedge delay** —
  ~p95 of recently observed latency, tracked per worker with decay,
  on by default — is **hedged**: duplicated to the successor, first
  response wins;
* every failover and hedge spends from the target worker's **retry
  budget** (a token bucket fed by its primary traffic), so brownout
  recovery cannot amplify into a retry storm;
* an ``X-Repro-Deadline`` header pins an **end-to-end deadline**: it
  is re-derived (decremented) before every hop and retry, a request
  that can no longer finish is shed (503) instead of computed, and
  the remainder lands in the worker's request budget;
* the health loop probes ``/healthz`` continuously; a worker that
  misses ``_HEALTH_MISSES`` probes in a row — or whose process has
  exited — is removed from the ring, killed, and restarted with
  capped exponential backoff + deterministic per-worker jitter, then
  **re-admitted** once it answers probes again;
* with ``max_workers > workers``, an **autoscaler** watches the
  aggregate admission-queue depth and shed deltas and spawns extra
  ring workers under pressure, reaping them after a sustained idle
  window;
* only when *no* ring worker is reachable (or the retry budget is
  spent) does the client see a structured 503 — never a torn
  response.

The proxy path carries seeded network fault sites for chaos testing
(``cluster.proxy.stall`` ``.drop`` ``.black_hole`` ``.slow_worker`` —
see :mod:`repro.faults`); ``.slow_worker`` SIGSTOPs the target worker,
the exact failure hedging exists to absorb.

Routing decodes each body with the workers' own request decoder
(:mod:`repro.serve.request`), whose parse memo keeps the PLA texts this
process has parsed: a repeat of a seen body, and a near-duplicate of a
seen base, route without parsing the PLA again.  The decoder imports
no solver, so this process never loads numpy or the minimizers; only
its workers do.

Endpoints: ``POST /minimize`` (proxied), ``GET /healthz`` ``/readyz``
``/stats`` ``/metrics`` (answered by the coordinator; ``/metrics`` also
scrapes and re-exports per-worker counters as Prometheus text).  The
listener, error table and drain lifecycle are the worker's own
(:mod:`repro.serve.tier`), so a malformed request gets the same answer
from either tier.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import threading
import time
from dataclasses import dataclass
from typing import Any

from repro import faults
from repro.budget import current_rss_mb
from repro.cluster.resilience import (
    DEADLINE_HEADER,
    AdaptiveHedge,
    AutoscalePolicy,
    DeadlineExpired,
    RetryBudget,
    format_deadline,
    restart_delay,
)
from repro.cluster.ring import HashRing
from repro.cluster.worker import WorkerProcess, free_port
from repro.errors import Overloaded, ReproError
from repro.serve.metrics import LatencyHistogram, Metric, render_metrics
from repro.serve.request import (
    jobs_from_payload,
    parse_memo_metrics,
    parse_memo_stats,
)
from repro.serve.tier import (
    Connection,
    HttpTier,
    error_body,
    error_response,
    json_payload,
)

__all__ = ["ClusterConfig", "ClusterCoordinator"]

# Fixed policy values (no caller tunes them; ClusterConfig holds the rest).
_HEDGE_MAX = 5.0               # adaptive hedge delay ceiling (seconds)
_HEDGE_MULTIPLIER = 1.0        # hedge delay = multiplier x p95
_HEALTH_MISSES = 2             # consecutive failed probes before eviction
_RESTART_BACKOFF_CAP = 15.0    # ceiling of the restart backoff (seconds)
_AUTOSCALE_INTERVAL = 1.0      # seconds between autoscaler decisions
_AUTOSCALE_QUEUE_HIGH = 1.0    # waiting requests per worker that scale up
_AUTOSCALE_IDLE_AFTER = 10.0   # calm seconds before a reap

# Worker reply headers the client sees: the shed hint, and the
# certificate level, so integrity travels end to end.
_PASSED_HEADERS = ("Retry-After", "X-Repro-Verified")


@dataclass
class ClusterConfig:
    """Knobs of one coordinator.

    ``spp-minimize cluster`` exposes the topology, hedging, retry-budget
    and health-interval knobs and the worker pass-through as flags; the
    rest (``hedge_min``, ``hedge_initial``, ``proxy_timeout``,
    ``restart_backoff``, ``drain_grace`` …) keep their defaults there and
    are set only programmatically.  The hedge ceiling and multiplier, the
    health-miss count, the restart backoff cap and the autoscale interval
    and thresholds are module constants (``_HEDGE_MAX`` …).
    """

    host: str = "127.0.0.1"
    port: int = 8350
    workers: int = 4
    replicas: int = 64               # ring points per worker
    failover_attempts: int = 2       # distinct workers tried per request
    # Hedging is ON by default with an adaptive delay (~p95 of recent
    # per-worker latency, decayed); hedge_after pins a static delay
    # instead, and hedge=False disables duplication entirely.
    hedge: bool = True
    hedge_after: float | None = None  # static override (seconds)
    hedge_min: float = 0.05          # adaptive delay floor (seconds)
    hedge_initial: float = 1.0       # delay before enough samples exist
    # Retry/hedge amplification cap per worker (token bucket).
    retry_budget_ratio: float = 0.2  # tokens deposited per primary attempt
    retry_budget_cap: float = 10.0   # bucket size (also the initial burst)
    proxy_timeout: float = 300.0
    health_interval: float = 0.5
    health_timeout: float = 2.0
    restart_backoff: float = 0.5     # base of the exponential backoff
    # Queue-driven autoscaling: spawn up to max_workers under admission
    # pressure, reap back toward `workers` after a sustained idle
    # window.  max_workers=None (or == workers) disables scaling.
    max_workers: int | None = None
    worker_start_timeout: float = 60.0
    drain_grace: float = 10.0
    # Pass-through configuration for every worker's MinimizeService:
    worker_threads: int = 4
    worker_queue_capacity: int = 8
    default_timeout: float = 5.0
    default_budget: float = 30.0
    cache_entries: int = 1024
    cache_dir: str | None = None     # the *shared* disk tier
    max_disk_entries: int | None = None
    audit_rate: int = 16             # workers' verify-on-read sampling
    shadow_rate: int = 8             # workers' shadow-verification sampling


class _WorkerState:
    """Supervision bookkeeping for one worker (owned by the coordinator)."""

    __slots__ = (
        "proc", "status", "misses", "down_since", "requests", "errors",
        "failovers", "restart_attempts", "retry_budget", "autoscaled",
    )

    def __init__(
        self, proc: WorkerProcess, retry_budget: RetryBudget | None = None
    ) -> None:
        self.proc = proc
        self.status = "starting"   # starting | up | restarting
        self.misses = 0
        self.down_since = 0.0
        self.requests = 0
        self.errors = 0
        self.failovers = 0  # times a request failed over *away* from it
        self.restart_attempts = 0  # consecutive respawns this outage
        self.retry_budget = retry_budget or RetryBudget()
        self.autoscaled = False    # spawned by the autoscaler (reapable)


class ClusterCoordinator(HttpTier):
    """Consistent-hash router + supervisor over serve worker processes."""

    server_version = "repro-cluster"

    def __init__(self, config: ClusterConfig | None = None) -> None:
        self.config = config or ClusterConfig()
        cfg = self.config
        if cfg.workers < 1:
            raise ValueError("need at least one worker")
        if cfg.max_workers is not None and cfg.max_workers < cfg.workers:
            raise ValueError("max_workers must be >= workers")
        super().__init__(
            (
                "requests",
                "proxied",
                "failovers",
                "hedges",
                "hedge_wins",
                "unavailable",
                "bad_requests",
                "upstream_attempts",
                "retry_budget_exhausted",
                "deadline_shed",
                "proxy_faults",
                "autoscale_up",
                "autoscale_down",
            ),
            retry_after=1,
        )
        self.ring = HashRing(replicas=cfg.replicas)
        self.latency = LatencyHistogram()
        self.hedge = AdaptiveHedge(
            multiplier=_HEDGE_MULTIPLIER,
            min_delay=cfg.hedge_min,
            max_delay=_HEDGE_MAX,
            initial=cfg.hedge_initial,
        )
        max_workers = cfg.max_workers if cfg.max_workers is not None else cfg.workers
        self.autoscale: AutoscalePolicy | None = None
        if max_workers > cfg.workers:
            self.autoscale = AutoscalePolicy(
                min_workers=cfg.workers,
                max_workers=max_workers,
                queue_high=_AUTOSCALE_QUEUE_HIGH,
                idle_after=_AUTOSCALE_IDLE_AFTER,
            )
        self._workers: dict[str, _WorkerState] = {}
        self._workers_lock = threading.Lock()
        self._next_worker_index = 0
        self._pool: dict[str, list[Connection]] = {}
        self._pool_lock = threading.Lock()
        self._autoscale_last = 0.0
        self._shed_seen: dict[str, float] = {}
        self._worker_aggregate: dict[str, Any] = {}
        self._probe_now = threading.Event()
        self._stop = threading.Event()
        self._health_thread: threading.Thread | None = None
        self._hedge_pool: concurrent.futures.ThreadPoolExecutor | None = None

    # -- worker construction -------------------------------------------

    def _serve_args(self) -> list[str]:
        cfg = self.config
        args = [
            "--threads", str(cfg.worker_threads),
            "--queue-capacity", str(cfg.worker_queue_capacity),
            "--default-timeout", str(cfg.default_timeout),
            "--default-budget", str(cfg.default_budget),
            "--cache-entries", str(cfg.cache_entries),
            "--audit-rate", str(cfg.audit_rate),
            "--shadow-rate", str(cfg.shadow_rate),
        ]
        if cfg.cache_dir is not None:
            args += ["--cache-dir", str(cfg.cache_dir)]
        if cfg.max_disk_entries is not None:
            args += ["--max-disk-entries", str(cfg.max_disk_entries)]
        return args

    def _new_worker(self, name: str, *, autoscaled: bool = False) -> _WorkerState:
        """Construct (but do not start) one supervised worker."""
        cfg = self.config
        proc = WorkerProcess(
            name,
            free_port(cfg.host),
            host=cfg.host,
            serve_args=self._serve_args(),
            start_timeout=cfg.worker_start_timeout,
        )
        state = _WorkerState(
            proc,
            RetryBudget(
                ratio=cfg.retry_budget_ratio, cap=cfg.retry_budget_cap
            ),
        )
        state.autoscaled = autoscaled
        return state

    def start(self) -> tuple[str, int]:
        """Spawn the workers, join them to the ring, bind the listener."""
        cfg = self.config
        for _ in range(cfg.workers):
            name = f"w{self._next_worker_index}"
            self._next_worker_index += 1
            state = self._new_worker(name)
            self._workers[name] = state
            state.proc.start(wait=False)  # overlap the N interpreter start-ups
        deadline = time.monotonic() + cfg.worker_start_timeout
        for name, state in self._workers.items():
            remaining = max(deadline - time.monotonic(), 1.0)
            if not state.proc.wait_healthy(remaining):
                self.stop_workers()
                raise RuntimeError(f"worker {name} never became healthy")
            state.status = "up"
            self.ring.add(name)
        if cfg.hedge or cfg.hedge_after is not None:
            # Sized for the wedged-worker pile-up: every hedged request
            # leaves its primary thread parked until the worker answers
            # or times out, and those must not starve new hedges (the
            # retry budget bounds true amplification, not this pool).
            max_workers = cfg.max_workers or cfg.workers
            self._hedge_pool = concurrent.futures.ThreadPoolExecutor(
                max_workers=max(64, max_workers * 8),
                thread_name_prefix="repro-hedge",
            )
        self._health_thread = threading.Thread(
            target=self._health_loop, name="repro-cluster-health", daemon=True
        )
        self._health_thread.start()
        return self._listen(cfg.host, cfg.port)

    # -- routing -------------------------------------------------------

    def routing_key(self, body: bytes) -> str:
        """Job-content-hash routing key for a raw request body.

        A PLA text this process has parsed before is not parsed again
        (see :func:`~repro.serve.request.parse_memo_stats`).  Raises the
        workers' own :class:`~repro.errors.ParseError` /
        :class:`~repro.errors.UsageError` on bodies the workers would
        reject anyway.

        Delta-form requests (``{"base": ..., "delta": ...}``) are keyed
        by their **base** jobs (``routing=True`` below): every
        near-duplicate of a function hashes to the same ring position,
        so consistent-hash affinity lands it on the worker whose
        :class:`~repro.delta.DeltaIndex` holds the base context.
        """
        jobs = jobs_from_payload(json_payload(body or b"{}"), routing=True)
        if len(jobs) == 1:
            return jobs[0].content_hash
        # multi-output request: one stable key over all its jobs
        digest = hashlib.sha256()
        for job in jobs:
            digest.update(job.content_hash.encode("ascii"))
        return digest.hexdigest()

    def plan_for(self, key: str) -> list[str]:
        """Failover-ordered worker names for a routing key."""
        plan: list[str] = []
        for name in self.ring.successors(key):
            plan.append(name)
            if len(plan) >= self.config.failover_attempts:
                break
        return plan

    # -- proxying ------------------------------------------------------

    def handle_minimize(
        self, body: bytes, deadline: float | None = None
    ) -> tuple[int, dict[str, str], bytes]:
        """Route one request; returns (status, extra headers, body bytes).

        ``deadline`` is the client's remaining end-to-end budget in
        seconds (from ``X-Repro-Deadline``).  It is pinned to an
        absolute instant here and re-derived before every attempt and
        hop, so retries and hedges never stretch the total.  A body the
        workers would reject is answered here, through the same error
        table, without reaching any worker.
        """
        if self._draining:
            return error_response(
                Overloaded("cluster is draining", retry_after=self.retry_after)
            )
        started = time.monotonic()
        deadline_at = started + deadline if deadline is not None else None
        self._bump("requests")
        if deadline_at is not None and deadline <= 0:
            return self._deadline_response()
        try:
            key = self.routing_key(body)
        except ReproError as exc:
            self._bump("bad_requests")
            return error_response(exc)
        plan = self.plan_for(key)
        response = None
        expired = False
        for attempt, name in enumerate(plan):
            if deadline_at is not None and time.monotonic() >= deadline_at:
                expired = True
                break
            if attempt > 0:
                # A failover re-sends work a worker already saw (or
                # should have): it spends from the *new* target's retry
                # budget so brownouts cannot amplify into retry storms.
                if not self._try_spend(name):
                    self._bump("retry_budget_exhausted")
                    break
                self._bump("failovers")
                with self._workers_lock:
                    state = self._workers.get(plan[attempt - 1])
                    if state is not None:
                        state.failovers += 1
            else:
                self._deposit(name)
            hedge_to = plan[attempt + 1] if attempt + 1 < len(plan) else None
            response = self._attempt(name, body, hedge_to, deadline_at)
            if response is not None:
                break
        if response is None:
            if expired or (
                deadline_at is not None and time.monotonic() >= deadline_at
            ):
                return self._deadline_response()
            self._bump("unavailable")
            self._probe_now.set()
            return (
                503,
                {"Retry-After": str(self.retry_after)},
                error_body(
                    "unavailable",
                    f"no reachable worker among {plan or ['(empty ring)']}",
                ),
            )
        status, headers, data = response
        self.latency.observe(time.monotonic() - started)
        self._bump("proxied")
        return status, headers, data

    def _deadline_response(self) -> tuple[int, dict[str, str], bytes]:
        """503 for a request whose end-to-end deadline already passed."""
        self._bump("deadline_shed")
        return error_response(DeadlineExpired(
            "end-to-end deadline expired before a worker could answer",
            retry_after=self.retry_after,
        ))

    def _try_spend(self, name: str) -> bool:
        """Spend one retry-budget token of worker ``name`` (False = broke)."""
        with self._workers_lock:
            state = self._workers.get(name)
        return state is not None and state.retry_budget.try_spend()

    def _deposit(self, name: str) -> None:
        """Primary traffic to ``name`` refills its retry budget."""
        with self._workers_lock:
            state = self._workers.get(name)
        if state is not None:
            state.retry_budget.deposit()

    def _hedge_delay(self, name: str) -> float | None:
        """Seconds to wait before hedging a request to ``name``.

        A static ``hedge_after`` wins when configured; otherwise the
        adaptive tracker answers with ~p95 of this worker's recent
        latency.  None disables hedging for this attempt.
        """
        cfg = self.config
        if cfg.hedge_after is not None:
            return cfg.hedge_after
        if cfg.hedge:
            return self.hedge.delay(name)
        return None

    def _attempt(
        self,
        name: str,
        body: bytes,
        hedge_to: str | None = None,
        deadline_at: float | None = None,
    ) -> tuple[int, dict[str, str], bytes] | None:
        """One (possibly hedged) attempt against one worker."""
        hedge_after = self._hedge_delay(name)
        if hedge_after is None or self._hedge_pool is None or hedge_to is None:
            return self._proxy(name, body, deadline_at)
        primary = self._hedge_pool.submit(self._proxy, name, body, deadline_at)
        try:
            return primary.result(timeout=hedge_after)
        except concurrent.futures.TimeoutError:
            pass
        # Primary is slow: duplicate to the ring successor (jobs are
        # idempotent and content-hashed; the duplicate is at worst a
        # cache hit there).  First non-None response wins; the loser
        # finishes in the background and is discarded.  The duplicate
        # spends from the backup target's retry budget: hedging is a
        # retry that starts early, and it amplifies load the same way.
        if not self._try_spend(hedge_to):
            self._bump("retry_budget_exhausted")
            try:
                return primary.result(timeout=self.config.proxy_timeout)
            except concurrent.futures.TimeoutError:
                return None
        self._bump("hedges")
        backup = self._hedge_pool.submit(self._proxy, hedge_to, body, deadline_at)
        pending = {primary, backup}
        wait_until = time.monotonic() + self.config.proxy_timeout
        if deadline_at is not None:
            wait_until = min(wait_until, deadline_at)
        while pending:
            done, pending = concurrent.futures.wait(
                pending,
                timeout=max(wait_until - time.monotonic(), 0.01),
                return_when=concurrent.futures.FIRST_COMPLETED,
            )
            if not done:  # overall proxy deadline expired
                break
            for future in done:
                result = future.result()
                if result is not None:
                    if future is backup:
                        self._bump("hedge_wins")
                    return result
        return None

    def _proxy(
        self,
        name: str,
        body: bytes,
        deadline_at: float | None = None,
    ) -> tuple[int, dict[str, str], bytes] | None:
        """Forward ``body`` to worker ``name``; None when unreachable.

        Tries a pooled (kept-alive) connection first and retries once
        on a fresh connection, so a stale socket from before a worker
        restart is indistinguishable from a clean exchange.  The
        remaining end-to-end deadline rides along as
        ``X-Repro-Deadline`` so the worker can shed what it cannot
        finish; chaos fault sites (stall / drop / black-hole /
        slow-worker) fire here, on the network path they simulate.
        """
        remaining = None
        if deadline_at is not None:
            remaining = deadline_at - time.monotonic()
            if remaining <= 0:
                return None
        rule = faults.check("cluster.proxy.drop", worker=name)
        if rule is not None:
            # A dropped exchange: the bytes never arrive, the caller
            # sees the same None a refused connection would produce.
            self._bump("proxy_faults")
            return None
        rule = faults.check("cluster.proxy.black_hole", worker=name)
        if rule is not None:
            # A black hole eats the request *and* the caller's time:
            # sleep out the budget, then fail like a silent peer.
            self._bump("proxy_faults")
            budget = rule.arg if rule.arg is not None else 1.0
            if remaining is not None:
                budget = min(budget, remaining)
            time.sleep(max(budget, 0.0))
            return None
        rule = faults.check("cluster.proxy.slow_worker", worker=name)
        if rule is not None:
            # SIGSTOP the worker for arg seconds: sockets stay open,
            # nothing answers — the failure hedging exists to absorb.
            self._bump("proxy_faults")
            self._suspend_worker(name, rule.arg if rule.arg is not None else 1.0)
        faults.maybe_fire("cluster.proxy.stall", worker=name)
        with self._workers_lock:
            state = self._workers.get(name)
        if state is None:
            return None
        timeout = self.config.proxy_timeout
        if remaining is not None:
            # Give the worker its full remaining budget plus slack for
            # its own structured budget-exceeded answer to travel back.
            timeout = min(timeout, remaining + 1.0)
        headers = {"Content-Type": "application/json"}
        if remaining is not None:
            headers[DEADLINE_HEADER] = format_deadline(remaining)
        self._bump("upstream_attempts")
        started = time.monotonic()
        for fresh in (False, True):
            conn = None if fresh else self._pool_get(name)
            if conn is None and not state.proc.alive:
                return None
            try:
                if conn is None:
                    conn = Connection(state.proc.host, state.proc.port, timeout)
                else:
                    conn.settimeout(timeout)
                status, reply, data = conn.exchange(
                    "POST", "/minimize", body, headers
                )
            except OSError:  # a refused, dropped, short or malformed exchange
                if conn is not None:
                    conn.close()
                if fresh:
                    with self._workers_lock:
                        state.errors += 1
                    self._probe_now.set()  # let the health loop confirm
                    return None
                continue
            out_headers = {
                header: reply[header.lower()]
                for header in _PASSED_HEADERS
                if header.lower() in reply
            }
            with self._workers_lock:
                state.requests += 1
            self._pool_put(name, conn)
            self.hedge.observe(name, time.monotonic() - started)
            return status, out_headers, data
        return None  # pragma: no cover — loop always returns

    def _suspend_worker(self, name: str, duration: float) -> None:
        """Chaos helper: SIGSTOP worker ``name``, SIGCONT after duration."""
        with self._workers_lock:
            state = self._workers.get(name)
        if state is None or not state.proc.suspend():
            return
        timer = threading.Timer(max(duration, 0.0), state.proc.resume)
        timer.daemon = True
        timer.start()

    # -- connection pool -----------------------------------------------

    def _pool_get(self, name: str) -> Connection | None:
        with self._pool_lock:
            conns = self._pool.get(name)
            if conns:
                return conns.pop()
        return None

    def _pool_put(self, name: str, conn: Connection) -> None:
        if conn.open:  # not after a reply that closed it
            with self._pool_lock:
                conns = self._pool.setdefault(name, [])
                if len(conns) < 8:
                    conns.append(conn)
                    return
        conn.close()

    def _pool_drop(self, name: str) -> None:
        with self._pool_lock:
            conns = self._pool.pop(name, [])
        for conn in conns:
            conn.close()

    # -- health / supervision ------------------------------------------

    def _health_loop(self) -> None:
        cfg = self.config
        while not self._stop.is_set():
            self._probe_now.wait(timeout=cfg.health_interval)
            self._probe_now.clear()
            if self._stop.is_set():
                return
            with self._workers_lock:
                items = list(self._workers.items())
            for name, state in items:
                if state.status == "up":
                    if not state.proc.alive:
                        self._evict(name, state, reason="process exited")
                    elif state.proc.healthy(timeout=cfg.health_timeout):
                        state.misses = 0
                    else:
                        state.misses += 1
                        if state.misses >= _HEALTH_MISSES:
                            self._evict(name, state, reason="unresponsive")
                else:  # starting (autoscaled spawn) or restarting
                    if state.proc.alive and state.proc.healthy(
                        timeout=cfg.health_timeout
                    ):
                        # Re-admission: probes answer again, the worker
                        # rejoins the ring and its outage streak resets.
                        state.status = "up"
                        state.misses = 0
                        state.restart_attempts = 0
                        self.ring.add(name)
                    elif not state.proc.alive:
                        # Respawn only after the capped exponential
                        # backoff for this outage streak has elapsed —
                        # a crash-looping worker must not peg a core,
                        # and the jitter de-synchronizes a fleet that
                        # died together (shared bad input, OOM sweep).
                        delay = restart_delay(
                            state.restart_attempts,
                            base=cfg.restart_backoff,
                            cap=_RESTART_BACKOFF_CAP,
                            key=name,
                        )
                        if time.monotonic() - state.down_since >= delay:
                            state.down_since = time.monotonic()
                            state.restart_attempts += 1
                            try:
                                state.proc.restart(wait=False)
                            except OSError:  # pragma: no cover — spawn failed
                                pass
                    elif (
                        time.monotonic() - state.down_since
                        >= cfg.worker_start_timeout
                    ):
                        # Alive but never healthy (wedged mid-boot):
                        # kill this generation, the branch above
                        # respawns it after backoff.
                        state.down_since = time.monotonic()
                        state.restart_attempts += 1
                        state.proc.kill()
            self._autoscale_tick()

    def _evict(self, name: str, state: _WorkerState, *, reason: str) -> None:
        """Pull a sick worker out of the ring; the health loop respawns
        it after this outage's backoff delay."""
        self.ring.remove(name)
        self._pool_drop(name)
        state.status = "restarting"
        state.misses = 0
        state.down_since = time.monotonic()
        state.proc.kill()

    # -- autoscaling ----------------------------------------------------

    def _autoscale_tick(self) -> None:
        """One autoscaler step: scrape admission pressure, act on it.

        Runs on the health thread at most every ``_AUTOSCALE_INTERVAL``
        seconds.  Pressure is the aggregate worker view — requests
        waiting in admission queues and shed deltas since the previous
        tick — not coordinator-side guesses.
        """
        now = time.monotonic()
        if now - self._autoscale_last < _AUTOSCALE_INTERVAL:
            return
        self._autoscale_last = now
        aggregate = self._scrape_workers()
        if self.autoscale is None:
            return
        up = aggregate["up_workers"]
        if up == 0:
            return
        decision = self.autoscale.decide(
            now=now,
            workers=up,
            waiting=aggregate["waiting"],
            shed_delta=aggregate["shed_delta"],
        )
        if decision > 0:
            self._spawn_extra()
        elif decision < 0:
            self._reap_extra()

    def _scrape_workers(self) -> dict[str, Any]:
        """Aggregate every up worker's ``/stats`` admission view."""
        with self._workers_lock:
            items = list(self._workers.items())
        waiting = active = admitted = 0
        shed_total = 0
        shed_delta = 0.0
        retry_after = 0.0
        up_workers = 0
        per_worker: dict[str, Any] = {}
        for name, state in items:
            if state.status != "up":
                continue
            stats = state.proc.stats(timeout=1.0)
            if stats is None:
                continue
            up_workers += 1
            admission = stats.get("admission", {})
            waiting += int(admission.get("waiting", 0))
            active += int(admission.get("active", 0))
            admitted += int(admission.get("admitted", 0))
            shed = float(admission.get("shed", 0))
            shed_total += int(shed)
            seen = self._shed_seen.get(name, shed)
            shed_delta += max(0.0, shed - seen)
            self._shed_seen[name] = shed
            retry_after = max(
                retry_after, float(admission.get("retry_after", 0.0))
            )
            per_worker[name] = {
                "waiting": int(admission.get("waiting", 0)),
                "active": int(admission.get("active", 0)),
                "shed": int(shed),
                "admitted": int(admission.get("admitted", 0)),
                "retry_after": float(admission.get("retry_after", 0.0)),
            }
        aggregate = {
            "up_workers": up_workers,
            "waiting": waiting,
            "active": active,
            "admitted": admitted,
            "shed": shed_total,
            "shed_delta": shed_delta,
            "retry_after": retry_after,
            "per_worker": per_worker,
        }
        self._worker_aggregate = aggregate
        return aggregate

    def _spawn_extra(self) -> None:
        """Scale up: add one autoscaled worker (joins the ring when
        its first health probe answers)."""
        with self._workers_lock:
            for state in self._workers.values():
                if state.status == "starting":
                    return  # one boot in flight at a time
            name = f"w{self._next_worker_index}"
            self._next_worker_index += 1
            state = self._new_worker(name, autoscaled=True)
            state.down_since = time.monotonic()
            self._workers[name] = state
        try:
            state.proc.start(wait=False)
        except OSError:  # pragma: no cover — spawn failed
            with self._workers_lock:
                self._workers.pop(name, None)
            return
        self._bump("autoscale_up")

    def _reap_extra(self) -> None:
        """Scale down: retire the newest autoscaled worker."""
        with self._workers_lock:
            candidates = [
                name
                for name, state in self._workers.items()
                if state.autoscaled and state.status == "up"
            ]
            if not candidates:
                return
            name = max(
                candidates, key=lambda n: int(n[1:]) if n[1:].isdigit() else 0
            )
            state = self._workers.pop(name)
        self.ring.remove(name)
        self._pool_drop(name)
        self._shed_seen.pop(name, None)
        self._bump("autoscale_down")
        # Drain off-thread: the health loop must not block on the grace
        # period of a worker that is merely surplus.
        threading.Thread(
            target=state.proc.stop,
            kwargs={"grace": self.config.drain_grace},
            name=f"repro-cluster-reap-{name}",
            daemon=True,
        ).start()

    # -- introspection -------------------------------------------------

    def unready_reason(self) -> str | None:
        if self._draining:
            return "draining"
        return None if len(self.ring) > 0 else "no-workers"

    def stats(self) -> dict[str, Any]:
        counters = self.counter_snapshot()
        workers = {}
        with self._workers_lock:
            items = list(self._workers.items())
        for name, state in items:
            workers[name] = {
                "port": state.proc.port,
                "pid": state.proc.pid,
                "alive": state.proc.alive,
                "status": state.status,
                "in_ring": name in self.ring,
                "restarts": state.proc.restarts,
                "requests": state.requests,
                "errors": state.errors,
                "failovers": state.failovers,
                "autoscaled": state.autoscaled,
                "retry_budget": state.retry_budget.snapshot(),
            }
        cfg = self.config
        return {
            "uptime_seconds": self.uptime,
            "rss_mb": current_rss_mb(),
            "draining": self._draining,
            "counters": counters,
            "latency": self.latency.snapshot(),
            "ring": sorted(self.ring.nodes),
            "workers": workers,
            "hedging": {
                "enabled": cfg.hedge or cfg.hedge_after is not None,
                "static_after": cfg.hedge_after,
                "delays": {
                    name: self.hedge.delay(name) for name in sorted(workers)
                },
                "tracker": self.hedge.tracker.snapshot(),
            },
            "autoscale": {
                "enabled": self.autoscale is not None,
                "min_workers": cfg.workers,
                "max_workers": cfg.max_workers or cfg.workers,
            },
            # The aggregated per-worker admission view (queue depth,
            # shed counts, Retry-After) from the latest autoscale
            # scrape — the satellite view operators alert on.
            "workers_aggregate": dict(self._worker_aggregate),
            "parse": parse_memo_stats(),
        }

    def metrics_text(self) -> str:
        """Coordinator + per-worker counters as Prometheus text.

        Worker metrics are scraped live from each worker's ``/stats``
        (short timeout; a dead worker simply contributes nothing this
        scrape) and re-exported under a ``worker`` label.
        """
        metrics = [
            Metric(
                "repro_cluster_uptime_seconds", "Seconds since cluster start."
            ).add(self.uptime),
            Metric(
                "repro_cluster_ring_size", "Workers currently in the ring."
            ).add(len(self.ring)),
        ]
        rss = current_rss_mb()
        if rss is not None:
            metrics.append(
                Metric(
                    "repro_cluster_resident_memory_bytes",
                    "Resident set size of the coordinator process.",
                ).add(round(rss * 2**20))
            )
        events = Metric(
            "repro_cluster_events_total",
            "Coordinator events by kind (routing, failover, hedging).",
            "counter",
        )
        for key, value in sorted(self.counter_snapshot().items()):
            events.add(value, kind=key)
        metrics.append(events)
        metrics += parse_memo_metrics("repro_cluster")
        per_worker = Metric(
            "repro_cluster_worker_info",
            "Worker liveness (1 = in ring) with pid/port labels.",
        )
        proxied = Metric(
            "repro_cluster_worker_requests_total",
            "Requests proxied to each worker by the coordinator.",
            "counter",
        )
        restarts = Metric(
            "repro_cluster_worker_restarts_total",
            "Times each worker was restarted by the supervisor.",
            "counter",
        )
        hedge_delay = Metric(
            "repro_cluster_hedge_delay_seconds",
            "Adaptive hedge delay per worker (~p95 of recent latency).",
        )
        budget_tokens = Metric(
            "repro_cluster_retry_budget_tokens",
            "Retry-budget tokens currently available per worker.",
        )
        with self._workers_lock:
            items = list(self._workers.items())
        for name, state in items:
            per_worker.add(
                1 if name in self.ring else 0,
                worker=name, port=str(state.proc.port),
                pid=str(state.proc.pid or 0),
            )
            proxied.add(state.requests, worker=name)
            restarts.add(state.proc.restarts, worker=name)
            hedge_delay.add(self.hedge.delay(name), worker=name)
            budget_tokens.add(state.retry_budget.balance, worker=name)
        metrics += [per_worker, proxied, restarts, hedge_delay, budget_tokens]
        worker_requests = Metric(
            "repro_worker_requests_total",
            "Per-worker terminal request outcomes (scraped from /stats).",
            "counter",
        )
        worker_cache = Metric(
            "repro_worker_cache_events_total",
            "Per-worker result-cache events (scraped from /stats).",
            "counter",
        )
        worker_breaker = Metric(
            "repro_worker_breaker_skips_total",
            "Per-worker ladder rungs skipped by open breakers.",
            "counter",
        )
        worker_latency = Metric(
            "repro_worker_latency_seconds",
            "Per-worker latency quantiles (scraped from /stats).",
        )
        for name, state in items:
            stats = state.proc.stats(timeout=2.0) if state.status == "up" else None
            if stats is None:
                continue
            for key, value in sorted(stats.get("counters", {}).items()):
                if key != "requests":
                    worker_requests.add(value, worker=name, status=key)
            shed = stats.get("admission", {}).get("shed")
            if shed is not None:
                worker_requests.add(shed, worker=name, status="shed")
            for key, value in sorted(
                stats.get("cache", {}).get("counters", {}).items()
            ):
                worker_cache.add(value, worker=name, kind=key)
            worker_breaker.add(
                stats.get("breaker", {}).get("skips", 0), worker=name
            )
            latency = stats.get("latency", {})
            for q_key, q in (("p50", "0.5"), ("p95", "0.95"), ("p99", "0.99")):
                if latency.get(q_key) is not None:
                    worker_latency.add(latency[q_key], worker=name, quantile=q)
        metrics += [worker_requests, worker_cache, worker_breaker, worker_latency]
        metrics.append(
            Metric.from_histogram(
                "repro_cluster_request_seconds",
                "End-to-end latency through the coordinator.",
                self.latency,
            )
        )
        return render_metrics(metrics)

    # -- lifecycle -----------------------------------------------------

    def stop_workers(self, grace: float | None = None) -> None:
        grace = self.config.drain_grace if grace is None else grace
        with self._workers_lock:
            items = list(self._workers.values())
        for state in items:
            state.proc.terminate()  # signal first, so the drains overlap
        for state in items:
            state.proc.stop(grace=grace)

    def _wind_down(self, grace: float | None) -> None:
        """Stop the health loop and the hedge pool, drain every worker."""
        self._stop.set()
        self._probe_now.set()
        if self._health_thread is not None:
            self._health_thread.join(timeout=5.0)
        if self._hedge_pool is not None:
            self._hedge_pool.shutdown(wait=False)
        self.stop_workers(grace)
        for name in list(self._pool):
            self._pool_drop(name)
