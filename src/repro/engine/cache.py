"""Content-addressed result cache: in-memory LRU + optional disk store.

Repeated minimizations of the same function are ubiquitous — the
``tables`` command re-minimizes benchmark outputs shared between
tables, k-sweeps redo the ``k=0`` rung, and a rerun batch redoes
everything.  Records are keyed by the job content hash
(:mod:`repro.engine.job`), so a hit is guaranteed to be the same
computation.

Two tiers:

* an in-memory LRU (``max_entries``, counted per record) serving
  within-process reuse;
* an optional on-disk JSON store under ``cache_dir/objects/<h2>/<hash>.json``
  (two-level fan-out keeps directories small), serving reuse across
  processes and runs.  Disk hits are promoted into the LRU.

Disk records are written atomically (tmp + fsync + rename) with a
sha256 checksum envelope.  A record that fails to decode or verify on
read is **quarantined** — moved to ``cache_dir/quarantine/`` for
forensics — and treated as a miss, so corruption costs a recompute,
never a crash or a silently wrong answer.

The disk tier may be **shared between processes** (the cluster's
workers all point at one ``cache_dir``).  Single-record writes need no
coordination — the tmp+rename protocol is atomic — but multi-file
maintenance (disk eviction with ``max_disk_entries``, quarantine moves)
is serialized through a :class:`~repro.engine.lockfile.FileLock` at
``cache_dir/.maintenance.lock`` so two workers cannot interleave a
scan-then-delete sequence.  Maintenance is best-effort: a worker that
cannot get the lock promptly skips its turn rather than stalling the
request path.

Within a process the in-memory LRU is guarded by one lock, since a
service reads and writes it from its request threads, its shadow
verifier and its memory watchdog at once; the disk tier's file work
runs outside it.

All counters (hits, misses, evictions, corrupt quarantines, …) are
exposed via :class:`CacheStats` for the CLI summary and the tests.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro import faults
from repro.engine.job import _SOLVER_VERSION
from repro.engine.lockfile import FileLock, LockTimeout
from repro.errors import IntegrityError
from repro.integrity import check_certificate
from repro.serialize import dump_json_file, load_json_file

if TYPE_CHECKING:  # pragma: no cover
    from repro.boolfunc.function import BoolFunc

__all__ = ["CacheStats", "ResultCache"]


def _corrupt_payload(path: Path) -> None:
    """The ``cache.disk.corrupt_payload`` fault: checksum-valid bit-rot.

    Re-reads the just-written record, drops the last pseudoproduct of
    the stored form (so the form no longer covers its spec), and
    re-wraps a **fresh** checksum envelope before writing the file
    back.  The result decodes cleanly and passes its checksum — the
    corruption is purely semantic, the case only verify-on-read
    auditing (or a shadow verification downstream) can catch.
    """
    try:
        raw = json.loads(path.read_text(encoding="ascii"))
    except (OSError, ValueError):  # pragma: no cover — racing prune
        return
    payload = raw.get("payload") if isinstance(raw, dict) else None
    if not isinstance(payload, dict):
        payload = raw if isinstance(raw, dict) else None
    if payload is None:
        return
    form = payload.get("form")
    if not isinstance(form, dict) or not form.get("pseudoproducts"):
        return
    form["pseudoproducts"] = form["pseudoproducts"][:-1]
    dump_json_file(path, payload, checksum=True, fsync=True)


@dataclass
class CacheStats:
    """Counters of one :class:`ResultCache` lifetime."""

    hits: int = 0        # served from the in-memory LRU
    disk_hits: int = 0   # served from the disk store
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    disk_evictions: int = 0  # disk-tier records pruned by this process
    corrupt: int = 0     # disk records quarantined on failed load
    audited: int = 0     # disk loads re-verified against their spec
    audit_mismatches: int = 0  # audits that failed (record quarantined)

    @property
    def total_hits(self) -> int:
        return self.hits + self.disk_hits

    def as_dict(self) -> dict[str, int]:
        """All counters as a flat dict (the ``/stats``/``/metrics`` view)."""
        return asdict(self)

    def summary(self) -> str:
        text = (
            f"{self.total_hits} hits ({self.disk_hits} from disk), "
            f"{self.misses} misses, {self.evictions} evictions"
        )
        if self.disk_evictions:
            text += f", {self.disk_evictions} disk-pruned"
        if self.corrupt:
            text += f", {self.corrupt} corrupt quarantined"
        if self.audited:
            text += (
                f", {self.audited} audited"
                f" ({self.audit_mismatches} mismatches)"
            )
        return text


class ResultCache:
    """LRU + optional disk store for engine result records."""

    # Disk maintenance cadence: check the disk-tier size only every
    # N stores, so the steady-state put path stays a single file write.
    _PRUNE_EVERY = 64

    def __init__(
        self,
        max_entries: int = 4096,
        cache_dir: str | Path | None = None,
        *,
        max_disk_entries: int | None = None,
        audit_rate: int = 16,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        if max_disk_entries is not None and max_disk_entries < 1:
            raise ValueError("max_disk_entries must be positive")
        if audit_rate < 0:
            raise ValueError("audit_rate must be non-negative")
        self.max_entries = max_entries
        self.max_disk_entries = max_disk_entries
        self.audit_rate = audit_rate
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.stats = CacheStats()
        self._lru: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self._lock = threading.Lock()  # guards _lru
        self._stores_since_prune = 0
        self._audit_tick = 0

    # ------------------------------------------------------------------

    def path_for(self, key: str) -> Path | None:
        """Disk location of ``key`` (None when disk store is disabled)."""
        if self.cache_dir is None:
            return None
        return self.cache_dir / "objects" / key[:2] / f"{key}.json"

    @property
    def quarantine_dir(self) -> Path | None:
        """Where corrupt disk records are moved (None when no disk tier)."""
        if self.cache_dir is None:
            return None
        return self.cache_dir / "quarantine"

    def maintenance_lock(self, *, timeout: float | None = 5.0) -> FileLock | None:
        """The cross-process lock guarding multi-file disk maintenance."""
        if self.cache_dir is None:
            return None
        return FileLock(self.cache_dir / ".maintenance.lock", timeout=timeout)

    def get(self, key: str, func: "BoolFunc | None" = None) -> dict[str, Any] | None:
        """Look up a record; None on miss (corrupt entries quarantined).

        With ``func`` (the trusted specification for ``key``), disk
        loads go through **verify-on-read auditing**: every
        ``audit_rate``-th disk hit — and *every* record whose integrity
        envelope is missing or stamped with a different solver salt —
        is independently re-verified against the spec before being
        returned.  A record that fails its audit is quarantined and
        reported as a miss, so a checksum-valid but semantically wrong
        record (bit-rot inside the payload, a buggy writer) costs a
        recompute, never a wrong answer.  In-memory hits are not
        re-audited: LRU entries were either produced (and verified) by
        this process or audited when first promoted from disk.
        """
        with self._lock:
            record = self._lru.get(key)
            if record is not None:
                self._lru.move_to_end(key)
                self.stats.hits += 1
                return record
        path = self.path_for(key)
        if path is not None and path.is_file():
            try:
                record = load_json_file(path)
            except ValueError:
                self._quarantine(path)
                record = None
            if record is not None and func is not None:
                record = self._audit(path, record, func)
            if record is not None:
                self.stats.disk_hits += 1
                self._insert(key, record)
                return record
        self.stats.misses += 1
        return None

    def put(self, key: str, record: dict[str, Any]) -> None:
        """Store a record under ``key`` in both tiers."""
        self._insert(key, record)
        self.stats.stores += 1
        path = self.path_for(key)
        if path is not None:
            dump_json_file(path, record, checksum=True, fsync=True, site="cache.put")
            if faults.check("cache.disk.corrupt_payload", label=key) is not None:
                _corrupt_payload(path)
            if self.max_disk_entries is not None:
                self._stores_since_prune += 1
                if self._stores_since_prune >= self._PRUNE_EVERY:
                    self._stores_since_prune = 0
                    self.prune_disk()

    def quarantine_key(self, key: str) -> None:
        """Purge ``key`` from both tiers after a failed downstream audit.

        Shadow verification runs *after* a response went out; what it
        can still do is make sure the wrong record is never served
        again: drop the LRU entry and quarantine the disk file so the
        next request recomputes.
        """
        with self._lock:
            self._lru.pop(key, None)
        path = self.path_for(key)
        if path is not None and path.is_file():
            self._quarantine(path)

    def disk_entries(self) -> list[Path]:
        """Every record file in the disk tier (unsorted)."""
        if self.cache_dir is None:
            return []
        objects = self.cache_dir / "objects"
        if not objects.is_dir():
            return []
        return [p for p in objects.glob("*/*.json")]

    def prune_disk(self, max_entries: int | None = None) -> int:
        """Evict the oldest disk records beyond ``max_entries``.

        Serialized across processes through the maintenance lock: the
        scan-then-delete sequence must not interleave with another
        worker's prune, or both could count the same survivors and
        delete past the cap.  A busy lock (another worker is already
        pruning) makes this a no-op — the cap is enforced either way.
        Returns the number of records removed by *this* call.
        """
        limit = self.max_disk_entries if max_entries is None else max_entries
        if self.cache_dir is None or limit is None:
            return 0
        lock = self.maintenance_lock(timeout=0.0)
        if not lock.try_acquire():
            return 0
        try:
            entries = self.disk_entries()
            excess = len(entries) - limit
            if excess <= 0:
                return 0
            # Oldest-mtime first; a record re-written by put() refreshes
            # its mtime, so recency survives process churn well enough.
            def mtime(path: Path) -> float:
                try:
                    return path.stat().st_mtime
                except OSError:  # raced with a concurrent quarantine
                    return 0.0

            removed = 0
            for path in sorted(entries, key=mtime)[:excess]:
                try:
                    path.unlink(missing_ok=True)
                    removed += 1
                except OSError:  # pragma: no cover — best-effort
                    continue
            self.stats.disk_evictions += removed
            return removed
        finally:
            lock.release()

    def shrink(self, fraction: float = 0.5) -> int:
        """Evict the oldest entries, keeping ``fraction`` of the LRU.

        The memory-watchdog relief valve for long-running services:
        records stay on disk (when a disk tier is configured), so a
        shrink trades memory for re-reads, never for recomputes.
        Returns the number of entries evicted.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        evicted = 0
        with self._lock:
            keep = int(len(self._lru) * fraction)
            while len(self._lru) > keep:
                self._lru.popitem(last=False)
                self.stats.evictions += 1
                evicted += 1
        return evicted

    def __len__(self) -> int:
        return len(self._lru)

    def __contains__(self, key: str) -> bool:
        return key in self._lru

    # ------------------------------------------------------------------

    def _audit(
        self, path: Path, record: dict[str, Any], func: "BoolFunc"
    ) -> dict[str, Any] | None:
        """Verify-on-read: maybe re-check a disk record against its spec.

        Sampling is a simple round-robin over disk loads (every
        ``audit_rate``-th; ``audit_rate=1`` audits everything, ``0``
        disables sampling), but a record whose envelope is missing or
        carries a stale solver salt is **always** audited — those are
        exactly the records whose producer this build cannot vouch for.
        Returns the record (envelope refreshed) or None after
        quarantining a failed audit.
        """
        cert = record.get("integrity")
        stale = cert is None or cert.get("solver_salt") != _SOLVER_VERSION
        self._audit_tick += 1
        sampled = self.audit_rate > 0 and self._audit_tick % self.audit_rate == 0
        if not stale and not sampled:
            return record
        self.stats.audited += 1
        try:
            refreshed = check_certificate(record, func, expected_salt=_SOLVER_VERSION)
        except IntegrityError:
            self.stats.audit_mismatches += 1
            self._quarantine(path)
            return None
        record["integrity"] = refreshed
        return record

    def _quarantine(self, path: Path) -> None:
        """Move an unreadable record aside; never raises.

        Taken under the maintenance lock so a quarantine move cannot
        interleave with another worker's prune scan of the same files;
        if the lock is busy (or times out) the move proceeds anyway —
        ``os.replace`` of a single file is atomic, and a concurrent
        prune racing it at worst double-counts one unlinked record.
        """
        self.stats.corrupt += 1
        target_dir = self.quarantine_dir
        if target_dir is None:  # pragma: no cover — disk tier implies a dir
            return
        lock = self.maintenance_lock(timeout=1.0)
        locked = False
        try:
            try:
                lock.acquire()
                locked = True
            except LockTimeout:
                pass
            target_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, target_dir / path.name)
        except OSError:
            try:
                path.unlink(missing_ok=True)
            except OSError:  # pragma: no cover — at worst, leave it be
                pass
        finally:
            if locked:
                lock.release()

    def _insert(self, key: str, record: dict[str, Any]) -> None:
        with self._lock:
            self._lru[key] = record
            self._lru.move_to_end(key)
            while len(self._lru) > self.max_entries:
                self._lru.popitem(last=False)
                self.stats.evictions += 1
