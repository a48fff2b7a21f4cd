"""Tests for the two-tier result cache."""

import random
import sys
import threading

from repro.boolfunc.function import BoolFunc
from repro.engine.cache import ResultCache
from repro.engine.job import _SOLVER_VERSION
from repro.integrity import VERIFIED_FULL, make_certificate
from repro.minimize.exact import minimize_spp
from repro.serialize import form_to_dict


def _record(i):
    return {"kind": "engine_record", "literals": i}


_FUNC = BoolFunc(3, frozenset({0, 3, 5, 6}))
_FORM = minimize_spp(_FUNC).form


def _verified_record(salt=_SOLVER_VERSION):
    cert = make_certificate(
        _FUNC, _FORM, solver_salt=salt, verified=VERIFIED_FULL
    )
    return {
        "kind": "engine_record",
        "literals": _FORM.num_literals,
        "form": form_to_dict(_FORM),
        "integrity": cert,
    }


class TestMemoryTier:
    def test_miss_then_hit(self):
        cache = ResultCache()
        assert cache.get("a" * 64) is None
        cache.put("a" * 64, _record(1))
        assert cache.get("a" * 64) == _record(1)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1

    def test_lru_eviction_order(self):
        cache = ResultCache(max_entries=2)
        cache.put("k1", _record(1))
        cache.put("k2", _record(2))
        cache.get("k1")  # k1 becomes most-recent; k2 is now the LRU
        cache.put("k3", _record(3))
        assert cache.stats.evictions == 1
        assert "k2" not in cache
        assert "k1" in cache and "k3" in cache

    def test_len_tracks_entries(self):
        cache = ResultCache(max_entries=8)
        for i in range(5):
            cache.put(f"k{i}", _record(i))
        assert len(cache) == 5


class TestEvictionAccounting:
    def test_overwrite_same_key_does_not_evict(self):
        cache = ResultCache(max_entries=2)
        cache.put("k1", _record(1))
        cache.put("k1", _record(2))
        assert cache.stats.evictions == 0
        assert len(cache) == 1
        assert cache.get("k1") == _record(2)

    def test_eviction_count_matches_overflow(self):
        cache = ResultCache(max_entries=3)
        for i in range(10):
            cache.put(f"k{i}", _record(i))
        assert len(cache) == 3
        assert cache.stats.stores == 10
        assert cache.stats.evictions == 7  # exactly the overflow

    def test_disk_promotion_can_evict_and_is_counted(self, tmp_path):
        cache = ResultCache(max_entries=1, cache_dir=tmp_path)
        cache.put("k1" * 32, _record(1))
        cache.put("k2" * 32, _record(2))  # evicts k1 from memory
        cache.get("k1" * 32)  # disk hit, promoted: evicts k2
        assert cache.stats.evictions == 2
        assert len(cache) == 1


class TestDiskTier:
    def test_round_trip_across_instances(self, tmp_path):
        first = ResultCache(cache_dir=tmp_path)
        first.put("ab" * 32, _record(7))
        assert first.path_for("ab" * 32).is_file()

        second = ResultCache(cache_dir=tmp_path)
        assert second.get("ab" * 32) == _record(7)
        assert second.stats.disk_hits == 1
        assert second.stats.total_hits == 1
        # Promoted into the LRU: the next get is a memory hit.
        assert second.get("ab" * 32) == _record(7)
        assert second.stats.hits == 1

    def test_eviction_does_not_remove_disk_entry(self, tmp_path):
        cache = ResultCache(max_entries=1, cache_dir=tmp_path)
        cache.put("k1" * 32, _record(1))
        cache.put("k2" * 32, _record(2))  # evicts k1 from memory
        assert cache.stats.evictions == 1
        assert cache.get("k1" * 32) == _record(1)  # served from disk
        assert cache.stats.disk_hits == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        path = cache.path_for("cd" * 32)
        path.parent.mkdir(parents=True)
        path.write_text("{not json", encoding="ascii")
        assert cache.get("cd" * 32) is None
        assert cache.stats.misses == 1

    def test_two_level_fanout_layout(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        key = "fe" * 32
        cache.put(key, _record(1))
        assert (tmp_path / "objects" / "fe" / f"{key}.json").is_file()


class TestQuarantine:
    def test_undecodable_entry_is_quarantined(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        key = "cd" * 32
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text("{torn", encoding="ascii")
        assert cache.get(key) is None
        assert cache.stats.corrupt == 1
        assert not path.exists()  # moved aside, not left to fail again
        assert [p.name for p in cache.quarantine_dir.iterdir()] == [path.name]
        assert "1 corrupt quarantined" in cache.stats.summary()

    def test_checksum_mismatch_is_quarantined(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        key = "ef" * 32
        cache.put(key, _record(5))
        path = cache.path_for(key)
        # Flip the payload underneath the checksum envelope.
        path.write_text(
            path.read_text(encoding="ascii").replace(
                '"literals":5', '"literals":6'
            ),
            encoding="ascii",
        )
        fresh = ResultCache(cache_dir=tmp_path)
        assert fresh.get(key) is None
        assert fresh.stats.corrupt == 1

    def test_recompute_overwrites_after_quarantine(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        key = "ab" * 32
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text("{torn", encoding="ascii")
        assert cache.get(key) is None
        cache.put(key, _record(1))  # the recompute lands cleanly
        assert ResultCache(cache_dir=tmp_path).get(key) == _record(1)


class TestDiskPruning:
    def _fill(self, cache, count, start=0):
        import os
        import time

        for i in range(start, start + count):
            key = format(i, "x").rjust(64, "0")
            cache.put(key, _record(i))
            # Distinct mtimes so "oldest" is well-defined even on
            # coarse-timestamp filesystems.
            stamp = time.time() - (1000 - i)
            os.utime(cache.path_for(key), (stamp, stamp))

    def test_prune_disk_enforces_cap_oldest_first(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path, max_disk_entries=4)
        self._fill(cache, 10)
        removed = cache.prune_disk()
        assert removed == 6
        assert cache.stats.disk_evictions == 6
        survivors = sorted(p.stem for p in cache.disk_entries())
        expected = sorted(format(i, "x").rjust(64, "0") for i in range(6, 10))
        assert survivors == expected
        # Survivors still load cleanly from a fresh process's view.
        fresh = ResultCache(max_entries=1, cache_dir=tmp_path)
        assert fresh.get(expected[-1]) == _record(9)

    def test_prune_noop_under_cap(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path, max_disk_entries=100)
        self._fill(cache, 5)
        assert cache.prune_disk() == 0
        assert len(cache.disk_entries()) == 5

    def test_put_triggers_periodic_prune(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ResultCache, "_PRUNE_EVERY", 8)
        cache = ResultCache(cache_dir=tmp_path, max_disk_entries=3)
        self._fill(cache, 8)  # 8th store crosses the cadence
        assert len(cache.disk_entries()) <= 3
        assert cache.stats.disk_evictions >= 5

    def test_prune_skips_when_lock_busy(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path, max_disk_entries=2)
        self._fill(cache, 6)
        holder = cache.maintenance_lock()
        holder.acquire()
        try:
            assert cache.prune_disk() == 0  # best-effort: skipped, not stuck
            assert len(cache.disk_entries()) == 6
        finally:
            holder.release()
        assert cache.prune_disk() == 4

    def test_shared_dir_between_instances(self, tmp_path):
        """Two caches over one dir: stores visible, prunes coordinated."""
        writer = ResultCache(cache_dir=tmp_path, max_disk_entries=4)
        reader = ResultCache(max_entries=1, cache_dir=tmp_path,
                             max_disk_entries=4)
        self._fill(writer, 6)
        key = format(5, "x").rjust(64, "0")
        assert reader.get(key) == _record(5)
        assert reader.stats.disk_hits == 1
        writer.prune_disk()
        assert len(reader.disk_entries()) == 4

    def test_invalid_cap_rejected(self, tmp_path):
        import pytest

        with pytest.raises(ValueError):
            ResultCache(cache_dir=tmp_path, max_disk_entries=0)


class TestVerifyOnRead:
    KEY = "ab" * 32

    def _disk_cache(self, tmp_path, record, **kwargs):
        """A cache whose memory tier is cold but whose disk holds ``record``."""
        writer = ResultCache(cache_dir=tmp_path)
        writer.put(self.KEY, record)
        return ResultCache(cache_dir=tmp_path, **kwargs)

    def test_sampled_audit_cadence(self, tmp_path):
        cache = self._disk_cache(tmp_path, _verified_record(), audit_rate=2,
                                 max_entries=1)
        for _ in range(4):
            assert cache.get(self.KEY, func=_FUNC) is not None
            cache.put("ff" * 32, _record(0))  # evict KEY from memory
        assert cache.stats.audited == 2  # every 2nd disk load

    def test_audit_disabled_at_rate_zero(self, tmp_path):
        cache = self._disk_cache(tmp_path, _verified_record(), audit_rate=0)
        assert cache.get(self.KEY, func=_FUNC) is not None
        assert cache.stats.audited == 0

    def test_stale_salt_always_audited(self, tmp_path):
        record = _verified_record(salt="some-older-solver")
        cache = self._disk_cache(tmp_path, record, audit_rate=0)
        got = cache.get(self.KEY, func=_FUNC)
        assert got is not None  # still a valid cover: audited, kept
        assert cache.stats.audited == 1
        assert cache.stats.audit_mismatches == 0

    def test_previous_generation_salt_is_stale(self, tmp_path):
        """Records written by earlier builds (salts ``mincov-2``,
        ``genkernels-3`` and ``delta-4``) must be treated as salt-stale
        under ``canon-5``: always re-audited on read, never served on
        the producer's word alone."""
        assert _SOLVER_VERSION == "canon-5"
        for stale_salt in ("mincov-2", "genkernels-3", "delta-4"):
            cache_dir = tmp_path / stale_salt
            record = _verified_record(salt=stale_salt)
            cache = self._disk_cache(cache_dir, record, audit_rate=0)
            got = cache.get(self.KEY, func=_FUNC)
            assert got is not None  # the form still covers: audited, kept
            assert cache.stats.audited == 1
            # The envelope keeps the producer's salt (provenance is never
            # rewritten), so every *disk* read of an old-build record
            # stays forced through the audit.
            assert got["integrity"]["solver_salt"] == stale_salt
            fresh = ResultCache(cache_dir=cache_dir, audit_rate=0)
            assert fresh.get(self.KEY, func=_FUNC) is not None
            assert fresh.stats.audited == 1

    def test_missing_envelope_always_audited(self, tmp_path):
        record = _verified_record()
        del record["integrity"]
        cache = self._disk_cache(tmp_path, record, audit_rate=0)
        assert cache.get(self.KEY, func=_FUNC) is not None
        assert cache.stats.audited == 1

    def test_no_func_no_audit(self, tmp_path):
        cache = self._disk_cache(tmp_path, _verified_record(), audit_rate=1)
        assert cache.get(self.KEY) is not None
        assert cache.stats.audited == 0

    def test_mismatch_quarantines_and_misses(self, tmp_path):
        record = _verified_record()
        record["literals"] += 1  # lie about the cost
        cache = self._disk_cache(tmp_path, record, audit_rate=1)
        assert cache.get(self.KEY, func=_FUNC) is None
        assert cache.stats.audit_mismatches == 1
        assert cache.stats.corrupt == 1
        assert list(cache.quarantine_dir.iterdir())

    def test_quarantine_key_purges_both_tiers(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        cache.put(self.KEY, _verified_record())
        cache.quarantine_key(self.KEY)
        assert cache.get(self.KEY) is None
        assert list(cache.quarantine_dir.iterdir())

    def test_audit_counters_in_summary(self, tmp_path):
        record = _verified_record()
        record["literals"] += 1
        cache = self._disk_cache(tmp_path, record, audit_rate=1)
        cache.get(self.KEY, func=_FUNC)
        assert "audit" in cache.stats.summary()


class TestThreadSafety:
    def test_concurrent_gets_and_puts_keep_the_lru_consistent(self):
        """A service's request threads share one cache: four threads
        hammering a 4-entry LRU over 8 keys (so nearly every put evicts
        what another thread is about to touch) must neither raise nor
        hand back another key's record, and the LRU stays in bounds."""
        cache = ResultCache(max_entries=4)
        keys = [f"{i:064x}" for i in range(8)]
        barrier = threading.Barrier(4)
        errors = []

        def run(seed):
            rng = random.Random(seed)
            barrier.wait(timeout=30)
            try:
                for _ in range(200_000):
                    key = rng.choice(keys)
                    record = cache.get(key)
                    if record is None:
                        cache.put(key, {"key": key})
                    elif record["key"] != key:
                        errors.append((key, record))
                        return
            except Exception as exc:  # noqa: BLE001 — the race raises
                errors.append(repr(exc))

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside each call
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(cache) <= 4
