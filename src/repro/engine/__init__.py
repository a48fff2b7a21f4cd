"""repro.engine — parallel batch minimization engine.

The paper's experiments are embarrassingly parallel sweeps (every
output of every benchmark, every ``k``) over minimizations that are
individually expensive and occasionally explosive (EPPP generation on
hard functions).  This package supplies the execution layer those
workloads need:

* :mod:`repro.engine.job` — a :class:`Job` describes one minimization
  (function + method + normalized params) and derives a canonical
  content hash from the truth table, so identical work is recognizable
  across entry points;
* :mod:`repro.engine.cache` — a content-addressed result cache
  (in-memory LRU + optional on-disk JSON store) with hit/miss/eviction
  counters;
* :mod:`repro.engine.ladder` — the degradation ladder
  (exact → bounded → heuristic ``SPP_0`` → two-level SP) walked when a
  rung exceeds its deadline or memory budget;
* :mod:`repro.engine.scheduler` — a worker-pool scheduler on
  :class:`concurrent.futures.ProcessPoolExecutor` that fans a batch of
  jobs across cores and enforces per-job deadlines;
* :mod:`repro.engine.batch` — per-job manifest records (atomic,
  checksummed, journal-backed) making an interrupted batch resumable
  even after a hard kill.

Failure behaviour — crash supervision, poison-job quarantine, corrupt
record quarantine — is exercised on demand through the deterministic
fault-injection hooks of :mod:`repro.faults`.
"""

from repro._lazy import lazy_exports

__all__ = [
    "BatchResult",
    "CacheStats",
    "DeadlineExceeded",
    "FileLock",
    "Job",
    "LockTimeout",
    "JobOutcome",
    "Manifest",
    "ResultCache",
    "Rung",
    "SOURCE_CACHE",
    "SOURCE_CANCELLED",
    "SOURCE_COMPUTED",
    "SOURCE_FAILED",
    "SOURCE_MANIFEST",
    "SOURCE_QUARANTINED",
    "execute_rung",
    "job_from_dict",
    "job_to_dict",
    "ladder_for",
    "parallel_map",
    "run_batch",
]

# Imported on first access: importing ``repro.engine.job`` runs this
# file, and the cluster coordinator needs that module without the
# scheduler, the ladder or the minimizers.
__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.engine.batch": (
            "SOURCE_CACHE", "SOURCE_CANCELLED", "SOURCE_COMPUTED", "SOURCE_FAILED",
            "SOURCE_MANIFEST", "SOURCE_QUARANTINED", "BatchResult", "JobOutcome",
            "Manifest",
        ),
        "repro.engine.cache": ("CacheStats", "ResultCache"),
        "repro.engine.job": ("Job", "job_from_dict", "job_to_dict"),
        "repro.engine.ladder": ("Rung", "execute_rung", "ladder_for"),
        "repro.engine.lockfile": ("FileLock", "LockTimeout"),
        "repro.engine.scheduler": ("DeadlineExceeded", "parallel_map", "run_batch"),
    },
)
