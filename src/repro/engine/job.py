"""The unit of work: one minimization of one Boolean function.

A :class:`Job` pairs a :class:`~repro.boolfunc.function.BoolFunc` with
a method and its parameters, and derives a **content hash**: a SHA-256
over the canonical truth table (sorted on/dc point lists) and the
*normalized* options — only the parameters the chosen method actually
reads participate, so an exact job hashes identically no matter what
stray ``k`` or ``bound`` rode along.  The hash is the key for the
result cache and the batch manifest: two jobs with equal hashes are
guaranteed to describe the same computation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from repro.boolfunc.function import BoolFunc
from repro.serialize import canonical_dumps

__all__ = ["Job", "METHODS", "COVERINGS", "BACKENDS", "job_to_dict", "job_from_dict"]

METHODS = ("exact", "bounded", "heuristic", "sp")
COVERINGS = ("greedy", "exact", "auto")
BACKENDS = ("index", "trie")  # EPPP store of the exact and bounded rungs

_HASH_VERSION = 2

# Salt identifying the solver generation.  Bump whenever an algorithm
# change can alter results for identical inputs (e.g. a different
# covering heuristic), so stale cache entries from older builds are
# never served as if they came from the current solver.
_SOLVER_VERSION = "canon-5"


@dataclass(frozen=True)
class Job:
    """One minimization request.

    ``label`` is informational (progress lines, manifests) and does not
    participate in the content hash.
    """

    func: BoolFunc
    method: str = "exact"
    k: int = 0
    bound: int = 2
    covering: str = "greedy"
    backend: str = "index"
    max_pseudoproducts: int | None = None
    label: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        """Reject a bad value of any option the method reads, so every
        caller (CLI, HTTP payload, record replay) fails here, not inside
        a rung the ladder would then degrade past."""
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.covering not in COVERINGS:
            raise ValueError(f"covering must be one of {COVERINGS}, not {self.covering!r}")
        if self.method in ("exact", "bounded"):
            if self.backend not in BACKENDS:
                raise ValueError(f"backend must be one of {BACKENDS}, not {self.backend!r}")
            cap = self.max_pseudoproducts
            if cap is not None and (isinstance(cap, bool) or not isinstance(cap, int)):
                raise ValueError(f"max_pseudoproducts must be an integer, not {cap!r}")
        if self.method == "bounded" and self.bound < 1:
            raise ValueError(f"bound must be at least 1, not {self.bound}")

    def normalized_params(self) -> dict[str, Any]:
        """The parameters the method reads, and only those."""
        params: dict[str, Any] = {"covering": self.covering}
        if self.method in ("exact", "bounded"):
            params["backend"] = self.backend
            params["max_pseudoproducts"] = self.max_pseudoproducts
        if self.method == "heuristic":
            params["k"] = self.k
        elif self.method == "bounded":
            params["bound"] = self.bound
        return params

    @cached_property
    def content_hash(self) -> str:
        """SHA-256 over the canonical truth table, normalized options,
        and the solver-version salt."""
        payload = canonical_dumps(
            {
                "version": _HASH_VERSION,
                "solver": _SOLVER_VERSION,
                "n": self.func.n,
                "on": sorted(self.func.on_set),
                "dc": sorted(self.func.dc_set),
                "method": self.method,
                "params": self.normalized_params(),
            }
        )
        return hashlib.sha256(payload.encode("ascii")).hexdigest()

    @property
    def display_label(self) -> str:
        return self.label or f"f(n={self.func.n},|on|={len(self.func.on_set)})"


def job_to_dict(job: Job) -> dict[str, Any]:
    """Job metadata as stored in records (without the truth table)."""
    return {
        "hash": job.content_hash,
        "label": job.label,
        "method": job.method,
        "params": job.normalized_params(),
        "n": job.func.n,
        "num_on": len(job.func.on_set),
    }


def job_from_dict(func: BoolFunc, data: dict[str, Any]) -> Job:
    """Rebuild a Job from record metadata plus its function."""
    params = data.get("params", {})
    return Job(
        func=func,
        method=data["method"],
        k=params.get("k", 0),
        bound=params.get("bound", 2),
        covering=params.get("covering", "greedy"),
        backend=params.get("backend", "index"),
        max_pseudoproducts=params.get("max_pseudoproducts"),
        label=data.get("label", ""),
    )
