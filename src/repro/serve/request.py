"""The ``POST /minimize`` request decoder both serving tiers call.

The worker (:class:`repro.serve.server.MinimizeService`) expands a body
into the engine jobs it runs; the cluster coordinator
(:class:`repro.cluster.coordinator.ClusterCoordinator`) expands the same
body to hash its routing key.  Both go through :func:`jobs_from_payload`,
so a malformed body gets the same 400 from either tier.

This module imports no solver: it stops at the function and PLA types,
:class:`~repro.engine.job.Job`, the benchmark registry, the error
taxonomy and the metric types, so the coordinator decodes and routes
without loading numpy or the minimizers (only the worker's near-duplicate
form reaches :mod:`repro.delta`).

Each process keeps one parse memo: a PLA text it has parsed before is
not parsed again.  Before a text is parsed, the decoder counts the
points its cubes, headers and outputs expand to (:meth:`PlaBody.points`,
which charges every output at least 16 points, what building it costs)
and refuses one over :data:`MAX_REQUEST_POINTS` with a
:class:`~repro.errors.UsageError` (400 ``usage``): a few dozen bytes can
describe millions of points, and the coordinator would pay for them
before any worker saw the request.
"""

from __future__ import annotations

import math
import sys
import threading
from collections import OrderedDict
from dataclasses import replace
from typing import Any

from repro.bench.suite import BENCHMARKS, get_benchmark
from repro.boolfunc.function import MultiBoolFunc
from repro.boolfunc.pla import read_pla
from repro.engine.job import Job
from repro.errors import UsageError
from repro.serve.metrics import Metric

__all__ = [
    "MAX_REQUEST_POINTS",
    "jobs_from_payload",
    "parse_memo_metrics",
    "parse_memo_stats",
]

# The most points a request PLA may expand to (see PlaBody.points): one
# all-dash cube over 16 inputs fits, one over 17 inputs does not.
MAX_REQUEST_POINTS = 1 << 17

# The parse memo below keeps at most _PARSE_MEMO_ENTRIES parsed PLA
# texts per process, each an ASCII text of at most _PARSE_MEMO_MAX_TEXT
# bytes whose parsed function holds at most _PARSE_MEMO_MAX_HELD bytes:
# a short text can describe a large function (".i 16" and one all-dash
# cube is 33 bytes and 65,536 points, about 6 MiB parsed).  Any other
# text is parsed on every request.
_PARSE_MEMO_ENTRIES = 64
_PARSE_MEMO_MAX_TEXT = 64 * 1024
_PARSE_MEMO_MAX_HELD = 256 * 1024


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
    tables = sum(sys.getsizeof(f.on_set) + sys.getsizeof(f.dc_set) for f in func)
    points = sum(len(f.on_set) + len(f.dc_set) for f in func)
    # No points, no integer: a rowless text's ``.i`` may be huge.
    return tables + (points and points * sys.getsizeof((1 << func.n) - 1))


class _ParseMemo:
    """The functions of request PLA texts this process has parsed, an
    LRU keyed on the text, not the body, so an exact repeat and a
    near-duplicate over a seen base both hit.  Parsed functions are
    frozen, so every caller can share one.  A
    :class:`~repro.boolfunc.pla.PlaError` or an over-large text is never
    kept; every lookup counts as one hit or one miss (a parse)."""

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
        body = read_pla(text, name="request")
        points = body.points()  # counted before any cube is expanded
        if points > MAX_REQUEST_POINTS:
            raise UsageError(
                f"PLA text expands to {points:,} points; a request may hold "
                f"at most {MAX_REQUEST_POINTS:,}"
            )
        func = body.function()
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

    The worker runs the jobs; the cluster coordinator only hashes them
    into its routing key, and loads no solver to do so.  A PLA text
    this process has parsed before is not parsed again (see
    :func:`parse_memo_stats`).  Raises :class:`UsageError` on malformed
    payloads, and on a PLA text that expands to more than
    :data:`MAX_REQUEST_POINTS` points.

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
