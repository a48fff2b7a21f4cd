"""Per-layer numbers from the traced run's spans and ``/stats`` deltas.

Times are milliseconds per measured request: the summed self time of a
layer's spans inside the measured window, divided by the requests the
client sent.  Self times on a request thread partition that thread's
root span, so the request-path layers add up to the time the
coordinator spent in ``handle_minimize``; ``unattributed_ms`` is what
the client waited beyond that sum (the client-to-coordinator HTTP
exchange, which no layer function covers).  Shadow verification runs
on its own thread after the response; it is reported beside the
request path, not in it.

Cross-process gaps are differences of sums, because the coordinator
sends its exchanges from the hedge pool thread: ``cluster.self_ms`` is
``handle_minimize`` minus routing and the upstream attempt,
``serve.http_ms`` is every proxy exchange minus the worker
``handle_minimize`` it caused (the loopback HTTP hop), and
``cluster.hedge_ms`` is the upstream attempt minus its exchanges: the
thread hand-off, less the duplicate exchanges of hedged requests, whose
worker time the worker layers carry (negative when hedges fire).
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

# metric -> span whose self time it reports (worker request path)
WORKER_SELF = {
    "serve.handle_self_ms": "serve.handle",
    "serve.admission_wait_ms": "serve.admission_wait",
    "engine.batch_self_ms": "engine.batch",
    "engine.rung_self_ms": "engine.rung",
    "engine.cache_get_ms": "engine.cache_get",
    "engine.cache_put_ms": "engine.cache_put",
    "delta.lookup_ms": "delta.lookup",
    "delta.capture_ms": "delta.capture",
    "delta.warm_ms": "delta.warm",
    "eppp.generate_ms": "eppp.generate",
    "coverage.build_ms": "coverage.build",
    "covering.solve_ms": "covering.solve",
    "bounded.minimize_ms": "bounded.minimize",
    "heuristic.minimize_ms": "heuristic.minimize",
    "sp.minimize_ms": "sp.minimize",
    "verify.ms": "verify",
    "integrity.certificate_ms": "integrity.certificate",
    "integrity.audit_ms": "integrity.audit",
}
RUNGS = ("exact", "bounded-2", "heuristic-k0", "heuristic-k1", "sp")
DEGREES = 7  # eppp.step_ms.d0 .. d6 (d6 also holds any higher degree)

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: list[tuple[str, str, str]] = [
    ("cluster.route_ms", "ms", "lower"),
    ("cluster.self_ms", "ms", "lower"),
    ("cluster.hedge_ms", "ms", "lower"),
    ("cluster.hedges_per_req", "1/req", "lower"),
    ("cluster.hedge_win_ratio", "ratio", "higher"),
    ("cluster.hedges", "count", "lower"),
    ("cluster.failovers", "count", "lower"),
    ("serve.http_ms", "ms", "lower"),
    ("serve.shadow_ms", "ms", "lower"),
    ("serve.shadow_count", "count", "lower"),
    ("serve.sheds", "count", "lower"),
    *[(m, "ms", "lower") for m in WORKER_SELF],
    *[(f"engine.rung_ms.{r}", "ms", "lower") for r in RUNGS],
    ("engine.cache_hit_ratio", "ratio", "higher"),
    ("engine.cache_hits", "count", "higher"),
    ("engine.cache_misses", "count", "lower"),
    ("engine.cache_audits", "count", "lower"),
    ("engine.degraded_frac", "ratio", "lower"),
    ("delta.lookups", "count", "lower"),
    ("delta.warm_hits", "count", "higher"),
    ("delta.warm_hit_ratio", "ratio", "higher"),
    ("delta.fallbacks", "count", "lower"),
    ("delta.fallback.edit-too-large", "count", "lower"),
    ("delta.fallback.care-set-changed", "count", "lower"),
    ("delta.fallback.other", "count", "lower"),
    *[(f"eppp.step_ms.d{d}", "ms", "lower") for d in range(DEGREES)],
    ("eppp.pseudoproducts", "count", "lower"),
    ("eppp.retained_ratio", "ratio", "lower"),
    ("coverage.columns", "count", "lower"),
    ("covering.core_columns", "count", "lower"),
    ("bounded.pseudoproducts", "count", "lower"),
    ("unattributed_ms", "ms", "lower"),
    ("trace.untraced_p50_ms", "ms", "lower"),
    ("trace.traced_p50_ms", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
]


def load_spans(trace_dir: Path) -> list[tuple]:
    spans = []
    for path in sorted(trace_dir.glob("*.json")):
        spans.extend(tuple(s) for s in json.loads(path.read_text())["spans"])
    return spans


def stats_delta(before: dict, after: dict) -> dict[str, float]:
    """Counter deltas of the measured phase, summed over workers."""
    out: dict[str, float] = defaultdict(float)
    c0, c1 = before["coordinator"]["counters"], after["coordinator"]["counters"]
    for key in ("hedges", "hedge_wins", "failovers"):
        out[f"cluster.{key}"] = c1[key] - c0[key]
    for w0, w1 in zip(before["workers"], after["workers"]):
        k0, k1 = w0["cache"]["counters"], w1["cache"]["counters"]
        out["cache.hits"] += k1["hits"] + k1["disk_hits"] - k0["hits"] - k0["disk_hits"]
        out["cache.misses"] += k1["misses"] - k0["misses"]
        out["cache.audits"] += k1["audited"] - k0["audited"]
        out["shadow.verified"] += w1["shadow"]["verified"] - w0["shadow"]["verified"]
        out["sheds"] += w1["admission"]["shed"] - w0["admission"]["shed"]
        d0, d1 = w0.get("delta") or {}, w1.get("delta") or {}
        for key in ("lookups", "warm_hits", "fallbacks"):
            out[f"delta.{key}"] += d1.get(key, 0) - d0.get(key, 0)
        r0 = d0.get("fallback_reasons", {})
        for reason, count in d1.get("fallback_reasons", {}).items():
            out[f"delta.reason.{reason}"] += count - r0.get(reason, 0)
    return dict(out)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: list[tuple],
    window: tuple[float, float],
    requests: int,
    service_ms: float,
    stats: dict[str, float],
) -> tuple[dict[str, float], list[tuple[str, float]]]:
    """Per-layer metrics plus the request-path layers ranked by self time.

    ``service_ms`` is the client's mean latency (send to answer).
    """
    lo, hi = window
    dur: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    rung_ms: dict[str, list[float]] = defaultdict(list)
    steps = [0.0] * DEGREES
    counts: dict[str, float] = defaultdict(float)
    for name, root, start, d, s, extra in spans:
        if not lo <= start <= hi:
            continue
        if root == "serve.shadow" and name != "serve.shadow":
            continue  # off the request path; counted inside serve.shadow
        dur[name] += d
        own[name] += s
        calls[name] += 1
        if extra is None:
            continue
        if name == "engine.rung":
            rung_ms[extra["rung"]].append(d)
        elif name == "eppp.generate":
            counts["eppp.pp"] += extra["pseudoproducts"]
            counts["eppp.kept"] += extra["eppps"]
            for key, sec in extra["steps"].items():
                steps[min(int(key[1:]), DEGREES - 1)] += sec
        elif name == "coverage.build":
            counts["columns"] += extra["columns"]
        elif name == "covering.solve":
            counts["core"] += extra["core_columns"]
            counts["core.n"] += 1
        elif name == "bounded.minimize":
            counts["bounded.pp"] += extra["pseudoproducts"]
    per = 1000.0 / max(requests, 1)
    m: dict[str, float] = {}
    m["cluster.route_ms"] = dur["cluster.route"] * per
    m["cluster.self_ms"] = (
        dur["cluster.handle"] - dur["cluster.route"] - dur["cluster.upstream"]
    ) * per
    m["cluster.hedge_ms"] = (dur["cluster.upstream"] - dur["cluster.proxy"]) * per
    m["serve.http_ms"] = (dur["cluster.proxy"] - dur["serve.handle"]) * per
    for metric, span in WORKER_SELF.items():
        m[metric] = own[span] * per
    path = ["cluster.route_ms", "cluster.self_ms", "cluster.hedge_ms",
            "serve.http_ms", *WORKER_SELF]
    m["unattributed_ms"] = service_ms - sum(m[k] for k in path)
    ranked = sorted(((k, m[k]) for k in [*path, "unattributed_ms"]),
                    key=lambda kv: -kv[1])
    m["serve.shadow_ms"] = dur["serve.shadow"] * per
    hedges = stats["cluster.hedges"]
    m["cluster.hedges"] = hedges
    m["cluster.hedges_per_req"] = _ratio(hedges, requests)
    m["cluster.hedge_win_ratio"] = _ratio(stats["cluster.hedge_wins"], hedges)
    m["cluster.failovers"] = stats["cluster.failovers"]
    m["serve.shadow_count"] = stats["shadow.verified"]
    m["serve.sheds"] = stats["sheds"]
    for rung in RUNGS:
        runs = rung_ms.get(rung, [])
        m[f"engine.rung_ms.{rung}"] = _ratio(sum(runs) * 1000.0, len(runs))
    hits, misses = stats["cache.hits"], stats["cache.misses"]
    m["engine.cache_hits"] = hits
    m["engine.cache_misses"] = misses
    m["engine.cache_hit_ratio"] = _ratio(hits, hits + misses)
    m["engine.cache_audits"] = stats["cache.audits"]
    for key in ("lookups", "warm_hits", "fallbacks"):
        m[f"delta.{key}"] = stats[f"delta.{key}"]
    m["delta.warm_hit_ratio"] = _ratio(stats["delta.warm_hits"], stats["delta.lookups"])
    reasons = {k[len("delta.reason."):]: v for k, v in stats.items()
               if k.startswith("delta.reason.")}
    for reason in ("edit-too-large", "care-set-changed"):
        m[f"delta.fallback.{reason}"] = reasons.pop(reason, 0.0)
    m["delta.fallback.other"] = sum(reasons.values())
    for d in range(DEGREES):
        m[f"eppp.step_ms.d{d}"] = steps[d] * per
    m["eppp.pseudoproducts"] = _ratio(counts["eppp.pp"], calls["eppp.generate"])
    m["eppp.retained_ratio"] = _ratio(counts["eppp.kept"], counts["eppp.pp"])
    m["coverage.columns"] = _ratio(counts["columns"], calls["coverage.build"])
    m["covering.core_columns"] = _ratio(counts["core"], counts["core.n"])
    m["bounded.pseudoproducts"] = _ratio(counts["bounded.pp"], calls["bounded.minimize"])
    return m, ranked
