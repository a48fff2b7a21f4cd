"""Serving benchmark: full-width SPP minimization through the cluster.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-exact --seed 1 --seconds 40 --trace 0

Each run builds its inputs from ``--seed`` (see ``workloads.py``), starts
a fresh ``python -m repro cluster --workers 2`` with a fresh cache
directory, warms it up, and drives the measured phase over HTTP from
this process as a closed loop over one connection.  Every answer is checked
independently (``check.py``).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, measured at the client
with no tracing: ``setup_s`` is the median of ``SETUPS`` launches, each
timed from process start to ``/readyz`` plus the warm-up pass; the last
launch serves the measured phase.

``--trace 1`` runs the workload twice, once plainly and once on the
traced host (``tracehost.py``), and reports the per-layer metrics of
``attribution.py``, the ``/stats`` counter deltas of the measured phase,
and the tracing overhead (traced minus untraced ``latency_p50_ms``); it
also prints the request-path layers ranked by self time.

Scratch files (cache directories, logs, traces) live under
``.perfbench/`` in the repository root and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUPS = 3

END_TO_END = [
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("cpu_ms_per_req", "ms"),
    ("peak_rss_mb", "MB"),
    ("literals_total", "count"),
    ("ok_frac", "ratio"),
    ("setup_s", "s"),
]


@dataclass
class Phase:
    """What one measured phase produced, already judged."""

    attempted: int
    failed: int
    errors: list[str]
    latency_ms: list[float]   # ok requests of whole rounds, send to answer
    by_kind: dict[str, list[float]]
    throughput_rps: float
    cpu_ms_per_req: float
    peak_rss_mb: float
    literals_total: int
    degraded_frac: float
    window: tuple[float, float]
    before: dict
    after: dict


def _p(values: list[float], q: int) -> float:
    """q-th percentile (inclusive interpolation); 0.0 without samples."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _judge(outcome, request) -> tuple[str | None, dict | None]:
    from check import check_answer

    if outcome.status != 200:
        return f"HTTP {outcome.status or 'transport error'}", None
    try:
        body = json.loads(outcome.data)
        results = body["results"]
    except (ValueError, KeyError, TypeError):
        return "undecodable response", None
    if not body.get("ok") or len(results) != 1:
        return "response not ok", None
    entry = results[0]
    why = check_answer(entry, request.n, request.on_mask, request.off_mask, request.rung)
    return why, entry


def _warm(cluster, workload) -> list[str]:
    """Send the warm-up requests; returns the reasons any answer failed."""
    from driver import closed_loop

    requests = workload.warmup
    errors = []
    outcomes, _, _ = closed_loop(cluster.port, [r.body for r in requests], 0.0, len(requests))
    for outcome in outcomes:
        why, _ = _judge(outcome, requests[outcome.index])
        if why is not None:
            errors.append(f"warm-up #{outcome.index}: {why}")
    return errors


def _setup(workdir: Path, workload, *, trace_dir=None) -> tuple[object, float, list[str]]:
    from driver import Cluster

    workdir.mkdir(parents=True)
    cluster = Cluster(ROOT, workdir, trace_dir=trace_dir)
    try:
        t0 = time.monotonic()
        cluster.start()
        errors = _warm(cluster, workload)
        seconds = time.monotonic() - t0
    except BaseException:
        cluster.stop()
        raise
    return cluster, seconds, errors


def _measure(cluster, workload, seconds: float) -> Phase:
    from driver import closed_loop, cpu_seconds, peak_rss_mb

    before = cluster.snapshot()
    pids = cluster.pids()
    cpu0 = cpu_seconds(pids)
    reqs = workload.measured
    outcomes, start, end = closed_loop(
        cluster.port, [r.body for r in reqs], seconds, workload.quality
    )
    last = max(o.done for o in outcomes)
    cpu = cpu_seconds(pids) - cpu0
    after = cluster.snapshot()
    rss = peak_rss_mb(pids)
    # Latency counts whole rounds (cycles) only, so every function of the
    # round weighs the same in the percentiles whatever the run reached.
    complete = len(outcomes) // workload.quality * workload.quality
    errors, latency = [], []
    by_kind: dict[str, list[float]] = {}
    literals = degraded = ok = 0
    for outcome in outcomes:
        why, entry = _judge(outcome, reqs[outcome.index])
        if why is not None:
            errors.append(f"#{outcome.index} ({reqs[outcome.index].kind}): {why}")
            continue
        ok += 1
        degraded += bool(entry.get("degraded"))
        if outcome.index < workload.quality:
            literals += entry["literals"]
        if outcome.index < complete:
            ms = (outcome.done - outcome.sent) * 1000.0
            latency.append(ms)
            by_kind.setdefault(reqs[outcome.index].kind, []).append(ms)
    # Completions inside the window over the time they took, so the
    # rate is not quantized to whole requests per window.
    in_window = [o.done for o in outcomes if o.done <= end]
    return Phase(
        attempted=len(outcomes),
        failed=len(errors),
        errors=errors,
        latency_ms=latency,
        by_kind=by_kind,
        throughput_rps=len(in_window) / (max(in_window) - start),
        cpu_ms_per_req=cpu * 1000.0 / len(outcomes),
        peak_rss_mb=rss,
        literals_total=literals,
        degraded_frac=degraded / ok if ok else 0.0,
        window=(start, last),
        before=before,
        after=after,
    )


def _end_to_end(phase: Phase, setup_s: float) -> dict[str, float]:
    return {
        "latency_p50_ms": _p(phase.latency_ms, 50),
        "latency_p95_ms": _p(phase.latency_ms, 95),
        "throughput_rps": phase.throughput_rps,
        "cpu_ms_per_req": phase.cpu_ms_per_req,
        "peak_rss_mb": phase.peak_rss_mb,
        "literals_total": float(phase.literals_total),
        "ok_frac": (phase.attempted - phase.failed) / phase.attempted,
        "setup_s": setup_s,
    }


def _report_phase(label: str, phase: Phase) -> None:
    print(f"[{label}] {phase.attempted} requests, {phase.failed} failed "
          f"(failed_frac {phase.failed / phase.attempted:.4f}), "
          f"{len(phase.latency_ms)} latency samples")
    for kind, values in sorted(phase.by_kind.items()):
        print(f"  {kind:<14} n={len(values):<5} p50 {_p(values, 50):9.2f} ms"
              f"  p95 {_p(values, 95):9.2f} ms  max {max(values):9.2f} ms")
    for line in phase.errors[:10]:
        print(f"  FAILED {line}")


def run_untraced(
    workload, seconds: float, work: Path, launches: int
) -> tuple[dict, Phase, list[str]]:
    setups, errors = [], []
    cluster = None
    try:
        for i in range(launches):
            cluster, took, warm_errors = _setup(work / f"setup{i}", workload)
            setups.append(took)
            errors += warm_errors
            if i < launches - 1:
                cluster.stop()
        phase = _measure(cluster, workload, seconds)
    finally:
        if cluster is not None:
            cluster.stop()
    print("setup_s samples: " + ", ".join(f"{s:.3f}" for s in setups))
    return _end_to_end(phase, statistics.median(setups)), phase, errors


def run_traced(workload, seconds: float, work: Path):
    """Returns (per-layer metrics, ranked layers, /stats counter deltas,
    phase, warm-up errors)."""
    from attribution import layer_metrics, load_spans, stats_delta

    trace_dir = work / "trace"
    trace_dir.mkdir(parents=True)
    cluster, _, errors = _setup(work / "traced", workload, trace_dir=trace_dir)
    try:
        phase = _measure(cluster, workload, seconds)
    finally:
        cluster.stop()  # the hosts write their spans on exit
    spans = load_spans(trace_dir)
    stats = stats_delta(phase.before, phase.after)
    metrics, ranked = layer_metrics(
        spans, phase.window, phase.attempted,
        statistics.fmean(phase.latency_ms) if phase.latency_ms else 0.0,
        stats,
    )
    metrics["engine.degraded_frac"] = phase.degraded_frac
    return metrics, ranked, stats, phase, errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro source tree under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS, build, pool_tables

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = build(args.workload, args.seed, args.seconds, pool_tables())
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}", flush=True)
    try:
        launches = 1 if args.trace else SETUPS
        metrics, phase, errors = run_untraced(workload, args.seconds, work, launches)
        _report_phase("untraced", phase)
        attempted, failed = phase.attempted, phase.failed
        for name, unit in END_TO_END:
            print(f"  {name:<16} {metrics[name]:>12.4f} {unit}")
        if args.trace:
            from attribution import PER_LAYER

            layers, ranked, stats, traced, trace_errors = run_traced(
                workload, args.seconds, work
            )
            _report_phase("traced", traced)
            errors += trace_errors
            attempted += traced.attempted
            failed += traced.failed
            layers["trace.untraced_p50_ms"] = metrics["latency_p50_ms"]
            layers["trace.traced_p50_ms"] = _p(traced.latency_ms, 50)
            layers["trace.overhead_ms"] = (
                layers["trace.traced_p50_ms"] - metrics["latency_p50_ms"]
            )
            print("request-path layers by self time (ms per request):")
            for name, value in ranked:
                print(f"  {name:<28} {value:>10.3f}")
            absent = [name for name, _, _ in PER_LAYER if layers[name] == 0]
            if absent:
                print("reads 0 on this run: " + ", ".join(absent))
            print("/stats counter deltas of the measured phase: " + ", ".join(
                f"{key}={value:g}" for key, value in sorted(stats.items())))
            out = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
        else:
            out = {name: {"value": metrics[name], "unit": unit}
                   for name, unit in END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench").rmdir()
        except OSError:
            pass
    for line in errors[:10]:
        print(f"  FAILED {line}")
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted + len(workload.warmup) * (launches + args.trace),
        "failed": failed + len(errors),
        "metrics": out,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
