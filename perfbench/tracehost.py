"""Traced host for the benchmark's per-layer run.

``python tracehost.py cluster ARGS`` behaves like ``python -m repro
cluster ARGS``, and ``python tracehost.py serve ARGS`` like ``python -m
repro serve ARGS`` (the coordinator launches its workers through this
file too), after wrapping the public functions of each layer in spans.
Nothing inside ``src/`` changes: the wrappers replace module and class
attributes in the host process, including the copies other modules made
with ``from ... import``.

Each span records its name, the root span of its thread, its start
(``time.monotonic``, comparable across processes), its duration, its
self time (duration minus the spans nested in it on the same thread)
and a few counts read off the call's result.  The spans stay in memory
and are written to ``$PERFBENCH_TRACE_DIR/<role>-<pid>.json`` when the
process exits.
"""

from __future__ import annotations

import atexit
import json
import os
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._local = threading.local()

    def wrap(self, fn, name, counts=None):
        """``fn`` timed as span ``name``; ``counts(result, args)`` may
        return a dict of numbers recorded with the span."""
        local = self._local
        spans = self.spans

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            frame = [name, 0.0]
            stack.append(frame)
            start = time.monotonic()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                dur = time.monotonic() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                root = stack[0][0] if stack else name
                extra = counts(result, args) if ok and counts is not None else None
                spans.append((name, root, start, dur, dur - frame[1], extra))

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"pid": os.getpid(), "spans": list(self.spans)}))


TRACER = Tracer()


def _patch(owner, attr: str, name: str, counts=None) -> None:
    """Replace ``owner.attr`` by its traced version everywhere in ``repro``."""
    orig = getattr(owner, attr)
    traced = TRACER.wrap(orig, name, counts)
    setattr(owner, attr, traced)
    if isinstance(owner, type):
        return
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and \
                getattr(module, attr, None) is orig:
            setattr(module, attr, traced)


def _generation_counts(result, args):
    steps = {}
    for step in result.steps:
        key = f"d{step.degree}"
        steps[key] = steps.get(key, 0.0) + step.seconds
    return {
        "pseudoproducts": sum(s.pseudoproducts for s in result.steps),
        "eppps": len(result.eppps),
        "steps": steps,
    }


def _solve_counts(result, args):
    stats = result.stats
    return {"core_columns": stats.core_columns} if stats is not None else None


def _bounded_counts(result, args):
    steps = result.generation.steps if result.generation is not None else ()
    return {"pseudoproducts": sum(s.pseudoproducts for s in steps)}


def instrument_worker() -> None:
    """Spans around the serve, engine, delta and algorithm layers."""
    from repro import delta, integrity, verify
    from repro.delta.index import DeltaIndex
    from repro.engine import ladder, scheduler
    from repro.engine.cache import ResultCache
    from repro.kernels import coverage
    # exact is imported so its `from ... import` copies exist to rebind.
    from repro.minimize import bounded, covering, eppp, exact, heuristic, sp  # noqa: F401
    from repro.serve import server
    from repro.serve.admission import AdmissionQueue
    from repro.serve.shadow import ShadowVerifier

    _patch(server.MinimizeService, "handle_minimize", "serve.handle")
    _patch(ShadowVerifier, "_verify_items", "serve.shadow")
    _patch(scheduler, "run_batch", "engine.batch")
    _patch(ResultCache, "get", "engine.cache_get")
    _patch(ResultCache, "put", "engine.cache_put")
    _patch(ResultCache, "_audit", "integrity.audit")
    _patch(ladder, "execute_rung", "engine.rung",
           lambda result, args: {"rung": result["rung"]})
    _patch(DeltaIndex, "lookup", "delta.lookup")
    _patch(DeltaIndex, "observe", "delta.capture")
    _patch(delta, "warm_record_for", "delta.warm")
    _patch(eppp, "generate_eppp", "eppp.generate", _generation_counts)
    _patch(coverage, "build_problem", "coverage.build",
           lambda result, args: {"columns": result.num_columns})
    _patch(coverage, "build_cube_problem", "coverage.build",
           lambda result, args: {"columns": result.num_columns})
    _patch(covering, "solve", "covering.solve", _solve_counts)
    _patch(bounded, "minimize_spp_bounded", "bounded.minimize", _bounded_counts)
    _patch(heuristic, "minimize_spp_k", "heuristic.minimize")
    _patch(sp, "minimize_sp", "sp.minimize")
    _patch(verify, "verify_form", "verify")
    _patch(integrity, "make_certificate", "integrity.certificate")

    admit = AdmissionQueue.admit
    waited = TRACER.wrap(lambda cm: cm.__enter__(), "serve.admission_wait")

    class _TimedAdmission:
        def __init__(self, cm):
            self.cm = cm

        def __enter__(self):
            return waited(self.cm)

        def __exit__(self, *exc):
            return self.cm.__exit__(*exc)

    AdmissionQueue.admit = lambda self: _TimedAdmission(admit(self))


def instrument_coordinator() -> None:
    """Spans around the coordinator; its workers run this host too."""
    from repro.cluster import coordinator, worker

    _patch(coordinator.ClusterCoordinator, "handle_minimize", "cluster.handle")
    _patch(coordinator.ClusterCoordinator, "routing_key", "cluster.route")
    _patch(coordinator.ClusterCoordinator, "plan_for", "cluster.route")
    _patch(coordinator.ClusterCoordinator, "_attempt", "cluster.upstream")
    _patch(coordinator.ClusterCoordinator, "_proxy", "cluster.proxy")
    command = worker.WorkerProcess.command

    def traced_command(self):
        cmd = command(self)  # [python, -m, repro, serve, ...]
        return [cmd[0], str(Path(__file__).resolve()), *cmd[3:]]

    worker.WorkerProcess.command = traced_command


def main(argv: list[str]) -> int:
    role = argv[0]
    if role == "serve":
        instrument_worker()
    elif role == "cluster":
        instrument_coordinator()
    else:
        raise SystemExit(f"tracehost: unknown role {role!r}")
    out = Path(os.environ["PERFBENCH_TRACE_DIR"]) / f"{role}-{os.getpid()}.json"
    atexit.register(TRACER.dump, out)
    from repro.cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
