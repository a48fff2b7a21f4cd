"""Machine-readable performance reports — the ``BENCH_*.json`` schema.

The ROADMAP's north star ("as fast as the hardware allows") is only
enforceable if every PR leaves a comparable timing record behind.  This
module defines that record: a small JSON schema (``repro-bench/1``)
with an environment fingerprint (python version, platform, cpu count,
git sha) and a flat list of named timing entries, plus helpers to
validate a report and to compare two reports entry by entry.

Producers:

* ``spp-minimize bench --json BENCH_<tag>.json`` runs the pinned
  micro/meso suite (:func:`run_perf_suite`) — generation, covering
  build, covering solve, and end-to-end table rows;
* ``spp-minimize tables ... --perf-json FILE`` records the rows of a
  table run in the same schema, so full paper regenerations feed the
  same trajectory.

Consumers: ``compare_reports`` (used by ``bench --baseline`` and the
CI ``bench-smoke`` job) flags any entry slower than
``max_regression × baseline``.  Timing entries record both the minimum
("best", the low-noise statistic micro-benchmarks should compare) and
the mean over ``repeats`` runs.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "SCHEMA",
    "BenchEntry",
    "environment_fingerprint",
    "make_report",
    "validate_report",
    "compare_reports",
    "write_report",
    "load_report",
    "run_perf_suite",
]

SCHEMA = "repro-bench/1"

# Pinned suite instances.  Small enough for CI, large enough that the
# covering-build kernel's structure grouping is actually exercised
# (adr4[4] alone has ~5000 distinct direction bases).  Generation runs
# the n=6 proxies and the full-width functions the ladder and delta
# gates use.
GENERATION_CASES = [
    ("adr3", 2), ("dist3", 1), ("life6", 0), ("life", 0), ("dist", 1), ("adr4", 3),
]
COVERING_CASES = [("adr4", 3), ("adr4", 4), ("life", 0)]
E2E_TABLE1_CASES = ["adr3", "dist3", "life6"]
# Incremental re-minimization: (benchmark, output, edit size).  Each
# entry times the warm path on a k-point care-preserving edit and pairs
# it with the from-scratch solve of the same edited function in the
# same process (the gen/* self-calibration pattern) — the CI delta gate
# checks the recorded ratio, not absolute times.
DELTA_CASES = [("life", 0, 2), ("dist", 1, 2), ("adr4", 3, 2)]


@dataclass
class BenchEntry:
    """One named timing: ``best``/``mean`` seconds over ``repeats`` runs."""

    name: str
    group: str
    best: float
    mean: float
    repeats: int
    meta: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "group": self.group,
            "best": self.best,
            "mean": self.mean,
            "repeats": self.repeats,
            "meta": self.meta,
        }


def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def environment_fingerprint() -> dict[str, Any]:
    """Where the numbers came from: python, platform, cpus, git sha."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_sha": _git_sha(),
    }


def make_report(
    tag: str, entries: list[BenchEntry], meta: dict[str, Any] | None = None
) -> dict[str, Any]:
    """Assemble a schema-conformant report dict.

    ``meta`` attaches report-level context (e.g. the warm-path counters
    ``warm_hits``/``delta_fallbacks`` of a ``tables --perf-json`` run);
    comparisons ignore it.
    """
    report = {
        "schema": SCHEMA,
        "tag": tag,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "environment": environment_fingerprint(),
        "entries": [e.to_dict() for e in entries],
    }
    if meta is not None:
        report["meta"] = meta
    return report


def validate_report(data: Any) -> None:
    """Raise ``ValueError`` unless ``data`` is a valid ``repro-bench/1``
    report.  Used on both the write path (never emit garbage) and the
    baseline-load path (fail loudly on a corrupt committed file)."""
    if not isinstance(data, dict):
        raise ValueError("report must be a JSON object")
    if data.get("schema") != SCHEMA:
        raise ValueError(f"unknown schema {data.get('schema')!r}")
    if not isinstance(data.get("tag"), str) or not data["tag"]:
        raise ValueError("report tag must be a non-empty string")
    env = data.get("environment")
    if not isinstance(env, dict):
        raise ValueError("report lacks an environment fingerprint")
    for key in ("python", "platform", "cpu_count"):
        if key not in env:
            raise ValueError(f"environment fingerprint lacks {key!r}")
    entries = data.get("entries")
    if not isinstance(entries, list):
        raise ValueError("report entries must be a list")
    seen: set[str] = set()
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValueError("entry must be an object")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise ValueError("entry name must be a non-empty string")
        if name in seen:
            raise ValueError(f"duplicate entry name {name!r}")
        seen.add(name)
        for key in ("best", "mean"):
            value = entry.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                raise ValueError(f"entry {name!r}: {key} must be >= 0")
        repeats = entry.get("repeats")
        if not isinstance(repeats, int) or repeats < 1:
            raise ValueError(f"entry {name!r}: repeats must be a positive int")


def compare_reports(
    current: dict[str, Any],
    baseline: dict[str, Any],
    max_regression: float = 2.5,
) -> list[dict[str, Any]]:
    """Entry-by-entry ratio of ``current`` to ``baseline`` best times.

    Returns one row per entry name present in both reports:
    ``{"name", "current", "baseline", "ratio", "regressed"}``.
    ``regressed`` is True when current is more than ``max_regression``
    times slower.  Entries only in one report are ignored (suites may
    grow across PRs).
    """
    validate_report(current)
    validate_report(baseline)
    base = {e["name"]: e for e in baseline["entries"]}
    rows: list[dict[str, Any]] = []
    for entry in current["entries"]:
        other = base.get(entry["name"])
        if other is None:
            continue
        cur_s, base_s = entry["best"], other["best"]
        ratio = cur_s / base_s if base_s > 0 else (1.0 if cur_s == 0 else float("inf"))
        rows.append(
            {
                "name": entry["name"],
                "current": cur_s,
                "baseline": base_s,
                "ratio": ratio,
                "regressed": ratio > max_regression,
            }
        )
    return rows


def write_report(path: str, report: dict[str, Any]) -> None:
    validate_report(report)
    with open(path, "w", encoding="ascii") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_report(path: str) -> dict[str, Any]:
    with open(path, encoding="ascii") as handle:
        data = json.load(handle)
    validate_report(data)
    return data


# ----------------------------------------------------------------------
# The pinned suite
# ----------------------------------------------------------------------

def _time_best(fn, repeats: int, setup=None) -> tuple[float, float]:
    """(best, mean) wall-clock seconds of ``repeats`` calls.

    With ``setup``, each call is ``fn(setup())`` and only ``fn`` is
    timed: the argument is built fresh outside the timer.
    """
    times = []
    for _ in range(repeats):
        arg = setup() if setup is not None else None
        t0 = time.perf_counter()
        fn() if setup is None else fn(arg)
        times.append(time.perf_counter() - t0)
    return min(times), sum(times) / len(times)


def _traced_peak_mib(fn) -> float:
    """Peak traced allocation of one call of ``fn``, in MiB.

    tracemalloc slows every allocation, so this call is separate from
    the timed runs, like the profiled one.
    """
    import tracemalloc

    tracemalloc.start()
    try:
        fn()
        return round(tracemalloc.get_traced_memory()[1] / 2**20, 2)
    finally:
        tracemalloc.stop()


def _profile_entry(label: str, fn, profile_dir: str) -> str:
    """One profiled call of ``fn``: top-20 cumulative functions to a
    ``<profile_dir>/<label>.txt`` pstats dump.  Returns the path.

    The profiled run is separate from the timed runs (profiling adds
    tracing overhead that must never leak into the recorded numbers);
    its purpose is making the next dominant-cost hunt a file read
    instead of an ad-hoc script.
    """
    import cProfile
    import io
    import pstats

    prof = cProfile.Profile()
    prof.enable()
    fn()
    prof.disable()
    buf = io.StringIO()
    pstats.Stats(prof, stream=buf).sort_stats("cumulative").print_stats(20)
    safe = label.replace("/", "_").replace("[", "").replace("]", "")
    path = os.path.join(profile_dir, f"{safe}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(buf.getvalue())
    return path


def run_perf_suite(
    *,
    repeats: int = 5,
    e2e_repeats: int = 1,
    only: str | None = None,
    progress=None,
    profile_dir: str | None = None,
) -> list[BenchEntry]:
    """Run the pinned micro/meso suite and return its entries.

    ``only`` filters entry names by prefix (the unit tests and quick
    local iterations use it to avoid the multi-second end-to-end rows).
    ``progress`` is an optional callable receiving each finished entry.
    ``profile_dir`` additionally runs each entry once under cProfile
    and dumps its top-20 cumulative functions to one text file per
    entry in that directory (created if needed).
    """
    from repro.bench import harness
    from repro.bench.suite import get_benchmark
    from repro.kernels import bitmat, gf2mat
    from repro.kernels.coverage import build_problem
    from repro.minimize import covering as cov
    from repro.minimize.cost import literal_cost
    from repro.minimize.eppp import generate_eppp

    entries: list[BenchEntry] = []
    if profile_dir is not None:
        os.makedirs(profile_dir, exist_ok=True)

    def emit(entry: BenchEntry) -> None:
        entries.append(entry)
        if progress is not None:
            progress(entry)

    def wanted(name: str) -> bool:
        return only is None or name.startswith(only)

    def profile(label: str, fn) -> None:
        if profile_dir is not None:
            _profile_entry(label, fn, profile_dir)

    for name, output in GENERATION_CASES:
        label = f"gen/{name}[{output}]"
        if not wanted(label):
            continue
        fo = get_benchmark(name)[output]
        runs = []

        def gen_case(fo=fo, runs=runs):
            t0 = time.perf_counter()
            result = generate_eppp(fo, max_pseudoproducts=200_000, on_limit="stop")
            runs.append((time.perf_counter() - t0, result.steps))

        best, mean = _time_best(gen_case, repeats)
        # The per-degree split of the fastest timed run.
        steps = min(runs, key=lambda run: run[0])[1]
        profile(label, gen_case)
        meta: dict[str, Any] = {
            "n": fo.n,
            "peak_mib": _traced_peak_mib(gen_case),
            "steps": [
                {
                    "degree": step.degree,
                    "seconds": step.seconds,
                    "comparisons": step.comparisons,
                    "generated": step.generated,
                    "duplicates": step.duplicates,
                    "retained": step.retained,
                }
                for step in steps
            ],
        }
        if gf2mat.AVAILABLE:
            # Paired control: the scalar fallback timed in the same
            # process, seconds apart.  Shared-host noise moves both
            # numbers together, so the recorded speedup stays meaningful
            # when absolute times from different sessions are not
            # comparable (the CI gen gate checks this ratio).
            gf2mat.AVAILABLE = False
            try:
                fb_best, fb_mean = _time_best(gen_case, repeats)
            finally:
                gf2mat.AVAILABLE = True
            meta["fallback_best"] = fb_best
            meta["fallback_mean"] = fb_mean
            meta["speedup"] = round(fb_best / best, 2) if best > 0 else 0.0
        emit(BenchEntry(label, "gen", best, mean, repeats, meta))

    for name, output, k in DELTA_CASES:
        label = f"delta/{name}[{output}]"
        if not wanted(label):
            continue
        from repro.delta import DeltaIndex, build_context, toggle_points, warm_minimize
        from repro.engine.job import Job
        from repro.minimize.exact import minimize_spp
        from repro.verify import verify_form

        fo = get_benchmark(name)[output]
        cold_base = minimize_spp(fo, max_pseudoproducts=200_000, on_limit="stop")
        ctx = build_context(fo, cold_base)
        if ctx is None:
            continue
        on = sorted(fo.on_set)
        toggles = on[:: max(1, len(on) // k)][:k]  # spread, care-preserving
        edited = toggle_points(fo, toggles)
        # Route through the near-duplicate index (signature lookup is
        # part of the warm path's real cost in the serving tier).
        index = DeltaIndex()
        base_job = Job(fo, method="exact", max_pseudoproducts=200_000)
        index.put(base_job.content_hash, ctx)
        edited_job = Job(edited, method="exact", max_pseudoproducts=200_000)

        def warm_case(index=index, job=edited_job, func=edited):
            base = index.lookup(job)
            result = warm_minimize(base, func)
            index.count_warm_hit()
            return result

        best, mean = _time_best(warm_case, repeats)
        profile(label, warm_case)
        cold_case = lambda func=edited: minimize_spp(  # noqa: E731
            func, max_pseudoproducts=200_000, on_limit="stop"
        )
        cold_best, cold_mean = _time_best(cold_case, repeats)
        warm_res = warm_case()
        cold_res = cold_case()
        if warm_res.form != cold_res.form:
            raise RuntimeError(
                f"{label}: warm cover differs from cold "
                f"({warm_res.num_literals} vs {cold_res.num_literals} literals)"
            )
        if not verify_form(warm_res.form, edited):
            raise RuntimeError(f"{label}: warm cover failed verification")
        emit(
            BenchEntry(
                label, "delta", best, mean, repeats,
                {
                    "edit": len(toggles),
                    "cost": cold_res.num_literals,
                    "candidates": ctx.num_candidates,
                    "cold_best": cold_best,
                    "cold_mean": cold_mean,
                    "speedup": round(cold_best / best, 2) if best > 0 else 0.0,
                    "speedup_mean": round(cold_mean / mean, 2) if mean > 0 else 0.0,
                    "identical_cover": True,
                    "warm_hits": index.stats()["warm_hits"],
                },
            )
        )

    cover_problems = {}
    for name, output in COVERING_CASES:
        label = f"covering_build/{name}[{output}]"
        solve_label = f"covering_solve/{name}[{output}]"
        if not wanted(label) and not wanted(solve_label):
            continue
        fo = get_benchmark(name)[output]
        generation = generate_eppp(fo, max_pseudoproducts=200_000, on_limit="stop")
        candidates = generation.eppps
        rows = sorted(fo.on_set)
        if wanted(label):
            build_case = lambda: build_problem(  # noqa: E731
                rows, candidates, cost_of=literal_cost
            )
            best, mean = _time_best(build_case, repeats)
            profile(label, build_case)
            meta = {"rows": len(rows), "candidates": len(candidates)}
            if bitmat.HAVE_NUMPY:
                # Paired control, as for gen/*: the same packed problem
                # reached the scalar way, timed in the same process —
                # the grouped Python-int pass over the candidates as a
                # list (built once, untimed), then the masks packed.
                listed = list(candidates)

                def scalar_case(listed=listed):
                    build_problem(rows, listed, cost_of=literal_cost).packed()

                fb_best, fb_mean = _time_best(scalar_case, repeats)
                meta["fallback_best"] = fb_best
                meta["fallback_mean"] = fb_mean
                meta["speedup"] = round(fb_best / best, 2) if best > 0 else 0.0
            emit(BenchEntry(label, "covering_build", best, mean, repeats, meta))
        cover_problems[solve_label] = build_problem(
            rows, candidates, cost_of=literal_cost
        )

    for solve_label, problem in cover_problems.items():
        if not wanted(solve_label):
            continue
        # Every timed solve gets a fresh problem, as a cold exact solve
        # hands `solve_greedy` one: the columnar build's packed matrix
        # and no masks, so the masks each solve unpacks stay in the
        # timing.  A build that made no matrix gives its masks.
        masked = lambda problem=problem: cov.CoveringProblem(  # noqa: E731
            problem.num_rows, problem.column_masks, problem.costs, problem.payloads
        )
        fresh = masked
        if problem.matrix is not None:
            fresh = lambda problem=problem: cov.CoveringProblem(  # noqa: E731
                problem.num_rows, None, problem.costs, problem.payloads, problem.matrix
            )
        best, mean = _time_best(cov.solve_greedy, repeats, setup=fresh)
        profile(solve_label, lambda fresh=fresh: cov.solve_greedy(fresh()))
        # One extra solve outside the timed loop records the cover cost
        # (regressions must not buy speed with worse covers) and the
        # covering reduction report.
        solution = cov.solve_greedy(fresh())
        meta: dict[str, Any] = {
            "rows": problem.num_rows,
            "columns": problem.num_columns,
            "cost": solution.cost,
        }
        if solution.stats is not None:
            meta["reduction"] = solution.stats.as_dict()
        if bitmat.HAVE_NUMPY:
            # Paired control, as for gen/*: the scalar path (Python-int
            # reduction and CELF heap) timed in the same process, on
            # fresh mask-built problems.
            bitmat.HAVE_NUMPY = False
            try:
                fb_best, fb_mean = _time_best(cov.solve_greedy, repeats, setup=masked)
            finally:
                bitmat.HAVE_NUMPY = True
            meta["fallback_best"] = fb_best
            meta["fallback_mean"] = fb_mean
            meta["speedup"] = round(fb_best / best, 2) if best > 0 else 0.0
        emit(
            BenchEntry(
                solve_label, "covering_solve", best, mean, repeats, meta
            )
        )

    for name in E2E_TABLE1_CASES:
        label = f"e2e/table1/{name}"
        if not wanted(label):
            continue
        e2e_case = lambda name=name: harness.run_table1_row(  # noqa: E731
            name, max_pseudoproducts=200_000
        )
        best, mean = _time_best(e2e_case, e2e_repeats)
        profile(label, e2e_case)
        emit(BenchEntry(label, "e2e", best, mean, e2e_repeats, {}))

    return entries
