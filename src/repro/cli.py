"""Command-line interface.

::

    spp-minimize minimize circuit.pla --method exact
    spp-minimize minimize circuit.pla --method heuristic -k 2 --output 3
    spp-minimize benchmarks --list
    spp-minimize benchmarks --dump adr4 > adr4.pla
    spp-minimize tables table1 --full --jobs 8
    spp-minimize bench --json BENCH_local.json --baseline benchmarks/baseline.json
    spp-minimize batch adr4 life circuit.pla --jobs 4 --timeout 30 \\
        --cache-dir .spp-cache --resume
    spp-minimize serve --port 8351 --threads 4 --queue-capacity 8
    spp-minimize cluster --workers 4 --cache-dir .spp-cache
    spp-minimize loadtest --cluster 4 --compare-single --out results
    spp-minimize fuzz --seed 1 --budget 60

(`python -m repro ...` is equivalent.)
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.bench.paper_data import TABLE1
from repro.bench.suite import BENCHMARKS, get_benchmark
from repro.boolfunc.function import BoolFunc, MultiBoolFunc
from repro.boolfunc.pla import parse_pla_file, write_pla
from repro.core.cex import cex_of
from repro.errors import ReproError
from repro.verify import VerificationReport, verify_form

# The minimizers, the harness and the engine are imported inside the
# commands that run them: ``serve`` loads them with its service, and
# ``cluster`` (the coordinator) never does, so it starts without numpy.

__all__ = ["main"]


def _fail_verification(label: str, report: VerificationReport) -> None:
    """Print a counterexample-bearing failure line and exit with 2."""
    details = []
    if report.uncovered_on_points:
        points = report.uncovered_on_points
        details.append(f"misses on-set point {points[0]:#x}"
                       + (f" (+{len(points) - 1} more)" if len(points) > 1 else ""))
    if report.covered_off_points:
        points = report.covered_off_points
        details.append(f"covers off-set point {points[0]:#x}"
                       + (f" (+{len(points) - 1} more)" if len(points) > 1 else ""))
    if report.truncated:
        details.append("counterexample scan truncated")
    print(f"{label}: VERIFICATION FAILED: {'; '.join(details)}", file=sys.stderr)
    raise SystemExit(2)


def _minimize_one(fo: BoolFunc, label: str, args: argparse.Namespace):
    from repro.minimize.bounded import minimize_spp_bounded
    from repro.minimize.exact import SppResult, minimize_spp
    from repro.minimize.heuristic import minimize_spp_k
    from repro.minimize.sp import minimize_sp

    if args.method == "aox":
        from repro.minimize.aox import minimize_aox

        aox = minimize_aox(fo, covering=args.covering)
        print(f"{label}: AOX {aox.num_literals} literals "
              f"({aox.tried} corrections tried, {aox.seconds:.2f}s)")
        report = verify_form(aox.form, fo)
        if not report:
            _fail_verification(label, report)
        if args.show:
            print("   ", aox.form)
        return None  # AOX forms are not exportable SPP forms
    if args.method == "sp":
        sp = minimize_sp(fo, covering=args.covering)
        print(f"{label}: SP  {sp.num_literals} literals, {sp.num_products} products, "
              f"{sp.num_primes} primes, {sp.seconds:.2f}s")
        form = sp.form
    else:
        if args.method == "exact":
            result: SppResult = minimize_spp(
                fo,
                backend=args.backend,
                covering=args.covering,
                max_pseudoproducts=args.max_pseudoproducts,
                on_limit="stop",
            )
        elif args.method == "heuristic":
            result = minimize_spp_k(fo, args.k, covering=args.covering)
        else:  # bounded
            result = minimize_spp_bounded(
                fo, args.bound, backend=args.backend, covering=args.covering
            )
        print(
            f"{label}: SPP {result.num_literals} literals, "
            f"{result.num_pseudoproducts} pseudoproducts, "
            f"{result.num_candidates} candidates, {result.seconds:.2f}s"
        )
        form = result.form
    report = verify_form(form, fo)
    if not report:
        _fail_verification(label, report)
    if args.show:
        for pc in form.pseudoproducts:
            print("   ", cex_of(pc))
    return form


def _cmd_minimize(args: argparse.Namespace) -> None:
    if args.file in BENCHMARKS:
        func: MultiBoolFunc = get_benchmark(args.file)
    else:
        func = parse_pla_file(args.file)
    if args.method == "multi":
        _minimize_multi(func, args)
        return
    forms: dict[str, object] = {}
    outputs = [args.output] if args.output is not None else range(func.num_outputs)
    for o in outputs:
        fo = func[o]
        if not fo.on_set:
            print(f"output {o}: constant 0, skipped")
            continue
        form = _minimize_one(fo, f"output {o}", args)
        if form is not None:
            forms[f"f{o}"] = form
    _export(forms, args)


def _minimize_multi(func: MultiBoolFunc, args: argparse.Namespace) -> None:
    from repro.minimize.multi import minimize_spp_multi

    result = minimize_spp_multi(
        func,
        backend=args.backend,
        covering=args.covering,
        max_pseudoproducts=args.max_pseudoproducts,
    )
    print(
        f"joint: {result.shared_literals} shared literals over "
        f"{len(result.shared_pseudoproducts)} pseudoproducts "
        f"({result.total_output_literals} if each output paid separately), "
        f"{result.seconds:.2f}s"
    )
    forms = {}
    for o, (form, fo) in enumerate(zip(result.forms, func.outputs)):
        report = verify_form(form, fo)
        if not report:
            _fail_verification(f"output {o}", report)
        forms[f"f{o}"] = form
        if args.show:
            print(f"output {o}:")
            for pc in form.pseudoproducts:
                print("   ", cex_of(pc))
    _export(forms, args)


def _export(forms: dict[str, object], args: argparse.Namespace) -> None:
    if not forms:
        return
    if args.verilog:
        from repro.export.verilog import spp_to_verilog

        with open(args.verilog, "w", encoding="ascii") as handle:
            handle.write(spp_to_verilog(forms, module=args.module))
        print(f"wrote Verilog to {args.verilog}")
    if args.blif:
        from repro.export.blif import spp_to_blif

        with open(args.blif, "w", encoding="ascii") as handle:
            for name, form in forms.items():
                handle.write(spp_to_blif(form, model=name, output_name=name))
        print(f"wrote BLIF to {args.blif}")


def _cmd_benchmarks(args: argparse.Namespace) -> None:
    if args.dump:
        print(write_pla(get_benchmark(args.dump)), end="")
        return
    print(f"{'name':<10} {'in':>3} {'out':>4}  surrogate  notes")
    for name in sorted(BENCHMARKS):
        spec = BENCHMARKS[name]
        flag = "yes" if spec.surrogate else "no"
        print(f"{name:<10} {spec.n_inputs:>3} {spec.n_outputs:>4}  {flag:<9}  {spec.notes}")


def _tables_cache(args: argparse.Namespace):
    if getattr(args, "cache_dir", None) is None:
        return None
    from repro.engine import ResultCache

    return ResultCache(cache_dir=args.cache_dir)


def _tables_perf_entries(table: str, items) -> list:
    """Convert a table run's measurements into BENCH_*.json entries, so
    full regenerations feed the same trajectory as ``bench``."""
    from repro.bench.perfjson import BenchEntry

    def one(name: str, seconds: float, meta: dict) -> BenchEntry:
        return BenchEntry(name, "tables", seconds, seconds, 1, meta)

    entries: list[BenchEntry] = []
    if table == "table1":
        for m in items:
            entries.append(one(f"tables/table1/{m.function}/sp",
                               m.seconds_sp, {"literals": m.sp_literals}))
            spp_meta = {"literals": m.spp_literals}
            if m.covering_stats is not None:
                spp_meta["reduction"] = m.covering_stats
            entries.append(one(f"tables/table1/{m.function}/spp",
                               m.seconds_spp, spp_meta))
    elif table == "table2":
        for m in items:
            label = f"tables/table2/{m.function}[{m.output}]"
            entries.append(one(f"{label}/alg2", m.seconds_alg2,
                               {"comparisons": m.comparisons_alg2}))
            if m.seconds_naive is not None:
                entries.append(one(f"{label}/naive", m.seconds_naive, {}))
    elif table == "table3":
        for m in items:
            entries.append(one(f"tables/table3/{m.function}/spp0",
                               m.spp0_seconds, {"literals": m.spp0_literals}))
            if m.spp_seconds is not None:
                entries.append(one(f"tables/table3/{m.function}/spp",
                                   m.spp_seconds, {"literals": m.spp_literals}))
    else:  # fig34
        for p in items:
            entries.append(one(f"tables/fig34/{p.function}/k{p.k}",
                               p.seconds, {"literals": p.literals}))
    return entries


def _cmd_tables(args: argparse.Namespace) -> None:
    from repro.bench import harness

    parallel = args.jobs != 1
    cache = _tables_cache(args)
    delta_index = None
    if args.table == "table1":
        if args.quick:
            names = harness.QUICK_TABLE1
        else:
            names = [row.function for row in TABLE1]
        cap = 200_000 if args.quick else None
        if parallel:
            from repro.delta import DeltaIndex

            delta_index = DeltaIndex()
            rows = harness.run_table1_rows(
                names, max_pseudoproducts=cap, workers=args.jobs,
                timeout=args.timeout, cache=cache, delta_index=delta_index,
            )
        else:
            rows = [harness.run_table1_row(n, max_pseudoproducts=cap) for n in names]
        print(harness.render_table1(rows))
        items = rows
    elif args.table == "table2":
        pairs = harness.QUICK_TABLE2 if args.quick else harness.FULL_TABLE2
        cap = 200_000 if args.quick else None
        if parallel:
            rows = harness.run_table2_rows(
                pairs, workers=args.jobs, max_pseudoproducts=cap
            )
        else:
            rows = [
                harness.run_table2_row(n, o, max_pseudoproducts=cap) for n, o in pairs
            ]
        print(harness.render_table2(rows))
        items = rows
    elif args.table == "table3":
        names = harness.QUICK_TABLE3 if args.quick else harness.FULL_TABLE3
        budget = 200_000 if args.quick else None
        if parallel:
            rows3 = harness.run_table3_rows(
                names, exact_budget=budget, workers=args.jobs,
                timeout=args.timeout, cache=cache,
            )
        else:
            rows3 = [harness.run_table3_row(n, exact_budget=budget) for n in names]
        print(harness.render_table3(rows3))
        items = rows3
    else:  # fig34
        names = harness.QUICK_FIG34 if args.quick else harness.FULL_FIG34
        if parallel:
            points = harness.run_fig34_sweeps(
                names, workers=args.jobs, timeout=args.timeout, cache=cache
            )
        else:
            points = []
            for name in names:
                points.extend(harness.run_spp_k_sweep(name))
        print(harness.render_fig34(points))
        items = points
    if args.perf_json:
        from repro.bench.perfjson import make_report, write_report

        entries = _tables_perf_entries(args.table, items)
        meta = None
        if delta_index is not None:
            stats = delta_index.stats()
            meta = {
                "warm_hits": stats["warm_hits"],
                "delta_fallbacks": stats["fallbacks"],
            }
        write_report(
            args.perf_json, make_report(f"tables-{args.table}", entries, meta=meta)
        )
        print(f"wrote {args.perf_json} ({len(entries)} entries)")


def _cmd_perf_bench(args: argparse.Namespace) -> None:
    from repro.bench import perfjson

    tag = args.tag
    if tag is None:
        base = os.path.basename(args.json)
        if base.startswith("BENCH_") and base.endswith(".json"):
            tag = base[len("BENCH_"):-len(".json")]
        else:
            tag = "local"

    def show(entry) -> None:
        print(f"{entry.name:<30} best {entry.best * 1e3:9.2f}ms  "
              f"mean {entry.mean * 1e3:9.2f}ms  (x{entry.repeats})", flush=True)

    profile_dir = None
    if args.profile:
        profile_dir = os.path.join("results", f"profile_{tag}")

    entries = perfjson.run_perf_suite(
        repeats=args.repeats,
        e2e_repeats=args.e2e_repeats,
        only=args.only,
        progress=show,
        profile_dir=profile_dir,
    )
    if profile_dir is not None:
        print(f"wrote per-entry cProfile dumps (top-20 cumulative) to "
              f"{profile_dir}/")
    report = perfjson.make_report(tag, entries)
    perfjson.write_report(args.json, report)
    print(f"wrote {args.json} ({len(entries)} entries)")
    if args.baseline:
        baseline = perfjson.load_report(args.baseline)
        rows = perfjson.compare_reports(report, baseline, args.max_regression)
        regressed = [r for r in rows if r["regressed"]]
        for r in rows:
            flag = "REGRESSED" if r["regressed"] else "ok"
            print(f"{r['name']:<30} {r['current'] * 1e3:9.2f}ms vs "
                  f"{r['baseline'] * 1e3:9.2f}ms  x{r['ratio']:5.2f}  {flag}")
        if regressed:
            print(
                f"bench: {len(regressed)} entries regressed more than "
                f"{args.max_regression}x vs {args.baseline}",
                file=sys.stderr,
            )
            raise SystemExit(1)


def _batch_jobs(args: argparse.Namespace) -> list:
    """Expand PLA paths / benchmark names into one Job per live output."""
    from repro.engine import Job

    jobs = []
    for target in args.targets:
        if target in BENCHMARKS:
            func: MultiBoolFunc = get_benchmark(target)
            name = target
        else:
            func = parse_pla_file(target)
            name = target.rsplit("/", 1)[-1]
        for o, fo in enumerate(func.outputs):
            if not fo.on_set:
                continue
            jobs.append(
                Job(
                    fo,
                    method=args.method,
                    k=args.k,
                    bound=args.bound,
                    covering=args.covering,
                    backend=args.backend,
                    max_pseudoproducts=args.max_pseudoproducts,
                    label=f"{name}[{o}]",
                )
            )
    return jobs


def _cmd_batch(args: argparse.Namespace) -> None:
    from repro.engine import Manifest, ResultCache, run_batch

    jobs = _batch_jobs(args)
    if not jobs:
        print("nothing to do: every requested output is constant 0")
        return
    cache = ResultCache(cache_dir=args.cache_dir)
    manifest = None
    manifest_dir = args.manifest_dir
    if manifest_dir is None and args.cache_dir is not None:
        manifest_dir = str(args.cache_dir) + "/manifest"
    if manifest_dir is not None:
        manifest = Manifest(manifest_dir)
    if args.resume and manifest is None:
        print("batch: --resume needs --manifest-dir or --cache-dir", file=sys.stderr)
        raise SystemExit(2)

    def show(outcome) -> None:
        label = outcome.job.display_label
        if not outcome.ok:
            verdict = "QUARANTINED" if outcome.source == "quarantined" else "FAILED"
            print(f"{label:<24} {verdict} after {len(outcome.attempts)} attempts")
            return
        record = outcome.record
        rung = record["rung"] + (" (degraded)" if record.get("degraded") else "")
        print(
            f"{label:<24} {rung:<22} {record['literals']:>5} literals "
            f"{record['pseudoproducts']:>4} pps  {record['seconds']:>7.2f}s  "
            f"[{outcome.source}]"
        )

    result = run_batch(
        jobs,
        workers=args.jobs,
        timeout=args.timeout,
        memory_mb=args.memory_mb,
        cache=cache,
        manifest=manifest,
        resume=args.resume,
        progress=show,
        crash_cap=args.crash_cap,
        retry_backoff=args.retry_backoff,
    )
    print(f"batch: {result.summary()}")
    print(f"cache: {cache.stats.summary()}")
    if not result.ok:
        raise SystemExit(1)


def _cmd_serve(args: argparse.Namespace) -> None:
    from repro.serve import MinimizeService, ServeConfig

    config = ServeConfig(
        host=args.host,
        port=args.port,
        threads=args.threads,
        queue_capacity=args.queue_capacity,
        default_timeout=args.default_timeout,
        default_budget=args.default_budget,
        memory_soft_mb=args.memory_soft_mb,
        memory_hard_mb=args.memory_hard_mb,
        cache_entries=args.cache_entries,
        cache_dir=args.cache_dir,
        max_disk_entries=args.max_disk_entries,
        audit_rate=args.audit_rate,
        shadow_rate=args.shadow_rate,
        manifest_dir=args.manifest_dir,
        drain_grace=args.drain_grace,
        parent_pid=args.parent_pid,
        delta_entries=args.delta_entries,
    )
    _run_until_drained(
        MinimizeService(config), "serving",
        lambda tier: f"{config.threads} workers, queue {config.queue_capacity}",
    )


def _cmd_cluster(args: argparse.Namespace) -> None:
    from repro.cluster import ClusterConfig, ClusterCoordinator

    config = ClusterConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_workers=args.max_workers,
        replicas=args.replicas,
        failover_attempts=args.failover_attempts,
        hedge=not args.no_hedge,
        hedge_after=args.hedge_after,
        retry_budget_ratio=args.retry_budget_ratio,
        retry_budget_cap=args.retry_budget_cap,
        health_interval=args.health_interval,
        worker_threads=args.threads,
        worker_queue_capacity=args.queue_capacity,
        default_timeout=args.default_timeout,
        default_budget=args.default_budget,
        cache_entries=args.cache_entries,
        cache_dir=args.cache_dir,
        max_disk_entries=args.max_disk_entries,
        audit_rate=args.audit_rate,
        shadow_rate=args.shadow_rate,
    )
    _run_until_drained(
        ClusterCoordinator(config), "cluster",
        lambda tier: f"{config.workers} workers on ports "
        f"{[state.proc.port for state in tier._workers.values()]}",
    )


def _run_until_drained(tier, role: str, describe) -> None:
    """Start a serving tier, print its banner, block until it drained.

    ``describe(tier)`` is the banner's detail, read once the tier is
    up.  SIGTERM/SIGINT start the drain."""
    host, port = tier.start()
    tier.install_signal_handlers()
    print(f"{role} on http://{host}:{port}  ({describe(tier)}); "
          "SIGTERM/SIGINT drains gracefully", flush=True)
    try:
        tier.wait_drained()
    except KeyboardInterrupt:  # second ^C while draining: just leave
        pass
    print("drained, exiting", flush=True)


def _parse_stages(spec: str, mode: str):
    """``"4x10,8x10"`` → closed stages; open mode reads rate instead."""
    from repro.loadgen import Stage

    stages = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            load_part, duration_part = chunk.split("x", 1)
            load = float(load_part)
            duration = float(duration_part)
        except ValueError:
            raise SystemExit(
                f"loadtest: bad stage {chunk!r} (want LOADxSECONDS)"
            ) from None
        if mode == "open":
            stages.append(Stage(duration, clients=64, rate=load))
        else:
            stages.append(Stage(duration, clients=int(load)))
    if not stages:
        raise SystemExit("loadtest: no stages given")
    return stages


def _cmd_loadtest_summarize(args: argparse.Namespace) -> None:
    """``loadtest --summarize``: aggregate repeated report JSONs."""
    import json
    from pathlib import Path

    from repro.loadgen import render_summary_markdown, summarize

    docs = []
    for path in args.summarize:
        try:
            docs.append(json.loads(Path(path).read_text()))
        except (OSError, ValueError) as exc:
            raise SystemExit(f"loadtest: cannot read {path}: {exc}") from None
    try:
        summary = summarize(docs)
    except ValueError as exc:
        raise SystemExit(f"loadtest: {exc}") from None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / f"{args.name}-summary.json"
    json_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    markdown = render_summary_markdown(summary)
    md_path = out / f"{args.name}-summary.md"
    md_path.write_text(markdown + "\n")
    print(markdown, flush=True)
    print(f"wrote {json_path} and {md_path}", flush=True)


def _parse_chaos_stall(spec: str) -> tuple[float, float]:
    """``P:SECONDS`` (e.g. ``0.05:0.4``) for --chaos-stall."""
    try:
        p_text, _, seconds_text = spec.partition(":")
        p = float(p_text)
        seconds = float(seconds_text)
        if not 0.0 <= p <= 1.0 or seconds < 0:
            raise ValueError
    except ValueError:
        raise SystemExit(
            f"loadtest: bad --chaos-stall {spec!r} (want P:SECONDS, "
            "P within [0,1])"
        ) from None
    return p, seconds


def _cmd_loadtest(args: argparse.Namespace) -> None:
    import contextlib
    import tempfile

    from repro.cluster import ClusterConfig, ClusterCoordinator, WorkerProcess, free_port
    from repro.loadgen import ChaosAction, ChaosScenario, LoadDriver, Workload, write_report

    if args.summarize:
        _cmd_loadtest_summarize(args)
        return
    if args.service_time is not None:
        # Deterministic per-request service time via the fault plan —
        # the repo's standard way to emulate fixed compute cost (see
        # docs/SERVING.md).  Exported so spawned servers inherit it.
        from repro.faults import FaultPlan, FaultRule, install

        install(FaultPlan([FaultRule(site="serve.request", kind="slow",
                                     arg=args.service_time, times=None)]))
    if args.chaos_stall is not None:
        # Probabilistic proxy stalls on the launched cluster's wire
        # path; composes with --service-time (both plans merge).
        from repro.faults import FaultPlan, FaultRule, active, install

        p, seconds = _parse_chaos_stall(args.chaos_stall)
        plan = active() or FaultPlan(seed=args.chaos_seed)
        plan.rules.append(FaultRule(
            site="cluster.proxy.stall", kind="slow",
            p=p, times=None, arg=seconds,
        ))
        plan.seed = args.chaos_seed
        install(plan)

    stages = _parse_stages(args.stages, args.mode)
    workload = Workload(
        seed=args.seed,
        small_pool=args.small_pool,
        large_pool=args.large_pool,
        large_fraction=args.large_fraction,
        timeout=args.request_timeout,
        max_rung=None if args.max_rung == "none" else args.max_rung,
        dup_rate=args.dup_rate,
    )
    serve_args = [
        "--threads", str(args.threads),
        "--queue-capacity", str(args.queue_capacity),
        "--default-timeout", str(args.request_timeout),
    ]

    def show(line: str) -> None:
        print(f"  {line}", flush=True)

    results = {}
    with contextlib.ExitStack() as stack:
        tmp = None
        if args.cache_dir is None and (args.cluster or args.compare_single):
            tmp = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="spp-loadtest-")
            )
        cache_dir = args.cache_dir or tmp

        def drive(name: str, host: str, port: int, target: str) -> None:
            print(f"{name}: driving http://{host}:{port}", flush=True)
            driver = LoadDriver(
                host, port, workload,
                request_timeout=args.request_timeout + 30.0,
                deadline=args.deadline,
                progress=show,
            )
            results[name] = driver.run(
                stages, target=target, warmup_repeats=args.warmup_repeats
            )

        if args.url:
            from urllib.parse import urlsplit

            parts = urlsplit(args.url)
            drive("target", parts.hostname or "127.0.0.1",
                  parts.port or 80, args.url)
        if args.compare_single:
            single = WorkerProcess(
                "single", free_port(),
                serve_args=serve_args + (
                    ["--cache-dir", f"{cache_dir}/single"] if cache_dir else []
                ),
            )
            single.start(wait=True)
            stack.callback(single.stop)
            drive("single", single.host, single.port,
                  f"single-process serve (threads={args.threads})")
        if args.cluster:
            cluster = ClusterCoordinator(ClusterConfig(
                port=0,
                workers=args.cluster,
                max_workers=args.max_workers,
                worker_threads=args.threads,
                worker_queue_capacity=args.queue_capacity,
                default_timeout=args.request_timeout,
                hedge=not args.no_hedge,
                hedge_after=args.hedge_after,
                cache_dir=f"{cache_dir}/cluster" if cache_dir else None,
            ))
            host, port = cluster.start()
            stack.callback(cluster.drain, 2.0)
            if args.chaos_sigstop:
                actions = [
                    ChaosAction.parse(spec, kind="sigstop")
                    for spec in args.chaos_sigstop
                ]
                procs = {
                    name: state.proc
                    for name, state in cluster._workers.items()
                }
                scenario = ChaosScenario(procs, actions)
                stack.enter_context(scenario)
            drive(f"cluster-{args.cluster}", host, port,
                  f"{args.cluster}-worker cluster (threads={args.threads} each)")

    if not results:
        raise SystemExit(
            "loadtest: nothing to drive (use --url, --cluster N and/or "
            "--compare-single)"
        )
    notes = list(args.note or [])
    if args.service_time is not None:
        notes.append(
            f"Deterministic per-request service time of {args.service_time}s "
            "injected via the fault plan (site serve.request) on every "
            "spawned server — the repo's standard emulation of fixed "
            "compute cost for fabric-scaling measurements."
        )
    single_result = results.get("single")
    cluster_result = next(
        (r for k, r in results.items() if k.startswith("cluster-")), None
    )
    if single_result and cluster_result:
        speedup = (
            cluster_result.peak_throughput_rps
            / max(single_result.peak_throughput_rps, 1e-9)
        )
        notes.append(
            f"Peak sustained throughput: cluster "
            f"{cluster_result.peak_throughput_rps:.1f} rps vs single-process "
            f"{single_result.peak_throughput_rps:.1f} rps = "
            f"{speedup:.2f}x."
        )
        per_stage = []
        for s_stage, c_stage in zip(single_result.stages,
                                    cluster_result.stages):
            if s_stage.stage == c_stage.stage and s_stage.throughput_rps:
                per_stage.append(
                    (s_stage.stage,
                     c_stage.throughput_rps / s_stage.throughput_rps)
                )
        if per_stage:
            rendered = ", ".join(
                f"{spec['rate'] or spec['clients']:g}"
                f"{'rps' if spec['rate'] else ' clients'}: {ratio:.2f}x"
                for spec, ratio in per_stage
            )
            notes.append(
                "Matched-offered-load speedups (same stage driven at both "
                f"targets): {rendered}."
            )
        print(f"speedup: {speedup:.2f}x peak; matched-load "
              f"{max((r for _, r in per_stage), default=speedup):.2f}x",
              flush=True)
    json_path, md_path = write_report(
        args.out, args.name, args.title, results, notes
    )
    print(f"wrote {json_path} and {md_path}", flush=True)


def _cmd_fuzz(args: argparse.Namespace) -> None:
    from repro.errors import IntegrityError
    from repro.fuzz import replay_artifact, run_fuzz

    if args.replay:
        failures = replay_artifact(args.replay)
        if failures:
            for failure in failures:
                print(f"[{failure.check}] {failure.rung}: {failure.message}",
                      file=sys.stderr)
            raise IntegrityError(
                f"replay reproduced {len(failures)} failure(s) "
                f"from {args.replay}",
                detail={"failures": [f.check for f in failures]},
            )
        print(f"replay clean: {args.replay}")
        return

    families = args.families.split(",") if args.families else None
    report = run_fuzz(
        seed=args.seed,
        budget=args.budget,
        max_trials=args.trials,
        n_min=args.n_min,
        n_max=args.n_max,
        families=families,
        plant_bug=args.plant_bug,
        out_dir=args.out,
        rung_budget=args.rung_budget,
        log=print,
    )
    mix = ", ".join(f"{k}={v}" for k, v in sorted(report.family_counts.items()))
    print(f"fuzz: {report.trials} trials in {report.elapsed_seconds:.1f}s "
          f"(seed {report.seed}; {mix})")
    if report.failures:
        raise IntegrityError(
            f"{len(report.failures)} failing trial(s); "
            f"replayable artifacts under {args.out}",
            detail={"artifacts": [f["path"] for f in report.failures]},
        )
    print("fuzz: all checks passed")


def _add_worker_flags(parser: argparse.ArgumentParser) -> None:
    """The serve options ``cluster`` also takes and passes to each worker."""
    parser.add_argument("--threads", type=int, default=4, metavar="N",
                        help="concurrent minimizations per serve process "
                        "(default 4)")
    parser.add_argument("--queue-capacity", type=int, default=8, metavar="N",
                        help="waiting-room size beyond the active slots; "
                        "requests past it are shed (default 8)")
    parser.add_argument("--default-timeout", type=float, default=5.0,
                        metavar="S", help="per-attempt rung deadline when "
                        "the request sets none (default 5s)")
    parser.add_argument("--default-budget", type=float, default=30.0,
                        metavar="S", help="overall request budget when the "
                        "request sets none (default 30s)")
    parser.add_argument("--cache-entries", type=int, default=1024,
                        metavar="N", help="in-memory result cache capacity "
                        "per serve process (default 1024)")
    parser.add_argument("--cache-dir", default=None,
                        help="persistent result cache directory (a cluster's "
                        "workers share it, lockfile-guarded)")
    parser.add_argument("--max-disk-entries", type=int, default=None,
                        metavar="N", help="cap on disk cache entries; "
                        "oldest are pruned under a cross-process lock "
                        "(default: unbounded)")
    parser.add_argument("--audit-rate", type=int, default=16, metavar="N",
                        help="verify-on-read: re-verify every Nth disk-cache "
                        "load against its spec (0 disables sampling; "
                        "salt-stale records are always audited; default 16)")
    parser.add_argument("--shadow-rate", type=int, default=8, metavar="N",
                        help="shadow-verify every Nth response off the hot "
                        "path (0 disables; default 8)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spp-minimize",
        description="SPP (Sum of Pseudoproducts) logic minimization — "
        "reproduction of Ciriani, DAC 2001.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_min = sub.add_parser("minimize", help="minimize a PLA file or named benchmark")
    p_min.add_argument("file", help="PLA path or registered benchmark name")
    p_min.add_argument("--output", type=int, default=None, help="single output index")
    p_min.add_argument(
        "--method",
        choices=["exact", "heuristic", "sp", "bounded", "multi", "aox"],
        default="exact",
    )
    p_min.add_argument("-k", type=int, default=0, help="heuristic descent depth")
    p_min.add_argument("--bound", type=int, default=2, help="factor width bound")
    p_min.add_argument("--covering", choices=["greedy", "exact", "auto"], default="greedy")
    p_min.add_argument("--backend", choices=["index", "trie"], default="index")
    p_min.add_argument("--max-pseudoproducts", type=int, default=None)
    p_min.add_argument("--show", action="store_true", help="print the expressions")
    p_min.add_argument("--verilog", metavar="FILE", help="export a Verilog module")
    p_min.add_argument("--blif", metavar="FILE", help="export BLIF models")
    p_min.add_argument("--module", default="spp", help="Verilog module name")
    p_min.set_defaults(handler=_cmd_minimize)

    p_bench = sub.add_parser("benchmarks", help="list or dump benchmark functions")
    p_bench.add_argument("--dump", metavar="NAME", help="write a benchmark as PLA")
    p_bench.set_defaults(handler=_cmd_benchmarks)

    p_tab = sub.add_parser("tables", help="regenerate a paper table/figure")
    p_tab.add_argument("table", choices=["table1", "table2", "table3", "fig34"])
    mode = p_tab.add_mutually_exclusive_group()
    mode.add_argument(
        "--quick", dest="quick", action="store_true", default=True,
        help="scaled-down instances and capped budgets (default)",
    )
    mode.add_argument(
        "--full", dest="quick", action="store_false",
        help="the paper's full row lists, uncapped (CPU-hours)",
    )
    p_tab.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="route rows through the batch engine on N workers (0 = inline engine)",
    )
    p_tab.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="per-attempt deadline for engine-routed rows")
    p_tab.add_argument("--cache-dir", default=None,
                       help="persistent result cache for engine-routed rows")
    p_tab.add_argument("--perf-json", metavar="FILE", default=None,
                       help="also record per-row timings as a BENCH_*.json "
                       "report (repro-bench/1 schema)")
    p_tab.set_defaults(handler=_cmd_tables)

    p_perf = sub.add_parser(
        "bench",
        help="run the pinned perf suite and emit a BENCH_*.json report",
        description="Time the pinned micro/meso suite (EPPP generation, "
        "covering build, covering solve, end-to-end table rows) and write "
        "a machine-readable repro-bench/1 report with an environment "
        "fingerprint.  With --baseline, compare entry by entry and exit 1 "
        "if anything regressed beyond --max-regression.",
    )
    p_perf.add_argument("--json", required=True, metavar="FILE",
                        help="output report path (BENCH_<tag>.json)")
    p_perf.add_argument("--tag", default=None,
                        help="report tag (default: derived from the filename)")
    p_perf.add_argument("--repeats", type=int, default=5, metavar="N",
                        help="micro-benchmark repetitions; best-of-N is "
                        "recorded (default 5)")
    p_perf.add_argument("--e2e-repeats", type=int, default=1, metavar="N",
                        help="end-to-end row repetitions (default 1)")
    p_perf.add_argument("--only", default=None, metavar="PREFIX",
                        help="run only entries whose name starts with PREFIX")
    p_perf.add_argument("--profile", action="store_true",
                        help="additionally run each entry once under "
                        "cProfile and dump its top-20 cumulative functions "
                        "to results/profile_<tag>/<entry>.txt")
    p_perf.add_argument("--baseline", default=None, metavar="FILE",
                        help="compare against a baseline report")
    p_perf.add_argument("--max-regression", type=float, default=2.5,
                        metavar="X", help="fail when an entry is more than "
                        "X times slower than the baseline (default 2.5)")
    p_perf.set_defaults(handler=_cmd_perf_bench)

    p_batch = sub.add_parser(
        "batch",
        help="minimize many functions in parallel through the batch engine",
        description="Fan the outputs of PLA files and/or named benchmarks "
        "across a worker pool, with result caching, per-attempt deadlines "
        "and the exact→bounded→heuristic→SP degradation ladder.",
    )
    p_batch.add_argument("targets", nargs="+",
                         help="PLA paths and/or registered benchmark names")
    p_batch.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                         metavar="N", help="worker processes (0 = run inline)")
    p_batch.add_argument("--timeout", type=float, default=None, metavar="S",
                         help="per-attempt deadline before degrading a rung")
    p_batch.add_argument("--memory-mb", type=int, default=None, metavar="MB",
                         help="per-attempt address-space budget")
    p_batch.add_argument("--cache-dir", default=None,
                         help="content-addressed result cache directory")
    p_batch.add_argument("--manifest-dir", default=None,
                         help="batch manifest directory (default: CACHE_DIR/manifest)")
    p_batch.add_argument("--resume", action="store_true",
                         help="skip jobs already completed in the manifest")
    p_batch.add_argument("--crash-cap", type=int, default=3, metavar="N",
                         help="attributed worker crashes before a job is "
                         "quarantined (default 3)")
    p_batch.add_argument("--retry-backoff", type=float, default=0.1, metavar="S",
                         help="base of the capped exponential crash-retry "
                         "backoff (default 0.1s)")
    p_batch.add_argument(
        "--method", choices=["exact", "heuristic", "bounded", "sp"], default="exact"
    )
    p_batch.add_argument("-k", type=int, default=0, help="heuristic descent depth")
    p_batch.add_argument("--bound", type=int, default=2, help="factor width bound")
    p_batch.add_argument("--covering", choices=["greedy", "exact", "auto"],
                         default="greedy")
    p_batch.add_argument("--backend", choices=["index", "trie"], default="index")
    p_batch.add_argument("--max-pseudoproducts", type=int, default=None)
    p_batch.set_defaults(handler=_cmd_batch)

    p_serve = sub.add_parser(
        "serve",
        help="run the long-lived HTTP/JSON minimization service",
        description="Front the batch engine with a threaded HTTP service: "
        "bounded admission with load shedding (429 + Retry-After), "
        "per-request cooperative budgets, a per-rung circuit breaker, a "
        "memory watchdog, /healthz + /readyz probes, and graceful "
        "SIGTERM drain.",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8351,
                         help="listen port (0 = ephemeral; default 8351)")
    _add_worker_flags(p_serve)
    p_serve.add_argument("--memory-soft-mb", type=float, default=None,
                         metavar="MB", help="RSS soft ceiling: shrink the "
                         "result cache when exceeded")
    p_serve.add_argument("--memory-hard-mb", type=float, default=None,
                         metavar="MB", help="RSS hard ceiling: shed all new "
                         "requests until RSS recedes")
    p_serve.add_argument("--manifest-dir", default=None,
                         help="journal-backed manifest directory")
    p_serve.add_argument("--drain-grace", type=float, default=10.0,
                         metavar="S", help="SIGTERM grace window before "
                         "in-flight requests are cancelled (default 10s)")
    p_serve.add_argument("--parent-pid", type=int, default=None, metavar="PID",
                         help="drain and exit if this process disappears "
                         "(used by the cluster coordinator)")
    p_serve.add_argument("--delta-entries", type=int, default=64, metavar="N",
                         help="near-duplicate context index capacity; "
                         "0 disables the warm path (default 64)")
    p_serve.set_defaults(handler=_cmd_serve)

    p_cluster = sub.add_parser(
        "cluster",
        help="run a sharded multi-process cluster of minimization services",
        description="Fork N worker processes each running the serve stack "
        "and front them with a coordinator that routes every request over "
        "a consistent-hash ring on the job content hash (shard-local "
        "caches stay hot), health-checks and restarts crashed workers, "
        "fails requests over to ring successors, and exposes /healthz, "
        "/stats and Prometheus /metrics.",
    )
    p_cluster.add_argument("--host", default="127.0.0.1")
    p_cluster.add_argument("--port", type=int, default=8350,
                           help="coordinator listen port (0 = ephemeral; "
                           "default 8350)")
    p_cluster.add_argument("--max-workers", type=int, default=None,
                           metavar="N",
                           help="autoscale up to N workers under admission-"
                           "queue pressure, reaping back to --workers after "
                           "a sustained idle window (default: no scaling)")
    p_cluster.add_argument("--no-hedge", action="store_true",
                           help="disable adaptive request hedging (on by "
                           "default at ~p95 of recent per-worker latency)")
    p_cluster.add_argument("--workers", type=int, default=4, metavar="N",
                           help="worker processes (default 4)")
    p_cluster.add_argument("--replicas", type=int, default=64, metavar="N",
                           help="virtual nodes per worker on the hash ring "
                           "(default 64)")
    p_cluster.add_argument("--failover-attempts", type=int, default=2,
                           metavar="N", help="distinct workers tried per "
                           "request before 503 (default 2)")
    p_cluster.add_argument("--hedge-after", type=float, default=None,
                           metavar="S", help="pin a static hedge delay of S "
                           "seconds instead of the adaptive ~p95 default "
                           "(safe — jobs are content-hashed and idempotent)")
    p_cluster.add_argument("--retry-budget-ratio", type=float, default=0.2,
                           metavar="R", help="retry-budget tokens deposited "
                           "per primary attempt to a worker; retries and "
                           "hedges aimed at it spend one (default 0.2, i.e. "
                           "~20%% steady-state amplification)")
    p_cluster.add_argument("--retry-budget-cap", type=float, default=10.0,
                           metavar="N", help="retry-budget bucket size per "
                           "worker — also the cold-start burst (default 10)")
    p_cluster.add_argument("--health-interval", type=float, default=0.5,
                           metavar="S", help="worker health-probe period "
                           "(default 0.5s)")
    _add_worker_flags(p_cluster)
    p_cluster.set_defaults(handler=_cmd_cluster)

    p_load = sub.add_parser(
        "loadtest",
        help="drive staged load at a serve/cluster target and report "
        "p50/p95/p99, shed rate and throughput",
        description="Closed-loop (virtual clients) or open-loop (fixed "
        "arrival rate) staged ramps over a seeded mixed small/large "
        "workload, against an existing --url and/or self-launched "
        "--compare-single / --cluster N targets.  Writes a "
        "repro-loadtest/1 JSON + markdown report pair.",
    )
    p_load.add_argument("--url", default=None,
                        help="existing target, e.g. http://127.0.0.1:8350")
    p_load.add_argument("--cluster", type=int, default=None, metavar="N",
                        help="also launch and drive an N-worker cluster")
    p_load.add_argument("--compare-single", action="store_true",
                        help="also launch and drive a single-process serve "
                        "baseline")
    p_load.add_argument("--stages", default="4x10,8x10", metavar="SPEC",
                        help="comma list of LOADxSECONDS stages; LOAD is "
                        "clients (closed mode) or rps (open mode) "
                        "(default '4x10,8x10')")
    p_load.add_argument("--mode", choices=["closed", "open"],
                        default="closed",
                        help="closed = fixed virtual clients, open = fixed "
                        "arrival rate immune to coordinated omission")
    p_load.add_argument("--seed", type=int, default=0)
    p_load.add_argument("--small-pool", type=int, default=24, metavar="N",
                        help="distinct small random instances (default 24)")
    p_load.add_argument("--large-pool", type=int, default=4, metavar="N",
                        help="distinct benchmark-sized instances (default 4)")
    p_load.add_argument("--large-fraction", type=float, default=0.25,
                        metavar="F", help="probability of drawing a large "
                        "instance (default 0.25)")
    p_load.add_argument("--dup-rate", type=float, default=0.0, metavar="F",
                        help="probability of drawing a near-duplicate "
                        "delta-form request (exercises the warm "
                        "re-minimization path; default 0)")
    p_load.add_argument("--max-rung", default="heuristic",
                        choices=["exact", "bounded", "heuristic", "sp", "none"],
                        help="ladder cap attached to every request "
                        "(default heuristic; 'none' = uncapped)")
    p_load.add_argument("--warmup-repeats", type=int, default=1, metavar="N",
                        help="passes over the distinct pool before "
                        "measuring, to prime caches (default 1)")
    p_load.add_argument("--request-timeout", type=float, default=5.0,
                        metavar="S", help="per-request rung deadline "
                        "(default 5s)")
    p_load.add_argument("--threads", type=int, default=4, metavar="N",
                        help="threads per launched server (default 4)")
    p_load.add_argument("--queue-capacity", type=int, default=8, metavar="N")
    p_load.add_argument("--hedge-after", type=float, default=None, metavar="S",
                        help="pin a static hedge delay on the launched "
                        "cluster (default: adaptive ~p95 hedging)")
    p_load.add_argument("--no-hedge", action="store_true",
                        help="disable hedging on the launched cluster")
    p_load.add_argument("--max-workers", type=int, default=None, metavar="N",
                        help="let the launched cluster autoscale up to N "
                        "workers under admission pressure")
    p_load.add_argument("--deadline", type=float, default=None, metavar="S",
                        help="stamp an end-to-end X-Repro-Deadline of S "
                        "seconds on every request; expired requests are "
                        "shed (503), reported as 'rejected'")
    p_load.add_argument("--chaos-sigstop", action="append", metavar="W@AT:DUR",
                        help="SIGSTOP launched-cluster worker W at AT "
                        "seconds for DUR seconds (repeatable), e.g. "
                        "w0@5:2.5; the clock starts when the cluster run "
                        "begins (warm-up included)")
    p_load.add_argument("--chaos-stall", default=None, metavar="P:S",
                        help="stall fraction P of coordinator->worker "
                        "proxy exchanges for S seconds (seeded via "
                        "--chaos-seed), e.g. 0.05:0.4")
    p_load.add_argument("--chaos-seed", type=int, default=0, metavar="N",
                        help="seed for probabilistic chaos draws "
                        "(default 0)")
    p_load.add_argument("--summarize", nargs="+", default=None,
                        metavar="JSON",
                        help="aggregate repeated loadtest report JSONs "
                        "into mean +/- 95%% CI per stage and exit "
                        "(ignores driving flags)")
    p_load.add_argument("--cache-dir", default=None,
                        help="cache directory for launched targets "
                        "(default: a throwaway tempdir)")
    p_load.add_argument("--service-time", type=float, default=None,
                        metavar="S", help="inject a deterministic per-"
                        "request service time into launched servers via "
                        "the fault plan (fabric-scaling experiments on "
                        "small machines)")
    p_load.add_argument("--out", default="results", metavar="DIR",
                        help="report directory (default results/)")
    p_load.add_argument("--name", default="loadtest", metavar="NAME",
                        help="report basename (default 'loadtest')")
    p_load.add_argument("--title", default="Load test", metavar="TITLE")
    p_load.add_argument("--note", action="append", metavar="TEXT",
                        help="extra note appended to the report "
                        "(repeatable)")
    p_load.set_defaults(handler=_cmd_loadtest)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential/metamorphic fuzzing of the engine rungs",
    )
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="campaign seed (fully determines the corpus)")
    p_fuzz.add_argument("--budget", type=float, default=60.0, metavar="S",
                        help="time budget in seconds (default 60)")
    p_fuzz.add_argument("--trials", type=int, default=None, metavar="N",
                        help="hard cap on trial count (default: budget-bound)")
    p_fuzz.add_argument("--n-min", type=int, default=3, metavar="N",
                        help="minimum input width (default 3)")
    p_fuzz.add_argument("--n-max", type=int, default=6, metavar="N",
                        help="maximum input width (default 6)")
    p_fuzz.add_argument("--families", default=None, metavar="LIST",
                        help="comma-separated family subset "
                        "(dense,sparse,arith-like,dc-heavy; default all)")
    p_fuzz.add_argument("--plant-bug", choices=("drop-cover",), default=None,
                        help="mutate one rung's output before checking — "
                        "proves the harness detects and shrinks a wrong "
                        "cover (testing/CI)")
    p_fuzz.add_argument("--rung-budget", type=float, default=5.0, metavar="S",
                        help="per-minimizer-call budget in seconds; a rung "
                        "that runs out is skipped (default 5)")
    p_fuzz.add_argument("--out", default="results/fuzz", metavar="DIR",
                        help="artifact directory (default results/fuzz)")
    p_fuzz.add_argument("--replay", default=None, metavar="FILE",
                        help="re-run a failure artifact instead of fuzzing")
    p_fuzz.set_defaults(handler=_cmd_fuzz)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point.  Structured errors (:mod:`repro.errors`) become a
    clean one-line message plus their taxonomy exit code: 2 usage /
    verification, 3 parse, 4 corrupt record, 5 quarantined, 6 budget
    exceeded, 7 cancelled, 8 overloaded, 9 integrity, 1 batch
    failures, 70 internal."""
    args = build_parser().parse_args(argv)
    try:
        args.handler(args)
    except ReproError as exc:
        print(f"spp-minimize: error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
