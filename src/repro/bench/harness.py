"""Experiment harness regenerating the paper's tables and figures.

Each ``run_*`` function reproduces the measurement behind one table or
figure and returns dataclasses mirroring the paper's columns;
``render_*`` prints them side by side with the published values
(:mod:`repro.bench.paper_data`).

Absolute CPU times are not comparable — the paper ran a C
implementation on a Pentium III 450 — so the claims under test are the
shape claims: SPP ≈ half of SP, Algorithm 2 ≫ the naive algorithm,
``SPP_0`` roughly midway between SP and SPP at a fraction of the exact
cost, and the literal/time trade-off in ``k``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.bench.paper_data import TABLE1, TABLE2, TABLE3
from repro.bench.suite import get_benchmark
from repro.boolfunc.function import BoolFunc
from repro.minimize.eppp import GenerationBudgetExceeded, generate_eppp
from repro.minimize.exact import cover_with, minimize_spp
from repro.minimize.heuristic import minimize_spp_k
from repro.minimize.naive import generate_eppp_naive
from repro.minimize.sp import minimize_sp
from repro.report import render_table
from repro.verify import assert_equivalent

__all__ = [
    "Table1Measurement",
    "Table2Measurement",
    "Table3Measurement",
    "SweepPoint",
    "QUICK_TABLE1",
    "QUICK_TABLE2",
    "QUICK_TABLE3",
    "QUICK_FIG34",
    "FULL_TABLE2",
    "FULL_TABLE3",
    "FULL_FIG34",
    "run_table1_row",
    "run_table2_row",
    "run_table3_row",
    "run_spp_k_sweep",
    "run_table1_rows",
    "run_table2_rows",
    "run_table3_rows",
    "run_fig34_sweeps",
    "render_table1",
    "render_table2",
    "render_table3",
    "render_fig34",
]

# Instances cheap enough for the default (quick) benchmark mode; the
# full paper lists live in paper_data and are reachable with --full.
QUICK_TABLE1 = [
    "adr2", "adr3", "mlp2", "dist3", "csa2", "life6", "bcd7seg", "adr4", "life",
]
QUICK_TABLE2 = [
    ("adr3", 2),
    ("dist3", 1),
    ("csa2", 2),
    ("life6", 0),
    ("life7", 0),
    ("mlp2", 2),
]
QUICK_TABLE3 = ["adr3", "dist3", "mlp2", "csa2", "life6"]
QUICK_FIG34 = ["dist3", "life6"]

# Full-table row lists (reachable with --full): every paper row whose
# benchmark function is registered.
FULL_TABLE2 = [(row.function, row.output) for row in TABLE2]
FULL_TABLE3 = [row.function for row in TABLE3]
FULL_FIG34 = ["dist", "f51m"]


@dataclass
class Table1Measurement:
    """One row of Table 1 (whole multi-output function, outputs summed)."""

    function: str
    sp_primes: int
    sp_literals: int
    sp_products: int
    spp_eppps: int
    spp_literals: int
    spp_products: int
    seconds_sp: float
    seconds_spp: float
    truncated: bool = False
    # Covering reduction report for the SPP covering steps, summed over
    # outputs (counts added, passes maxed); None when no output
    # produced one.
    covering_stats: dict | None = None


def _merge_covering_stats(acc: dict | None, stats: dict | None) -> dict | None:
    """Accumulate per-output reduction reports into one row summary."""
    if stats is None:
        return acc
    if acc is None:
        return dict(stats)
    for key, value in stats.items():
        if key == "passes":
            acc[key] = max(acc.get(key, 0), value)
        elif isinstance(value, bool) or not isinstance(value, int):
            acc[key] = value
        else:
            acc[key] = acc.get(key, 0) + value
    return acc


@dataclass
class Table2Measurement:
    """One row of Table 2 (single output; EPPP construction times)."""

    function: str
    output: int
    literals: int
    seconds_naive: float | None
    seconds_alg2: float
    comparisons_naive: int | None
    comparisons_alg2: int


@dataclass
class Table3Measurement:
    """One row of Table 3 (SPP_0 heuristic vs exact SPP)."""

    function: str
    average: float
    spp0_literals: int
    spp0_seconds: float
    spp_literals: int | None
    spp_seconds: float | None


@dataclass
class SweepPoint:
    """One point of the figures 3/4 sweep."""

    function: str
    k: int
    literals: int
    seconds: float


def _outputs(name: str) -> list[BoolFunc]:
    func = get_benchmark(name)
    return [f for f in func.outputs if f.on_set]


def run_table1_row(
    name: str,
    *,
    covering: str = "greedy",
    max_pseudoproducts: int | None = None,
    verify: bool = True,
) -> Table1Measurement:
    """Minimize every output of ``name`` with SP and SPP (Algorithm 2),
    summing the paper's per-function metrics."""
    measurement = Table1Measurement(name, 0, 0, 0, 0, 0, 0, 0.0, 0.0)
    for fo in _outputs(name):
        t0 = time.perf_counter()
        sp = minimize_sp(fo, covering=covering)
        measurement.seconds_sp += time.perf_counter() - t0
        spp = minimize_spp(
            fo,
            covering=covering,
            max_pseudoproducts=max_pseudoproducts,
            on_limit="stop",
        )
        if verify:
            assert_equivalent(sp.form, fo)
            assert_equivalent(spp.form, fo)
        measurement.sp_primes += sp.num_primes
        measurement.sp_literals += sp.num_literals
        measurement.sp_products += sp.num_products
        measurement.spp_eppps += spp.num_candidates
        measurement.spp_literals += spp.num_literals
        measurement.spp_products += spp.num_pseudoproducts
        measurement.seconds_spp += spp.seconds
        measurement.covering_stats = _merge_covering_stats(
            measurement.covering_stats, spp.covering_stats
        )
        if spp.generation is not None and spp.generation.truncated:
            measurement.truncated = True
    return measurement


def run_table2_row(
    name: str,
    output: int,
    *,
    naive_timeout: float | None = 60.0,
    covering: str = "greedy",
    max_pseudoproducts: int | None = None,
) -> Table2Measurement:
    """EPPP-construction time, naive [5] vs Algorithm 2, for one output.

    ``max_pseudoproducts`` caps Algorithm 2's generation (XOR-heavy
    outputs of wide functions can have astronomically many
    pseudoproducts); a capped run still yields a verified upper-bound
    cover, and the naive side is given the same cap.
    """
    fo = get_benchmark(name)[output]
    t0 = time.perf_counter()
    generation = generate_eppp(
        fo, max_pseudoproducts=max_pseudoproducts, on_limit="stop"
    )
    seconds_alg2 = time.perf_counter() - t0
    form, _, _, _, _ = cover_with(fo, generation.eppps, covering=covering)
    try:
        t0 = time.perf_counter()
        naive = generate_eppp_naive(
            fo, max_seconds=naive_timeout, max_pseudoproducts=max_pseudoproducts
        )
        seconds_naive: float | None = time.perf_counter() - t0
        comparisons_naive: int | None = naive.total_comparisons
    except GenerationBudgetExceeded:
        seconds_naive = None
        comparisons_naive = None
    return Table2Measurement(
        function=name,
        output=output,
        literals=form.num_literals,
        seconds_naive=seconds_naive,
        seconds_alg2=seconds_alg2,
        comparisons_naive=comparisons_naive,
        comparisons_alg2=generation.total_comparisons,
    )


def run_table3_row(
    name: str,
    *,
    covering: str = "greedy",
    exact_budget: int | None = None,
    heuristic_budget: int | None = None,
    verify: bool = True,
) -> Table3Measurement:
    """``SPP_0`` vs exact SPP for a whole function (outputs summed).

    ``exact_budget`` bounds the exact run's pseudoproduct generation;
    exceeding it reproduces the paper's starred cells (None fields).
    ``heuristic_budget`` bounds the heuristic's per-step union work.
    """
    spp0_literals = 0
    spp0_seconds = 0.0
    spp_literals: int | None = 0
    spp_seconds: float | None = 0.0
    sp_literals = 0
    for fo in _outputs(name):
        sp_literals += minimize_sp(fo, covering=covering).num_literals
        r0 = minimize_spp_k(
            fo, 0, covering=covering, max_comparisons=heuristic_budget
        )
        if verify:
            assert_equivalent(r0.form, fo)
        spp0_literals += r0.num_literals
        spp0_seconds += r0.seconds
        if spp_literals is None:
            continue
        try:
            rx = minimize_spp(
                fo, covering=covering, max_pseudoproducts=exact_budget
            )
            if verify:
                assert_equivalent(rx.form, fo)
            spp_literals += rx.num_literals
            spp_seconds += rx.seconds
        except GenerationBudgetExceeded:
            spp_literals = None
            spp_seconds = None
    average = (
        (sp_literals + spp_literals) / 2 if spp_literals is not None else float("nan")
    )
    return Table3Measurement(
        function=name,
        average=average,
        spp0_literals=spp0_literals,
        spp0_seconds=spp0_seconds,
        spp_literals=spp_literals,
        spp_seconds=spp_seconds,
    )


def run_spp_k_sweep(
    name: str,
    *,
    ks: list[int] | None = None,
    covering: str = "greedy",
    heuristic_budget: int | None = None,
    verify: bool = True,
) -> list[SweepPoint]:
    """The figures 3/4 sweep: literals and time of ``SPP_k`` over ``k``."""
    func = get_benchmark(name)
    if ks is None:
        ks = list(range(func.n))
    points = []
    for k in ks:
        literals = 0
        seconds = 0.0
        for fo in _outputs(name):
            r = minimize_spp_k(
                fo, k, covering=covering, max_comparisons=heuristic_budget
            )
            if verify:
                assert_equivalent(r.form, fo)
            literals += r.num_literals
            seconds += r.seconds
        points.append(SweepPoint(name, k, literals, seconds))
    return points


# ----------------------------------------------------------------------
# Engine-routed runners (parallel + cached; see repro.engine)
# ----------------------------------------------------------------------
#
# The sequential ``run_*_row`` functions above stay the reference
# implementation; these fan the same measurements across a worker pool
# through the batch engine, so table rows run in parallel, repeated
# minimizations hit the result cache, and a row that explodes degrades
# down the ladder (marked "capped") instead of wedging the whole table.

def _engine_outputs(name: str) -> list[tuple[int, BoolFunc]]:
    func = get_benchmark(name)
    return [(o, f) for o, f in enumerate(func.outputs) if f.on_set]


def run_table1_rows(
    names: list[str],
    *,
    covering: str = "greedy",
    max_pseudoproducts: int | None = None,
    workers: int | None = None,
    timeout: float | None = None,
    cache=None,
    delta_index=None,
) -> list[Table1Measurement]:
    """Table 1 via the batch engine: every (output × method) is one job.

    ``delta_index`` (a :class:`repro.delta.DeltaIndex`) lets cache-missed
    exact jobs try the near-duplicate warm path first; its counters end
    up in the ``tables --perf-json`` report meta.
    """
    from repro.engine import Job, run_batch

    jobs: list[Job] = []
    keys: list[tuple[str, str]] = []
    for name in names:
        for o, fo in _engine_outputs(name):
            jobs.append(Job(fo, method="sp", covering=covering, label=f"{name}[{o}]/sp"))
            keys.append((name, "sp"))
            jobs.append(
                Job(
                    fo,
                    method="exact",
                    covering=covering,
                    max_pseudoproducts=max_pseudoproducts,
                    label=f"{name}[{o}]/spp",
                )
            )
            keys.append((name, "spp"))
    batch = run_batch(
        jobs, workers=workers, timeout=timeout, cache=cache, delta_index=delta_index
    )
    rows = {n: Table1Measurement(n, 0, 0, 0, 0, 0, 0, 0.0, 0.0) for n in names}
    for (name, kind), outcome in zip(keys, batch):
        record = outcome.record
        if record is None:
            raise RuntimeError(f"job {outcome.job.display_label} failed: {outcome.attempts}")
        m = rows[name]
        if kind == "sp":
            m.sp_primes += record["extras"].get("num_primes", record["candidates"])
            m.sp_literals += record["literals"]
            m.sp_products += record["pseudoproducts"]
            m.seconds_sp += record["seconds"]
        else:
            m.spp_eppps += record["candidates"]
            m.spp_literals += record["literals"]
            m.spp_products += record["pseudoproducts"]
            m.seconds_spp += record["seconds"]
            m.covering_stats = _merge_covering_stats(
                m.covering_stats, record["extras"].get("covering")
            )
            if record.get("truncated") or record.get("degraded"):
                m.truncated = True
    return [rows[n] for n in names]


def run_table2_rows(
    pairs: list[tuple[str, int]],
    *,
    naive_timeout: float | None = 60.0,
    covering: str = "greedy",
    max_pseudoproducts: int | None = None,
    workers: int | None = None,
) -> list[Table2Measurement]:
    """Table 2 rows in parallel.

    A row here is a timing *race* (naive [5] vs Algorithm 2 on the same
    output), not a single minimization, so it goes through the engine's
    generic process-pool map rather than the job/cache path.
    """
    from repro.engine import parallel_map

    return parallel_map(
        _table2_row_task,
        [
            (name, output, naive_timeout, covering, max_pseudoproducts)
            for name, output in pairs
        ],
        workers=workers,
        star=True,
    )


def _table2_row_task(
    name: str,
    output: int,
    naive_timeout: float | None,
    covering: str,
    max_pseudoproducts: int | None,
) -> Table2Measurement:
    return run_table2_row(
        name,
        output,
        naive_timeout=naive_timeout,
        covering=covering,
        max_pseudoproducts=max_pseudoproducts,
    )


def run_table3_rows(
    names: list[str],
    *,
    covering: str = "greedy",
    exact_budget: int | None = None,
    workers: int | None = None,
    timeout: float | None = None,
    cache=None,
) -> list[Table3Measurement]:
    """Table 3 via the batch engine (SP + SPP_0 + exact SPP per output).

    An exact job that was budget-truncated or degraded down the ladder
    reproduces the paper's starred cells (None fields), mirroring the
    sequential runner's ``GenerationBudgetExceeded`` behavior.
    """
    from repro.engine import Job, run_batch

    jobs: list[Job] = []
    keys: list[tuple[str, str]] = []
    for name in names:
        for o, fo in _engine_outputs(name):
            label = f"{name}[{o}]"
            jobs.append(Job(fo, method="sp", covering=covering, label=f"{label}/sp"))
            keys.append((name, "sp"))
            jobs.append(
                Job(fo, method="heuristic", k=0, covering=covering, label=f"{label}/spp0")
            )
            keys.append((name, "spp0"))
            jobs.append(
                Job(
                    fo,
                    method="exact",
                    covering=covering,
                    max_pseudoproducts=exact_budget,
                    label=f"{label}/spp",
                )
            )
            keys.append((name, "spp"))
    batch = run_batch(jobs, workers=workers, timeout=timeout, cache=cache)
    sp_literals = {n: 0 for n in names}
    rows = {n: Table3Measurement(n, 0.0, 0, 0.0, 0, 0.0) for n in names}
    starred: set[str] = set()
    for (name, kind), outcome in zip(keys, batch):
        record = outcome.record
        if record is None:
            raise RuntimeError(f"job {outcome.job.display_label} failed: {outcome.attempts}")
        m = rows[name]
        if kind == "sp":
            sp_literals[name] += record["literals"]
        elif kind == "spp0":
            m.spp0_literals += record["literals"]
            m.spp0_seconds += record["seconds"]
        else:
            if record.get("truncated") or record.get("degraded"):
                starred.add(name)
            elif name not in starred:
                m.spp_literals += record["literals"]
                m.spp_seconds += record["seconds"]
    for name in names:
        m = rows[name]
        if name in starred:
            m.spp_literals = None
            m.spp_seconds = None
            m.average = float("nan")
        else:
            m.average = (sp_literals[name] + m.spp_literals) / 2
    return [rows[n] for n in names]


def run_fig34_sweeps(
    names: list[str],
    *,
    ks: list[int] | None = None,
    covering: str = "greedy",
    workers: int | None = None,
    timeout: float | None = None,
    cache=None,
) -> list[SweepPoint]:
    """The figures 3/4 sweep via the batch engine: one job per
    (function, output, k); the shared ``k=0`` work caches across sweeps."""
    from repro.engine import Job, run_batch

    jobs: list[Job] = []
    keys: list[tuple[str, int]] = []
    for name in names:
        func = get_benchmark(name)
        sweep = ks if ks is not None else list(range(func.n))
        for k in sweep:
            for o, fo in _engine_outputs(name):
                jobs.append(
                    Job(
                        fo,
                        method="heuristic",
                        k=k,
                        covering=covering,
                        label=f"{name}[{o}]/k{k}",
                    )
                )
                keys.append((name, k))
    batch = run_batch(jobs, workers=workers, timeout=timeout, cache=cache)
    points: dict[tuple[str, int], SweepPoint] = {}
    for (name, k), outcome in zip(keys, batch):
        record = outcome.record
        if record is None:
            raise RuntimeError(f"job {outcome.job.display_label} failed: {outcome.attempts}")
        point = points.setdefault((name, k), SweepPoint(name, k, 0, 0.0))
        point.literals += record["literals"]
        point.seconds += record["seconds"]
    return [points[key] for key in dict.fromkeys(keys)]


# ----------------------------------------------------------------------
# Rendering (side-by-side with the paper's published values)
# ----------------------------------------------------------------------

def render_table1(measurements: list[Table1Measurement]) -> str:
    paper = {row.function: row for row in TABLE1}
    rows = []
    for m in measurements:
        p = paper.get(m.function)
        rows.append(
            [
                m.function + (" (capped)" if m.truncated else ""),
                m.sp_primes,
                m.sp_literals,
                m.sp_products,
                m.spp_eppps,
                m.spp_literals,
                m.spp_products,
                p.sp_literals if p else None,
                p.spp_literals if p else None,
                round(m.spp_literals / m.sp_literals, 2) if m.sp_literals else None,
            ]
        )
    return render_table(
        [
            "function",
            "#PI",
            "#L(SP)",
            "#P",
            "#EPPP",
            "#L(SPP)",
            "#PP",
            "paper L(SP)",
            "paper L(SPP)",
            "SPP/SP",
        ],
        rows,
        title="Table 1 — SP vs SPP (measured | paper)",
    )


def render_table2(measurements: list[Table2Measurement]) -> str:
    paper = {(row.function, row.output): row for row in TABLE2}
    rows = []
    for m in measurements:
        p = paper.get((m.function, m.output))
        speedup = (
            round(m.seconds_naive / m.seconds_alg2, 1)
            if m.seconds_naive and m.seconds_alg2 > 0
            else None
        )
        rows.append(
            [
                f"{m.function}({m.output})",
                m.literals,
                None if m.seconds_naive is None else round(m.seconds_naive, 3),
                round(m.seconds_alg2, 3),
                speedup,
                m.comparisons_naive,
                m.comparisons_alg2,
                p.seconds_naive if p else None,
                p.seconds_alg2 if p else None,
            ]
        )
    return render_table(
        [
            "function",
            "#L",
            "naive s",
            "alg2 s",
            "speedup",
            "cmp naive",
            "cmp alg2",
            "paper naive s",
            "paper alg2 s",
        ],
        rows,
        title="Table 2 — EPPP construction time, naive [5] vs Algorithm 2",
    )


def render_table3(measurements: list[Table3Measurement]) -> str:
    paper = {row.function: row for row in TABLE3}
    rows = []
    for m in measurements:
        p = paper.get(m.function)
        rows.append(
            [
                m.function,
                round(m.average, 1),
                m.spp0_literals,
                round(m.spp0_seconds, 3),
                m.spp_literals,
                None if m.spp_seconds is None else round(m.spp_seconds, 3),
                p.spp0_literals if p else None,
                p.spp_literals if p else None,
            ]
        )
    return render_table(
        [
            "function",
            "Av",
            "#L SPP0",
            "SPP0 s",
            "#L SPP",
            "SPP s",
            "paper L0",
            "paper L",
        ],
        rows,
        title="Table 3 — heuristic (k=0) vs exact SPP",
    )


def render_fig34(points: list[SweepPoint]) -> str:
    rows = [
        [p.function, p.k, p.literals, round(p.seconds, 3)] for p in points
    ]
    return render_table(
        ["function", "k", "#L SPP_k", "seconds"],
        rows,
        title="Figures 3/4 — SPP_k literals and CPU time vs k",
    )
