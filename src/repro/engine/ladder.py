"""The degradation ladder: what to run when the ideal rung won't fit.

EPPP generation is exactly the step the paper warns explodes on hard
functions, and exact covering is NP-hard on top of it.  When a rung
blows its deadline or memory budget, the scheduler walks down this
ladder, trading optimality for a guaranteed answer:

    exact SPP  →  bounded (2-SPP)  →  heuristic SPP_0  →  two-level SP

Every rung below the top yields a *verified but non-optimal* cover; the
rung that produced the answer is recorded in the result so downstream
consumers (tables, manifests) can star degraded cells.  The final SP
rung is cheap (Quine–McCluskey + greedy covering) and serves as the
never-fails floor — a two-level form always exists.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

from repro.budget import Budget
from repro.core.spp_form import SppForm
from repro.engine.job import _SOLVER_VERSION, Job, job_to_dict
from repro.integrity import VERIFIED_FULL, cover_error, make_certificate
from repro.minimize.bounded import minimize_spp_bounded
from repro.minimize.exact import minimize_spp
from repro.minimize.heuristic import minimize_spp_k
from repro.minimize.sp import minimize_sp
from repro.serialize import form_to_dict
from repro.verify import verify_form

__all__ = ["Rung", "ladder_for", "execute_rung", "seal_record", "RECORD_VERSION"]

RECORD_VERSION = 1


def seal_record(
    job: Job,
    rung: str,
    form: SppForm,
    *,
    candidates: int,
    optimal: bool,
    truncated: bool,
    extras: dict[str, Any],
    started: float,
) -> dict[str, Any]:
    """Verify ``form`` against ``job.func``, stamp its certificate, and
    build the engine record — the only place a record is built.

    A cold rung (:func:`execute_rung`) and a warm re-solve
    (:func:`repro.delta.warm_record_for`) both end here, so a warm
    record is indistinguishable from a cold one downstream.  A wrong
    cover raises :class:`~repro.errors.IntegrityError` with its
    counterexamples, and so does a literal count the independent
    recompute disagrees with: a wrong answer is an error, never a
    result.  ``started`` is the ``perf_counter`` reading the record's
    ``seconds`` is measured from.
    """
    func = job.func
    v0 = time.perf_counter()
    report = verify_form(form, func)
    verify_ms = (time.perf_counter() - v0) * 1000.0
    if not report:
        raise cover_error(f"rung {rung} produced a wrong cover", report, rung=rung)
    certificate = make_certificate(
        func,
        form,
        solver_salt=_SOLVER_VERSION,
        claimed_cost=form.num_literals,
        verified=VERIFIED_FULL,
        verify_ms=verify_ms,
    )
    return {
        "version": RECORD_VERSION,
        "kind": "engine_record",
        "job": job_to_dict(job),
        "rung": rung,
        "literals": form.num_literals,
        "pseudoproducts": form.num_pseudoproducts,
        "candidates": candidates,
        "seconds": time.perf_counter() - started,
        "optimal": optimal,
        "truncated": truncated,
        "form": form_to_dict(form),
        "integrity": certificate,
        "extras": extras,
    }


# Keep exact and bounded generation bounded in memory even when the
# caller sets no explicit budget: a deadline can kill a runaway rung, but
# only after it has already swallowed the worker's RAM.  A capped
# generation still yields a verified upper-bound cover (see minimize_spp).
_DEFAULT_EXACT_CAP = 2_000_000


@dataclass(frozen=True)
class Rung:
    """One step of the ladder: a method plus its fixed parameters."""

    name: str
    method: str
    params: dict[str, Any]


def ladder_for(job: Job) -> tuple[Rung, ...]:
    """The rung sequence for ``job``, most faithful first."""
    sp = Rung("sp", "sp", {})
    spp0 = Rung("heuristic-k0", "heuristic", {"k": 0})
    cap = job.max_pseudoproducts
    if cap is None:
        cap = _DEFAULT_EXACT_CAP
    if job.method == "exact":
        return (
            Rung("exact", "exact", {"max_pseudoproducts": cap}),
            Rung("bounded-2", "bounded", {"bound": 2, "max_pseudoproducts": cap}),
            spp0,
            sp,
        )
    if job.method == "bounded":
        return (
            Rung(
                f"bounded-{job.bound}",
                "bounded",
                {"bound": job.bound, "max_pseudoproducts": cap},
            ),
            spp0,
            sp,
        )
    if job.method == "heuristic":
        head = Rung(f"heuristic-k{job.k}", "heuristic", {"k": job.k})
        if job.k > 0:
            return (head, spp0, sp)
        return (head, sp)
    return (sp,)


def execute_rung(
    job: Job,
    rung: Rung,
    budget: Budget | None = None,
    capture: Any = None,
) -> dict[str, Any]:
    """Run one rung of ``job`` and return its :func:`seal_record` record.

    ``budget`` is threaded into the minimizer's inner loops (see
    :mod:`repro.budget`); a blown deadline/ceiling or a cancellation
    propagates as :class:`repro.errors.BudgetExceeded` /
    :class:`repro.errors.Cancelled` for the scheduler to classify.

    ``capture`` is an optional ``capture(job, rung, result, record)``
    callback invoked on successful exact rungs with the in-memory
    minimizer result, before the record is returned — the hook the
    near-duplicate index (:mod:`repro.delta`) uses to snapshot reusable
    contexts.  Only honoured where the caller shares an address space
    (the scheduler threads it on the inline path).  The callback must
    not raise: :meth:`repro.delta.DeltaIndex.observe` counts its own
    failures instead of failing the rung.
    """
    func = job.func
    t0 = time.perf_counter()
    extras: dict[str, Any] = {}
    truncated = False
    if rung.method == "sp":
        sp = minimize_sp(func, covering=job.covering, budget=budget)
        form = sp.form
        candidates = sp.num_primes
        optimal = False
        extras["num_primes"] = sp.num_primes
        if sp.covering_stats is not None:
            extras["covering"] = sp.covering_stats
    else:
        if rung.method == "heuristic":
            result = minimize_spp_k(
                func, rung.params["k"], covering=job.covering, budget=budget
            )
            optimal = False
        else:  # exact, or bounded: the same pipeline under a width filter
            options = dict(
                backend=job.backend,
                covering=job.covering,
                max_pseudoproducts=rung.params["max_pseudoproducts"],
                on_limit="stop",
                budget=budget,
            )
            if rung.method == "exact":
                result = minimize_spp(func, **options)
            else:
                result = minimize_spp_bounded(func, rung.params["bound"], **options)
            truncated = bool(result.generation and result.generation.truncated)
            optimal = (
                rung.method == "exact" and result.covering_optimal and not truncated
            )
            if result.generation is not None:
                extras["comparisons"] = result.generation.total_comparisons
        form = result.form
        candidates = result.num_candidates
        if result.covering_stats is not None:
            extras["covering"] = result.covering_stats
    record = seal_record(
        job,
        rung.name,
        form,
        candidates=candidates,
        optimal=optimal,
        truncated=truncated,
        extras=extras,
        started=t0,
    )
    if capture is not None and rung.method == "exact":
        capture(job, rung, result, record)
    return record
