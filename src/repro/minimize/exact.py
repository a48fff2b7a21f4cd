"""Exact SPP minimization — Algorithm 2 end to end.

1. build the EPPP set with partition-trie grouping
   (:mod:`repro.minimize.eppp`);
2. solve the set covering problem over the on-set with literal-count
   costs (:mod:`repro.minimize.covering`).

"Exact" refers to the candidate generation: like the paper, the
covering step may be solved heuristically (the default), in which case
the literal count is an upper bound on the true minimum — Table 1's
caveat ("Since we used some heuristics in solving the set covering
problem, the number of literals and factors in the expressions are
upper bounds").  Pass ``covering="exact"`` for a provably minimal
selection on instances small enough for branch-and-bound.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.boolfunc.function import BoolFunc
from repro.budget import Budget
from repro.core.pseudocube import Pseudocube
from repro.core.spp_form import SppForm
from repro.kernels import build_problem, coverage_masks
from repro.minimize import covering as cov
from repro.minimize.cost import literal_cost
from repro.minimize.eppp import (
    EpppColumns,
    EpppResult,
    _basis_factor_width,
    generate_eppp,
)
from repro.minimize.qm import prime_implicants

__all__ = ["SppResult", "minimize_spp", "cover_with", "trivial_result"]


@dataclass
class SppResult:
    """Outcome of an SPP minimization (exact or heuristic)."""

    form: SppForm
    num_candidates: int
    generation: EpppResult | None
    covering_optimal: bool
    seconds_generation: float
    seconds_covering: float
    # Populated by the SPP_k heuristic with its phase statistics.
    heuristic: object | None = None
    # Reduction report of the covering step (rows/columns
    # eliminated, components, cyclic-core size), when one was produced.
    covering_stats: dict | None = None
    # The covering problem minimize_spp selected its cover from (after
    # the zero-coverage drop); delta contexts reuse it.
    problem: cov.CoveringProblem[Pseudocube] | None = None

    @property
    def num_literals(self) -> int:
        return self.form.num_literals

    @property
    def num_pseudoproducts(self) -> int:
        return self.form.num_pseudoproducts

    @property
    def seconds(self) -> float:
        return self.seconds_generation + self.seconds_covering


def cover_with(
    func: BoolFunc,
    candidates: Sequence[Pseudocube],
    *,
    covering: str = "greedy",
    cost: Callable[[Pseudocube], int] = literal_cost,
    max_candidates: int = 400_000,
    budget: Budget | None = None,
) -> tuple[SppForm, bool, float, dict | None, cov.CoveringProblem[Pseudocube]]:
    """Select a minimal-cost subset of ``candidates`` covering the on-set.

    Candidate lists beyond ``max_candidates`` (they arise from
    budget-truncated generations) are pruned before covering: the most
    efficient candidates (fewest literals per covered point) are kept,
    plus, for every on-point, the most efficient candidate covering it
    (so feasibility is preserved).  A pruned instance can no longer be
    solved exactly, so ``proved_optimal`` is forced off.

    Returns ``(form, proved_optimal, seconds, reduction_stats, problem)``
    where ``reduction_stats`` is the covering reduction report as a dict
    (or None when the problem had no rows) and ``problem`` is the
    covering problem that was solved.
    """
    t0 = time.perf_counter()
    pruned = False
    if len(candidates) > max_candidates:
        candidates = _prune_candidates(
            func, candidates, cost, max_candidates, budget
        )
        pruned = True
    rows = sorted(func.on_set)
    if budget is not None:
        budget.check()
    problem = build_problem(rows, candidates, cost_of=cost, budget=budget)
    solution = cov.solve(problem, mode=covering, budget=budget)
    form = SppForm(func.n, tuple(solution.payloads))
    optimal = solution.optimal and not pruned
    stats = solution.stats.as_dict() if solution.stats is not None else None
    return form, optimal, time.perf_counter() - t0, stats, problem


# Candidates rated between two budget checks in `_prune_candidates`.
_PRUNE_CHUNK = 1 << 16


def _prune_candidates(
    func: BoolFunc,
    candidates: Sequence[Pseudocube],
    cost: Callable[[Pseudocube], int],
    limit: int,
    budget: Budget | None = None,
) -> list[Pseudocube]:
    """Keep the ``limit`` most efficient candidates plus one feasibility
    witness per on-point.

    The lists pruned here come from truncated generations, millions of
    candidates long, so ``budget`` is checked between chunks of the
    efficiency pass and ticked by the coverage kernel."""
    if isinstance(candidates, EpppColumns):
        candidates = candidates.materialize(budget)
    efficiency: list[float] = []
    for start in range(0, len(candidates), _PRUNE_CHUNK):
        if budget is not None:
            budget.check()
        efficiency.extend(
            cost(pc) / len(pc) for pc in candidates[start : start + _PRUNE_CHUNK]
        )
    # A stable sort of the indices: ties keep their candidate order.
    order = sorted(range(len(candidates)), key=efficiency.__getitem__)
    ranked = [candidates[i] for i in order]
    keep = ranked[:limit]
    rows = sorted(func.on_set)
    masks = coverage_masks(rows, ranked, budget=budget)
    covered = 0
    for mask in masks[:limit]:
        covered |= mask
    missing = ((1 << len(rows)) - 1) & ~covered
    if missing:
        for pos in range(limit, len(ranked)):
            hit = missing & masks[pos]
            if hit:
                keep.append(ranked[pos])
                missing &= ~hit
                if not missing:
                    break
    return keep


def trivial_result(func: BoolFunc, factor_width: int | None = None) -> SppResult | None:
    """The answer that needs no generation, or None.

    An empty on-set gets the empty form.  A completely specified
    function whose on-set is itself one pseudocube (within
    ``factor_width``, when given) gets that single pseudoproduct.
    """
    if not func.on_set:
        return SppResult(SppForm(func.n, ()), 0, None, True, 0.0, 0.0)
    if func.dc_set:
        return None
    t0 = time.perf_counter()
    try:
        single = Pseudocube.from_points(func.n, func.on_set)
    except ValueError:
        return None
    if factor_width is not None and _basis_factor_width(func.n, single.basis) > factor_width:
        return None
    return SppResult(
        form=SppForm(func.n, (single,)),
        num_candidates=1,
        generation=None,
        covering_optimal=True,
        seconds_generation=time.perf_counter() - t0,
        seconds_covering=0.0,
    )


def minimize_spp(
    func: BoolFunc,
    *,
    backend: str = "index",
    covering: str = "greedy",
    cost: Callable[[Pseudocube], int] = literal_cost,
    factor_width: int | None = None,
    max_pseudoproducts: int | None = None,
    on_limit: str = "raise",
    budget: Budget | None = None,
) -> SppResult:
    """Minimize ``func`` as an SPP form (Algorithm 2).

    Completely specified functions whose on-set is itself a pseudocube
    (affine functions, parities, tautologies) are recognized up front
    and returned as the single-pseudoproduct form: that form is
    minimum-literal (any cover by sub-pseudocubes costs at least as
    much — verified exhaustively for n ≤ 4 and by the halving argument
    in docs/THEORY.md), and skipping generation avoids enumerating the
    astronomically many sub-pseudocubes of a large coset.

    ``factor_width`` restricts the candidates to pseudoproducts whose
    EXOR factors have at most that many literals (see
    :func:`~repro.minimize.eppp.generate_eppp`); the single-coset
    shortcut then applies only to a coset within the bound.

    ``budget`` is a cooperative :class:`~repro.budget.Budget` threaded
    into generation and covering; a blown deadline, memory ceiling or
    cancellation raises :class:`repro.errors.BudgetExceeded` /
    :class:`repro.errors.Cancelled` from the inner loops.
    """
    trivial = trivial_result(func, factor_width)
    if trivial is not None:
        return trivial
    generation = generate_eppp(
        func,
        backend=backend,
        factor_width=factor_width,
        max_pseudoproducts=max_pseudoproducts,
        on_limit=on_limit,
        budget=budget,
    )
    candidates = generation.eppps
    if generation.truncated:
        # A capped generation may have lost the mid-degree pseudoproducts
        # a good cover needs; the SP prime implicants are always valid
        # pseudoproducts and guarantee the result is no worse than a
        # two-level cover.
        candidates = candidates + [
            cube.to_pseudocube(func.n) for cube in prime_implicants(func, budget)
        ]
    form, optimal, cover_seconds, cover_stats, problem = cover_with(
        func, candidates, covering=covering, cost=cost, budget=budget
    )
    return SppResult(
        form=form,
        num_candidates=len(generation.eppps),
        generation=generation,
        covering_optimal=optimal,
        seconds_generation=generation.seconds,
        seconds_covering=cover_seconds,
        covering_stats=cover_stats,
        problem=problem,
    )
