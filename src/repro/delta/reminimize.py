"""Delta application — patch, don't recompute.

The warm path rests on **candidate-order purity**: EPPP generation is a
pure function of the care set ``on ∪ dc`` alone (every level sorted by
(basis, anchor)).  So for a care-set-preserving edit (on↔dc toggles)
the base candidate list is reusable *verbatim, in order*, and the only
work left is the covering step:

1. patch the base covering problem when the edit only retires rows —
   delete the retired rows and re-apply
   :func:`~repro.kernels.coverage.build_problem`'s zero-mask drop
   filter.  Where the base problem has a packed matrix (numpy, and at
   least ``MIN_COLUMNS_FOR_VECTOR`` columns) the rows are deleted from
   it with word shifts, the empty columns dropped with one ``any``, and
   the edited problem's masks unpacked from the result, which becomes
   its matrix: the greedy solve then neither re-packs nor re-proves
   anything Python-int-wise.  Smaller problems, and ``REPRO_NO_NUMPY=1``,
   patch the Python-int masks by bit surgery.  An edit that appends rows
   rebuilds the problem with ``build_problem`` over the base candidates.
   Either way the problem is **bit-identical** to the one a cold solve
   would build;
2. run the identical solver.  Identical problem + deterministic solver
   ⇒ identical cover, so warm results match cold results bit for bit.
   In exact mode the prior cover is additionally passed as a warm-start
   upper bound (used only as a fallback incumbent when the node budget
   runs out — a proved search is unaffected).

Care-set-*changing* edits are refused with :class:`DeltaIneligible`:
greedy covering is order-sensitive, so splicing freshly generated
candidates into the stream could change the answer.  The engine's
index files contexts by care set, so it never offers such a base: the
request runs cold on its own ladder.
"""

from __future__ import annotations

import time
from bisect import bisect_left

from repro.boolfunc.function import BoolFunc
from repro.budget import Budget
from repro.core.pseudocube import Pseudocube
from repro.core.spp_form import SppForm
from repro.delta.context import MinimizationContext
from repro.kernels.coverage import build_problem
from repro.minimize import covering as cov
from repro.minimize.exact import SppResult, trivial_result

__all__ = ["DeltaIneligible", "eligibility", "warm_minimize"]


class DeltaIneligible(Exception):
    """The edit cannot be applied warm; carries the reason slug."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def eligibility(base: MinimizationContext, func: BoolFunc) -> str | None:
    """Why ``func`` cannot reuse ``base`` — or None when it can.

    Reason slugs, in precedence order: ``dimension-changed``,
    ``care-set-changed``.  Any care-set-preserving edit is eligible,
    whatever its size: the base candidate list is the edited function's
    own.
    """
    if func.n != base.func.n:
        return "dimension-changed"
    if func.care_set != base.func.care_set:
        return "care-set-changed"
    return None


def _patched_problem(
    base: MinimizationContext, func: BoolFunc, budget: Budget | None
) -> cov.CoveringProblem[Pseudocube]:
    """The covering problem of the edited on-set over the base candidates.

    An edit that only retires rows can only empty columns, so the base
    problem is patched: each retired row is deleted (higher rows shift
    down) and the columns left empty are dropped.  Where the base has a
    packed matrix, the patch runs on it
    (:meth:`~repro.kernels.bitmat.BitMatrix.delete_rows`), the edited
    problem keeps the result as its own matrix and its masks are
    unpacked from it; otherwise the masks are patched by Python-int bit
    surgery.  An edit that appends rows can revive a column the cold
    build dropped, so it rebuilds with
    :func:`~repro.kernels.coverage.build_problem`.  Either way the
    result equals ``build_problem(sorted(on′), candidates)`` exactly —
    asserted by the patch-parity tests.
    """
    on1 = base.func.on_set
    on2 = func.on_set
    if on2 - on1:
        return build_problem(sorted(on2), base.candidates, budget=budget)
    rows1 = sorted(on1)
    rem_pos = [bisect_left(rows1, p) for p in on1 - on2]
    problem = base.problem
    if budget is not None:
        budget.tick(-(-problem.num_columns // 4096))  # one per 4096 columns, rounded up
    bm = problem.packed()
    if bm is not None:
        matrix, kept = bm.delete_rows(rem_pos)
        if kept is None:
            costs, payloads = list(problem.costs), problem.payloads
        else:
            costs = [problem.costs[i] for i in kept]
            payloads = cov.take_payloads(problem.payloads, kept)
        return cov.CoveringProblem(len(on2), None, costs, payloads, matrix=matrix)
    # Delete highest positions first so lower ones stay valid.
    rem_pos.sort(reverse=True)
    out = []
    for mask in problem.column_masks:
        for i in rem_pos:
            low = (1 << i) - 1
            mask = (mask & low) | ((mask >> 1) & ~low)
        out.append(mask)
    return cov.problem_from_masks(len(on2), out, problem.costs, problem.payloads)


def warm_minimize(
    base: MinimizationContext,
    func: BoolFunc,
    *,
    budget: Budget | None = None,
) -> SppResult:
    """Re-minimize ``func`` warm from ``base``; the result is
    bit-identical to a cold :func:`~repro.minimize.exact.minimize_spp`
    with the base's covering mode (modulo the exact-mode warm-start,
    which only engages when the cold search would have failed to
    prove).

    Raises :class:`DeltaIneligible` when the edit cannot go warm.
    """
    reason = eligibility(base, func)
    if reason is not None:
        raise DeltaIneligible(reason)
    trivial = trivial_result(func)
    if trivial is not None:
        return trivial
    t0 = time.perf_counter()
    problem = _patched_problem(base, func, budget)
    if budget is not None:
        budget.check()
    seed = None
    if base.covering == "exact" and base.form.pseudoproducts:
        index_of: dict[Pseudocube, int] = {}
        for i, pc in enumerate(problem.payloads):
            index_of.setdefault(pc, i)
        seed = [index_of[pc] for pc in base.form.pseudoproducts if pc in index_of]
        if len(seed) != len(base.form.pseudoproducts):
            seed = None  # a prior column vanished; the old cover is no witness
    solution = cov.solve(problem, mode=base.covering, budget=budget, seed=seed)
    form = SppForm(func.n, tuple(solution.payloads))
    return SppResult(
        form=form,
        num_candidates=len(base.candidates),
        generation=None,
        covering_optimal=solution.optimal,
        seconds_generation=0.0,
        seconds_covering=time.perf_counter() - t0,
        covering_stats=solution.stats.as_dict() if solution.stats is not None else None,
    )
