"""Delta application — patch, don't recompute.

The warm path rests on **candidate-order purity**: EPPP generation is a
pure function of the care set ``on ∪ dc`` alone (the degree-0 bucket is
``sorted(care_set)`` and every later bucket/anchor order derives
deterministically from it).  So for a care-set-preserving edit (on↔dc
toggles) the base candidate list is reusable *verbatim, in order*, and
the only work left is the covering step:

1. patch the base coverage masks by bit surgery — delete the mask bits
   of retired rows, splice in the bits of appended rows (computed with
   the vectorized structure-grouped kernel over just the added points);
2. re-apply :func:`~repro.kernels.coverage.build_problem`'s zero-mask
   drop filter, producing a covering problem **bit-identical** to the
   one a cold solve would build;
3. run the identical solver.  Identical problem + deterministic solver
   ⇒ identical cover, so warm results match cold results bit for bit.
   In exact mode the prior cover is additionally passed as a warm-start
   upper bound (used only as a fallback incumbent when the node budget
   runs out — a proved search is unaffected).

Care-set-*changing* edits fall back to the cold path: greedy covering
is order-sensitive, so splicing freshly generated candidates into the
stream could change the answer.  The fallback mirrors the base solve's
parameters exactly.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass

from repro.boolfunc.function import BoolFunc
from repro.budget import Budget
from repro.core.pseudocube import Pseudocube
from repro.core.spp_form import SppForm
from repro.delta.context import MinimizationContext
from repro.kernels.coverage import coverage_masks
from repro.minimize import covering as cov
from repro.minimize.exact import SppResult, minimize_spp

__all__ = [
    "DEFAULT_MAX_EDIT",
    "DeltaIneligible",
    "DeltaResult",
    "eligibility",
    "warm_minimize",
    "reminimize",
]

# Edits past this many toggled points go cold: the covering patch stays
# cheap, but a large edit is no longer "the same function with noise"
# and the near-duplicate index should not pretend otherwise.
DEFAULT_MAX_EDIT = 8


class DeltaIneligible(Exception):
    """The edit cannot be applied warm; carries the reason slug."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass
class DeltaResult:
    """Outcome of :func:`reminimize`."""

    result: SppResult
    warm: bool
    reason: str  # "warm" or the fallback reason slug
    edit_size: int
    seconds: float


def eligibility(
    base: MinimizationContext,
    func: BoolFunc,
    *,
    max_edit: int = DEFAULT_MAX_EDIT,
) -> str | None:
    """Why ``func`` cannot reuse ``base`` — or None when it can.

    Reason slugs: ``dimension-changed``, ``care-set-changed``,
    ``edit-too-large``, ``context-stale``.
    """
    if func.n != base.func.n:
        return "dimension-changed"
    if func.care_set != base.func.care_set:
        return "care-set-changed"
    if len(base.func.on_set ^ func.on_set) > max_edit:
        return "edit-too-large"
    if base.is_stale():
        return "context-stale"
    return None


def _patched_rows_and_masks(
    base: MinimizationContext, func: BoolFunc, budget: Budget | None
) -> tuple[list[int], list[int]]:
    """Bit-surgery the base coverage masks onto the edited on-set.

    Retired rows have their bit deleted (higher bits shift down);
    appended rows have a bit spliced in (higher bits shift up), with
    the new bits computed by one vectorized
    :func:`~repro.kernels.coverage.coverage_masks` pass over just the
    added points.  The output equals ``masks_and_costs(sorted(on′),
    candidates)`` exactly — asserted by the property suite.
    """
    on1 = base.func.on_set
    on2 = func.on_set
    removed = sorted(on1 - on2)
    added = sorted(on2 - on1)
    if not removed and not added:
        return list(base.rows), list(base.masks)
    rows2 = sorted(on2)
    # Delete highest positions first so lower ones stay valid.
    rem_pos = sorted((bisect_left(base.rows, p) for p in removed), reverse=True)
    # Insert in ascending final position so earlier splices are counted.
    add_pos = [bisect_left(rows2, p) for p in added]
    amasks = coverage_masks(added, base.candidates, budget=budget) if added else None
    out = []
    for j, mask in enumerate(base.masks):
        if budget is not None and j % 4096 == 0:
            budget.tick()
        for i in rem_pos:
            low = (1 << i) - 1
            mask = (mask & low) | ((mask >> 1) & ~low)
        if amasks is not None:
            am = amasks[j]
            for t, pos in enumerate(add_pos):
                low = (1 << pos) - 1
                mask = (mask & low) | ((mask & ~low) << 1) | (((am >> t) & 1) << pos)
        out.append(mask)
    return rows2, out


def warm_minimize(
    base: MinimizationContext,
    func: BoolFunc,
    *,
    max_edit: int = DEFAULT_MAX_EDIT,
    budget: Budget | None = None,
) -> SppResult:
    """Re-minimize ``func`` warm from ``base``; the result is
    bit-identical to a cold :func:`~repro.minimize.exact.minimize_spp`
    with the base's parameters (modulo the exact-mode warm-start, which
    only engages when the cold search would have failed to prove).

    Raises :class:`DeltaIneligible` when the edit cannot go warm.
    """
    reason = eligibility(base, func, max_edit=max_edit)
    if reason is not None:
        raise DeltaIneligible(reason)
    # Replicate minimize_spp's preamble on the edited function.
    if not func.on_set:
        return SppResult(SppForm(func.n, ()), 0, None, True, 0.0, 0.0)
    if not func.dc_set:
        t0 = time.perf_counter()
        try:
            single = Pseudocube.from_points(func.n, func.on_set)
        except ValueError:
            single = None
        if single is not None:
            return SppResult(
                form=SppForm(func.n, (single,)),
                num_candidates=1,
                generation=None,
                covering_optimal=True,
                seconds_generation=time.perf_counter() - t0,
                seconds_covering=0.0,
            )
    t0 = time.perf_counter()
    rows2, masks2 = _patched_rows_and_masks(base, func, budget)
    if budget is not None:
        budget.check()
    problem = cov.problem_from_masks(len(rows2), masks2, base.costs, base.candidates)
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


def reminimize(
    base: MinimizationContext,
    func: BoolFunc,
    *,
    max_edit: int = DEFAULT_MAX_EDIT,
    budget: Budget | None = None,
) -> DeltaResult:
    """Warm re-minimization with automatic cold fallback.

    Warm when the edit preserves the care set and stays under
    ``max_edit``; otherwise a cold solve mirroring the base parameters
    (same backend/covering/cap, ``on_limit="stop"``).  Either way the
    returned cover is one the cold path could have produced.
    """
    t0 = time.perf_counter()
    edit = len(base.func.on_set ^ func.on_set) if func.n == base.func.n else -1
    try:
        result = warm_minimize(base, func, max_edit=max_edit, budget=budget)
        return DeltaResult(result, True, "warm", edit, time.perf_counter() - t0)
    except DeltaIneligible as exc:
        result = minimize_spp(
            func,
            backend=base.backend,
            covering=base.covering,
            max_pseudoproducts=base.max_pseudoproducts,
            on_limit="stop",
            budget=budget,
        )
        return DeltaResult(result, False, exc.reason, edit, time.perf_counter() - t0)
