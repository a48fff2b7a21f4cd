"""The incremental heuristic — Algorithm 3 of the paper.

Instead of growing every pseudoproduct from single points, the heuristic
starts from an arbitrary cover of the function — the SP prime implicants,
"much faster to obtain than the set of prime pseudoproducts" — and runs:

1. **Initialization** — one store per degree; each prime implicant is
   inserted into the store of its degree.
2. **Descendant phase** — ``k`` steps: every pseudoproduct of degree
   ``n-i`` spawns all its ``2^{m+1}-2`` sub-pseudocubes of degree
   ``n-i-1`` (Theorem 2), which join the next store down.  ``k``
   controls the computational effort; ``k = n-1`` descends all the way
   to single points, making the subsequent ascent exhaustive (the exact
   SPP solution).
3. **Ascendant phase** — from degree 0 upward, the union step of
   Algorithm 2 (same-structure groups unify; a pseudoproduct whose
   union has no more literals is discarded from the candidate list).
4. **Set covering** over all surviving pseudoproducts.

The result is the ``SPP_k`` form: an upper bound on the exact SPP form
that improves (and slows down exponentially) as ``k`` grows — figures 3
and 4 of the paper.

Stores are the same ``basis -> {anchor}`` buckets as the scalar lane of
:mod:`repro.minimize.eppp`, and the ascent runs that lane's union step
(``_union_step``) into a store the earlier phases have already filled.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.boolfunc.function import BoolFunc
from repro.budget import Budget
from repro.core.pseudocube import Pseudocube
from repro.core.subcubes import sub_pseudocubes
from repro.kernels import BasisInterner, coverage_masks
from repro.minimize.cost import literal_cost
from repro.minimize.eppp import Buckets, _union_step
from repro.minimize.exact import SppResult, cover_with
from repro.minimize.qm import prime_implicants

__all__ = ["HeuristicStats", "minimize_spp_k"]


@dataclass
class HeuristicStats:
    """Phase-level instrumentation of one ``SPP_k`` run."""

    k: int
    num_primes: int
    descended: int
    ascended_comparisons: int
    candidates: int
    per_degree: dict[int, int] = field(default_factory=dict)


def _validate_cover(func: BoolFunc, cover: list[Pseudocube]) -> None:
    """The heuristic's input must be a cover of F: every pseudoproduct
    inside the care set, every on-point covered."""
    for pc in cover:
        if pc.n != func.n:
            raise ValueError("cover pseudoproduct over the wrong space")
    care_rows = sorted(func.care_set)
    care_masks = coverage_masks(care_rows, cover)
    for pc, mask in zip(cover, care_masks):
        if mask.bit_count() != len(pc):
            raise ValueError("cover pseudoproduct leaves the care set")
    on_rows = sorted(func.on_set)
    covered = 0
    for mask in coverage_masks(on_rows, cover):
        covered |= mask
    if covered != (1 << len(on_rows)) - 1:
        raise ValueError("initial cover does not cover the on-set")


def _insert(buckets: Buckets, basis: tuple[int, ...], anchor: int) -> bool:
    bucket = buckets.setdefault(basis, {})
    if anchor in bucket:
        return False
    bucket[anchor] = None
    return True


def minimize_spp_k(
    func: BoolFunc,
    k: int = 0,
    *,
    covering: str = "greedy",
    cost: Callable[[Pseudocube], int] = literal_cost,
    discard_equal: bool = True,
    max_comparisons: int | None = None,
    initial_cover: list[Pseudocube] | None = None,
    budget: Budget | None = None,
) -> SppResult:
    """Synthesize the ``SPP_k`` form of ``func`` (Algorithm 3).

    ``k = 0`` skips the descendant phase entirely: the ascent alone
    already finds unions like ``x1·x2·x̄4 + x̄1·x2·x4 = x2·(x1 ⊕ x4)``
    and gives "a significant upper bound of the SPP form" at a fraction
    of the exact cost (Table 3).  ``k = n-1`` reproduces the exact
    algorithm's search space.

    The paper states "the input is an arbitrary cover of the given
    function F" and uses the SP prime implicants because they are fast
    to obtain; that is the default here too, but any cover can be
    supplied via ``initial_cover`` (each pseudoproduct must lie in the
    care set, and together they must cover the on-set) — e.g. the rows
    of a PLA as parsed, skipping Quine–McCluskey entirely.

    The stores are always the bucket index; the partition-trie backend
    is exercised through the exact engine.
    """
    n = func.n
    if not 0 <= k < n:
        raise ValueError("k must be in [0, n-1]")
    if not func.on_set:
        form, optimal, seconds, stats, _ = cover_with(func, [], covering=covering)
        return SppResult(form, 0, None, optimal, 0.0, seconds, covering_stats=stats)

    t0 = time.perf_counter()
    # Phase 1: initialize per-degree stores with the initial cover
    # (default: the SP prime implicants).
    if initial_cover is None:
        primes = prime_implicants(func, budget)
        cover = [cube.to_pseudocube(n) for cube in primes]
    else:
        cover = list(initial_cover)
        _validate_cover(func, cover)
    stores: list[Buckets] = [{} for _ in range(n + 1)]
    for pc in cover:
        _insert(stores[pc.degree], pc.basis, pc.anchor)

    # Phase 2: descendant phase — k steps, top degree downwards.  The
    # budget is checked per parent: one degree level can spawn
    # |store| × (2^{m+1}-2) children, so between-level checks are not
    # enough on wide functions.
    descended = 0
    exhausted = False
    for i in range(1, k + 1):
        degree = n - i
        if degree < 1 or exhausted:
            break
        target = stores[degree - 1]
        for basis, anchors in list(stores[degree].items()):
            if exhausted:
                break
            for anchor in list(anchors):
                parent = Pseudocube._unsafe(n, anchor, basis)
                for child in sub_pseudocubes(parent):
                    if _insert(target, child.basis, child.anchor):
                        descended += 1
                if budget is not None:
                    budget.tick()
                if max_comparisons is not None and descended > max_comparisons:
                    exhausted = True  # enough material; ascent stays sound
                    break

    # Phase 3: ascendant phase — Algorithm 2's union step per degree.
    # ``max_comparisons`` bounds the per-step union work on functions
    # whose pseudoproduct lattice explodes; on overflow the step keeps
    # its whole source (a sound superset) and the ascent continues with
    # whatever reached the next degree.
    comparisons = 0
    candidates: list[Pseudocube] = []
    interner = BasisInterner()
    for degree in range(n):
        source = stores[degree]
        if not source:
            continue
        retained, step_comparisons, _, _, overflow = _union_step(
            n, source, stores[degree + 1], interner, discard_equal, None, budget,
            complete=False, max_comparisons=max_comparisons,
        )
        comparisons += step_comparisons
        # The step's retained (basis, anchors) groups, or on overflow
        # its whole source.
        groups = source.items() if overflow else retained
        candidates.extend(
            Pseudocube._unsafe(n, a, basis) for basis, anchors in groups for a in anchors
        )
    candidates.extend(
        Pseudocube._unsafe(n, a, basis)
        for basis, anchors in stores[n].items()
        for a in anchors
    )
    seconds_generation = time.perf_counter() - t0

    form, optimal, seconds_covering, cover_stats, _ = cover_with(
        func, candidates, covering=covering, cost=cost, budget=budget
    )
    result = SppResult(
        form=form,
        num_candidates=len(candidates),
        generation=None,
        covering_optimal=optimal,
        seconds_generation=seconds_generation,
        seconds_covering=seconds_covering,
        covering_stats=cover_stats,
    )
    result.heuristic = HeuristicStats(
        k=k,
        num_primes=len(cover),
        descended=descended,
        ascended_comparisons=comparisons,
        candidates=len(candidates),
        per_degree={
            d: sum(len(a) for a in stores[d].values())
            for d in range(n + 1)
            if stores[d]
        },
    )
    return result
