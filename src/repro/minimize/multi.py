"""Joint multi-output SPP minimization with pseudoproduct sharing.

The paper minimizes each output separately ("the different outputs of
each function have been minimized separately"), which this library's
:func:`~repro.minimize.exact.minimize_spp` reproduces.  In a PLA-style
realization, however, a pseudoproduct feeding several outputs is built
*once*; this module implements that extension as a tagged covering
problem:

* candidates — the union of the per-output EPPP sets, each tagged with
  every output whose care set contains it;
* rows — all ``(output, on-point)`` pairs;
* cost — the candidate's literal count, paid once no matter how many
  outputs it drives.

The result reports both the shared cost (hardware view) and the
per-output forms (each verified against its specification).
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass

from repro.boolfunc.function import MultiBoolFunc
from repro.core.pseudocube import Pseudocube
from repro.core.spp_form import SppForm
from repro.kernels import coverage_masks
from repro.minimize import covering as cov
from repro.minimize.cost import literal_cost
from repro.minimize.eppp import generate_eppp

__all__ = ["MultiSppResult", "minimize_spp_multi"]


@dataclass
class MultiSppResult:
    """Outcome of a joint multi-output minimization."""

    forms: tuple[SppForm, ...]
    shared_pseudoproducts: tuple[Pseudocube, ...]
    shared_literals: int
    covering_optimal: bool
    seconds: float
    # Reduction report of the shared covering step.
    covering_stats: dict | None = None

    @property
    def total_output_literals(self) -> int:
        """Literal count if every output paid for its own copies
        (the separate-minimization accounting)."""
        return sum(form.num_literals for form in self.forms)


def _candidate_tags(
    func: MultiBoolFunc,
    candidates: dict[Pseudocube, set[int]],
) -> None:
    """Extend each candidate's output tag with every output whose care
    set contains it (a pseudoproduct found for one output is often valid
    for siblings).

    Containment is a popcount check on the kernel masks: a pseudocube
    lies inside a care set iff its care-row mask has ``len(pc)`` bits.
    """
    cands = list(candidates)
    sizes = [len(pc) for pc in cands]
    for o, fo in enumerate(func.outputs):
        masks = coverage_masks(sorted(fo.care_set), cands)
        for pc, mask, size in zip(cands, masks, sizes):
            tag = candidates[pc]
            if o not in tag and mask.bit_count() == size:
                tag.add(o)


def minimize_spp_multi(
    func: MultiBoolFunc,
    *,
    backend: str = "index",
    covering: str = "greedy",
    cost: Callable[[Pseudocube], int] = literal_cost,
    max_pseudoproducts: int | None = None,
) -> MultiSppResult:
    """Jointly minimize all outputs of ``func`` with shared terms."""
    t0 = time.perf_counter()
    candidates: dict[Pseudocube, set[int]] = {}
    for o, fo in enumerate(func.outputs):
        if not fo.on_set:
            continue
        generation = generate_eppp(
            fo,
            backend=backend,
            max_pseudoproducts=max_pseudoproducts,
            on_limit="stop",
        )
        for pc in generation.eppps:
            candidates.setdefault(pc, set()).add(o)
    _candidate_tags(func, candidates)

    # Rows are all (output, on-point) pairs laid out contiguously per
    # output, so the tagged candidate's global mask is the OR of its
    # per-output kernel masks shifted by the output's row offset.
    rows_per_output = [sorted(fo.on_set) for fo in func.outputs]
    offsets: list[int] = []
    num_rows = 0
    for rows_o in rows_per_output:
        offsets.append(num_rows)
        num_rows += len(rows_o)

    tagged = list(candidates.items())
    cands = [pc for pc, _ in tagged]
    out_masks = [coverage_masks(rows_o, cands) for rows_o in rows_per_output]

    global_masks: list[int] = []
    for i, (_, tag) in enumerate(tagged):
        mask = 0
        for o in tag:
            mask |= out_masks[o][i] << offsets[o]
        global_masks.append(mask)

    # Payloads are candidate indices, so they address ``out_masks``.
    problem = cov.problem_from_masks(
        num_rows, global_masks, [cost(pc) for pc in cands], range(len(cands))
    )
    solution = cov.solve(problem, mode=covering)

    shared = tuple(cands[i] for i in solution.payloads)
    literals = [pc.num_literals for pc in cands]
    forms = []
    for o, rows_o in enumerate(rows_per_output):
        # Each output keeps the selected terms it needs: a shared term
        # may have been selected for a sibling output only.
        members = [
            i for i in solution.payloads if o in tagged[i][1] and out_masks[o][i]
        ]
        cov._drop_redundant(members, out_masks[o], literals, (1 << len(rows_o)) - 1)
        forms.append(SppForm(func.n, tuple(cands[i] for i in members)))
    return MultiSppResult(
        forms=tuple(forms),
        shared_pseudoproducts=shared,
        shared_literals=sum(cost(pc) for pc in shared),
        covering_optimal=solution.optimal,
        seconds=time.perf_counter() - t0,
        covering_stats=(
            solution.stats.as_dict() if solution.stats is not None else None
        ),
    )
