"""Minimization contexts.

A :class:`MinimizationContext` references what a completed exact
minimization already built, for reuse on a near-duplicate function:

* the EPPP candidates **in generation order** (order matters —
  greedy covering is order-sensitive, and bit-identical warm results
  depend on replaying the exact same column stream): the generator's
  columns when it ran packed, so an edit that appends rows rebuilds its
  problem from them with the columnar kernel;
* the covering problem the cold solve selected its cover from, with
  its packed matrix (built by the columnar kernel, or packed by the
  cold greedy solve), so an edit that only retires rows can patch that
  matrix (or, on the scalar path, its masks) instead of rebuilding the
  problem;
* the base cover and the covering mode that produced it.

Capture copies and computes nothing: it runs no kernel and builds no
trie, it only keeps references to the solve's own lists.  Nothing
mutates them afterwards (``covering.solve`` leaves a problem's arrays
as it found them), and every warm result is re-verified and certified
before it is served.

Contexts are only built from *untruncated* generations: a capped
generation's candidate stream is an artifact of where the cap landed,
not of the function, so nothing about it transfers to an edit.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.boolfunc.function import BoolFunc
from repro.core.pseudocube import Pseudocube
from repro.core.spp_form import SppForm
from repro.minimize.covering import CoveringProblem
from repro.minimize.exact import SppResult

__all__ = ["MinimizationContext", "build_context", "toggle_points"]

# A context keeps its candidate list and covering problem alive for as
# long as the index holds it, so this bounds the memory one entry pins.
MAX_CONTEXT_CANDIDATES = 100_000


@dataclass
class MinimizationContext:
    """Reusable state of one completed exact SPP minimization."""

    func: BoolFunc
    candidates: Sequence[Pseudocube]
    problem: CoveringProblem[Pseudocube]
    form: SppForm
    covering: str
    generation_comparisons: int

    @property
    def cost(self) -> int:
        return self.form.num_literals

    @property
    def num_candidates(self) -> int:
        return len(self.candidates)

    def edit_size(self, func: BoolFunc) -> int:
        """Points whose on-set membership differs between base and ``func``."""
        return len(self.func.on_set ^ func.on_set)


def build_context(
    func: BoolFunc,
    result: SppResult,
    *,
    covering: str = "greedy",
) -> MinimizationContext | None:
    """Reference a cold minimization, or None when nothing transfers.

    Returns None for generation-free results (empty on-set, affine
    fast path — a cold re-solve of those is already trivial), for
    truncated generations (the candidate stream is cap-shaped, not
    function-shaped), and for candidate lists past
    :data:`MAX_CONTEXT_CANDIDATES`.
    """
    generation = result.generation
    if generation is None or generation.truncated:
        return None
    candidates = generation.eppps
    if not candidates or len(candidates) > MAX_CONTEXT_CANDIDATES:
        return None
    return MinimizationContext(
        func=func,
        candidates=candidates,
        problem=result.problem,
        form=result.form,
        covering=covering,
        generation_comparisons=generation.total_comparisons,
    )


def toggle_points(func: BoolFunc, toggles: Iterable[int]) -> BoolFunc:
    """Apply point toggles: on→dc, dc→on, off→on.

    This is the edit vocabulary of the ``"delta"`` request form.  An
    on↔dc toggle preserves the care set (the warm-path sweet spot); an
    off→on toggle grows it and will route to the cold path.
    """
    on = set(func.on_set)
    dc = set(func.dc_set)
    space = 1 << func.n
    for p in toggles:
        if not 0 <= p < space:
            raise ValueError(f"toggle point {p} outside B^{func.n}")
        if p in on:
            on.discard(p)
            dc.add(p)
        elif p in dc:
            dc.discard(p)
            on.add(p)
        else:
            on.add(p)
    return BoolFunc(func.n, frozenset(on), frozenset(dc))
