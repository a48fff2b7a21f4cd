"""Incremental re-minimization — the delta-aware warm path.

Service traffic is dominated by near-duplicate functions: a handful of
on-set points added, dropped, or toggled between requests.  This
package turns "minimize f′ where f′ = f ⊕ {small edit}" into a patch
operation instead of a cold solve:

* :mod:`repro.delta.context` — :class:`MinimizationContext`, a
  reference to what a completed exact minimization built (its
  candidate list and the covering problem it solved, the base cover);
  capture computes nothing;
* :mod:`repro.delta.reminimize` — :func:`eligibility`, the one rule for
  which edits may go warm, and :func:`warm_minimize`, which re-covers
  the edited on-set from the base candidate list (patching the base
  covering problem by bit surgery when the edit only retires rows)
  with the identical solver (so a warm result is bit-identical to the
  cold one whenever the candidate list is reusable);
* :mod:`repro.delta.index` — :class:`DeltaIndex`, the engine-level
  near-duplicate LRU, which files each context under its function's
  ``(n, care set)`` so a lookup reads only the contexts a job can
  reuse, plus :func:`warm_record_for`, which seals a warm solve with
  :func:`repro.engine.ladder.seal_record`, the record builder every
  cold rung uses (verify + integrity certificate — reuse can never
  change answers, only speed).

The soundness argument rests on candidate-order purity: EPPP generation
is a pure function of the care set ``on ∪ dc`` alone (every level
sorted by (basis, anchor)), so any edit that preserves the care set
(on↔dc toggles), of any size, reuses the base candidate list
*verbatim*, in order, and the care set is the index's exact key.
Care-set-changing edits find no base and run cold — greedy covering is
order-sensitive, so there is no sound way to splice new candidates into
the stream without risking a different cover.
"""

from repro.delta.context import MinimizationContext, build_context, toggle_points
from repro.delta.index import DeltaIndex, warm_record_for
from repro.delta.reminimize import DeltaIneligible, eligibility, warm_minimize

__all__ = [
    "MinimizationContext",
    "build_context",
    "toggle_points",
    "DeltaIndex",
    "warm_record_for",
    "DeltaIneligible",
    "eligibility",
    "warm_minimize",
]
