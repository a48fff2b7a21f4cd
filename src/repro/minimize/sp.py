"""Two-level (SP) minimization — the paper's comparison baseline.

Quine–McCluskey prime implicants + literal-cost set covering.  The SP
columns of Tables 1 and 3 (``#PI``, ``#L``, ``#P``) come from here, and
the heuristic of Section 3.4 takes the prime implicant set as input.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.boolfunc.function import BoolFunc
from repro.budget import Budget
from repro.core.spp_form import SppForm
from repro.kernels import build_cube_problem
from repro.minimize import covering as cov
from repro.minimize.qm import Cube, prime_implicants

__all__ = ["SpResult", "minimize_sp"]


@dataclass
class SpResult:
    """Outcome of a two-level minimization."""

    form: SppForm
    primes: list[Cube]
    covering_optimal: bool
    seconds: float
    # Reduction report of the covering step, when one was produced.
    covering_stats: dict | None = None

    @property
    def num_primes(self) -> int:
        """Table 1's #PI column."""
        return len(self.primes)

    @property
    def num_literals(self) -> int:
        """Table 1's #L column (SP side)."""
        return self.form.num_literals

    @property
    def num_products(self) -> int:
        """Table 1's #P column."""
        return self.form.num_pseudoproducts


def minimize_sp(
    func: BoolFunc, *, covering: str = "greedy", budget: Budget | None = None
) -> SpResult:
    """Minimize ``func`` as a sum of products."""
    t0 = time.perf_counter()
    primes = prime_implicants(func, budget)
    if not func.on_set:
        return SpResult(SppForm(func.n, ()), primes, True, time.perf_counter() - t0)
    if budget is not None:
        budget.check()
    rows = sorted(func.on_set)
    problem = build_cube_problem(
        rows,
        primes,
        func.n,
        cost_of=lambda c: max(c.num_literals(func.n), 1),
        budget=budget,
    )
    solution = cov.solve(problem, mode=covering, budget=budget)
    form = SppForm(
        func.n, tuple(c.to_pseudocube(func.n) for c in solution.payloads)
    )
    stats = solution.stats.as_dict() if solution.stats is not None else None
    return SpResult(
        form, primes, solution.optimal, time.perf_counter() - t0, stats
    )
