"""Minimization algorithms: Algorithm 2 (exact), Algorithm 3 (SPP_k),
the naive baseline of [5], the SP baseline, and set covering."""

from repro.minimize.aox import AoxForm, AoxResult, minimize_aox
from repro.minimize.bounded import minimize_spp_bounded
from repro.minimize.covering import (
    CoveringProblem,
    CoveringSolution,
    ReducedCore,
    ReductionStats,
    build_covering,
    reduce_problem,
    solve,
    solve_exact,
    solve_greedy,
)
from repro.minimize.eppp import (
    EpppResult,
    GenerationBudgetExceeded,
    StepStats,
    generate_eppp,
)
from repro.minimize.exact import SppResult, minimize_spp
from repro.minimize.heuristic import HeuristicStats, minimize_spp_k
from repro.minimize.naive import generate_eppp_naive
from repro.minimize.qm import Cube, prime_implicants
from repro.minimize.sp import SpResult, minimize_sp

__all__ = [
    "AoxForm",
    "AoxResult",
    "CoveringProblem",
    "CoveringSolution",
    "Cube",
    "EpppResult",
    "GenerationBudgetExceeded",
    "HeuristicStats",
    "ReducedCore",
    "ReductionStats",
    "SpResult",
    "SppResult",
    "StepStats",
    "build_covering",
    "generate_eppp",
    "generate_eppp_naive",
    "minimize_aox",
    "minimize_sp",
    "minimize_spp",
    "minimize_spp_bounded",
    "minimize_spp_k",
    "prime_implicants",
    "reduce_problem",
    "solve",
    "solve_exact",
    "solve_greedy",
]
