"""Property tests for the structure-grouped coverage kernels.

The kernels must agree bit for bit with the legacy per-point
enumeration (``pc.points()`` against a row-index dict) on arbitrary
pseudocube sets — including don't-care rows absent from the row list,
degree-0 candidates, and every specialised degree branch (m = 0..4
unrolled, m ≥ 5 doubling span).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.budget import Budget, Cancelled
from repro.core.pseudocube import Pseudocube
from repro.kernels import (
    BasisInterner,
    build_cube_problem,
    build_problem,
    coverage_masks,
    cube_coverage_masks,
)
from repro.minimize import covering as cov
from repro.minimize.cost import literal_cost
from repro.minimize.eppp import generate_eppp
from repro.minimize.qm import Cube, prime_implicants
from tests.conftest import pseudocubes


def reference_masks(rows, candidates):
    """The legacy construction: one dict probe per candidate point."""
    index = {row: i for i, row in enumerate(rows)}
    masks = []
    for pc in candidates:
        mask = 0
        for p in pc.points():
            pos = index.get(p)
            if pos is not None:
                mask |= 1 << pos
        masks.append(mask)
    return masks


def random_function_rows(rng, n):
    """A random on-set row list (sorted), leaving don't-care holes."""
    space = 1 << n
    size = rng.randint(1, max(1, space // 2))
    return sorted(rng.sample(range(space), size))


class TestCoverageMasks:
    @given(st.lists(pseudocubes(min_n=5, max_n=5), min_size=1, max_size=30),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_point_enumeration(self, cands, seed):
        rng = random.Random(seed)
        rows = random_function_rows(rng, 5)
        assert coverage_masks(rows, cands) == reference_masks(rows, cands)

    @given(st.lists(pseudocubes(min_n=7, max_n=7), min_size=1, max_size=12),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_high_degree_branch(self, cands, seed):
        # n = 7 admits degree 5-7 candidates: the doubling-span path.
        rng = random.Random(seed)
        rows = random_function_rows(rng, 7)
        assert coverage_masks(rows, cands) == reference_masks(rows, cands)

    def test_degree_zero_and_dont_care_rows(self):
        n = 4
        # Rows deliberately exclude points 0 and 5 (don't-cares).
        rows = [1, 2, 3, 7, 9]
        cands = [
            Pseudocube(n, 1, ()),       # present row
            Pseudocube(n, 5, ()),       # absent row: mask must be 0
            Pseudocube(n, 1, (2,)),     # {1, 3}
            Pseudocube(n, 0, (1, 6)),   # {0,1,6,7}: 0 and 6 outside rows
        ]
        assert coverage_masks(rows, cands) == reference_masks(rows, cands)
        assert coverage_masks(rows, cands)[1] == 0

    def test_empty_rows_and_empty_candidates(self):
        pc = Pseudocube(3, 0, (1,))
        assert coverage_masks([], [pc]) == [0]
        assert coverage_masks([0, 1], []) == []

    def test_shared_basis_grouping_matches_singletons(self):
        # Many candidates over one basis (the Theorem 1 group sharing).
        n = 5
        basis = (3, 4)  # pivots 0b001 and 0b100
        cands = [Pseudocube(n, a, basis)
                 for a in range(1 << n) if not (a & 5)]
        rows = list(range(1 << n))
        assert coverage_masks(rows, cands) == reference_masks(rows, cands)


class TestBuildProblem:
    def _generated(self, name="adr3"):
        from repro.bench.suite import get_benchmark

        func = get_benchmark(name)[0]
        generation = generate_eppp(func, max_pseudoproducts=50_000,
                                   on_limit="stop")
        return func, generation.eppps

    def test_identical_to_legacy_build_covering(self):
        func, cands = self._generated()
        rows = sorted(func.on_set)
        legacy = cov.build_covering(
            rows, cands, covered_rows_of=lambda pc: pc.points(),
            cost_of=literal_cost,
        )
        kernel = build_problem(rows, cands, cost_of=literal_cost)
        assert kernel.num_rows == legacy.num_rows
        assert kernel.column_masks == legacy.column_masks
        assert kernel.costs == legacy.costs
        # Payload *identity*, not just equality: covering solutions hand
        # these objects straight to SppForm.
        assert [id(p) for p in kernel.payloads] == [id(p) for p in legacy.payloads]

    def test_custom_cost_callable(self):
        func, cands = self._generated()
        rows = sorted(func.on_set)

        def cost(pc):
            return 2 * pc.num_literals + 1

        legacy = cov.build_covering(
            rows, cands, covered_rows_of=lambda pc: pc.points(), cost_of=cost
        )
        kernel = build_problem(rows, cands, cost_of=cost)
        assert kernel.costs == legacy.costs

    def test_drops_zero_coverage_candidates(self):
        n = 4
        rows = [1, 2]
        cands = [Pseudocube(n, 5, ()), Pseudocube(n, 1, ())]
        problem = build_problem(rows, cands)
        assert problem.num_columns == 1
        assert problem.payloads[0] is cands[1]


class TestCubeKernel:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_point_enumeration(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 7)
        rows = random_function_rows(rng, n)
        cubes = []
        for _ in range(rng.randint(1, 15)):
            mask = rng.randint(0, (1 << n) - 1)
            values = rng.randint(0, (1 << n) - 1) & ~mask
            cubes.append(Cube(values=values, mask=mask))
        index = {row: i for i, row in enumerate(rows)}
        expected = []
        for cube in cubes:
            m = 0
            for p in cube.points():
                pos = index.get(p)
                if pos is not None:
                    m |= 1 << pos
            expected.append(m)
        assert cube_coverage_masks(rows, cubes, n) == expected

    def test_build_cube_problem_matches_legacy(self):
        from repro.bench.suite import get_benchmark

        func = get_benchmark("adr3")[0]
        primes = prime_implicants(func)
        rows = sorted(func.on_set)
        legacy = cov.build_covering(
            rows, primes, covered_rows_of=lambda c: c.points(),
            cost_of=lambda c: max(c.num_literals(func.n), 1),
        )
        kernel = build_cube_problem(
            rows, primes, func.n,
            cost_of=lambda c: max(c.num_literals(func.n), 1),
        )
        assert kernel.column_masks == legacy.column_masks
        assert kernel.costs == legacy.costs
        assert [id(p) for p in kernel.payloads] == [id(p) for p in legacy.payloads]


class TestKernelBudget:
    def test_pre_cancelled_budget_raises(self):
        budget = Budget(tick_every=1)
        budget.cancel()
        rows = list(range(8))
        cands = [Pseudocube(3, a, ()) for a in range(8)]
        with pytest.raises(Cancelled):
            coverage_masks(rows, cands, budget=budget)
        cubes = [Cube(values=0, mask=7)]
        with pytest.raises(Cancelled):
            cube_coverage_masks(rows, cubes, 3, budget=budget)

    def test_ticks_cover_every_candidate(self):
        budget = Budget(tick_every=1)
        rows = list(range(8))
        cands = [Pseudocube(3, a, ()) for a in range(8)]
        cands += [Pseudocube(3, 0, (1,)), Pseudocube(3, 0, (2,))]
        coverage_masks(rows, cands, budget=budget)
        assert budget.ticks >= len(cands)


class TestBasisInterner:
    def test_interns_to_first_seen_object(self):
        interner = BasisInterner()
        a = tuple([1, 2, 4])
        b = tuple([1, 2, 4])
        assert a is not b
        assert interner.intern(a) is a
        assert interner.intern(b) is a
        assert BasisInterner().intern(b) is b
