"""Tests for the unate covering solvers and their reductions.

The reductions (essential columns, row/column dominance, component
decomposition) are only admissible if they never change the optimal
cover cost and every solution lifts back feasibly — both are checked
against brute force on small random instances.  Pinned tests lock in
the vectorized greedy's bit-identity with the heap path, the per-node
reducing branch-and-bound's proof on life6[0], and the warm-start
``seed`` contract of :func:`solve_exact`.
"""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kernels import bitmat
from repro.minimize import covering as cov
from repro.minimize.covering import (
    CoveringProblem,
    build_covering,
    solve,
    solve_exact,
    solve_greedy,
)


def _problem(masks, costs):
    num_rows = max(m.bit_length() for m in masks)
    return CoveringProblem(num_rows, list(masks), list(costs), list(range(len(masks))))


def random_problem(rng, max_rows=10, max_cols=14):
    num_rows = rng.randint(1, max_rows)
    num_cols = rng.randint(1, max_cols)
    universe = (1 << num_rows) - 1
    masks = [rng.getrandbits(num_rows) for _ in range(num_cols)]
    covered = 0
    for m in masks:
        covered |= m
    if covered != universe:
        masks.append(universe & ~covered)  # force feasibility
    masks = [m for m in masks if m]
    costs = [rng.randint(1, 6) for _ in masks]
    return CoveringProblem(num_rows, masks, costs, list(range(len(masks))))


def sparse_problem(rng, num_rows=10, num_cols=14, per_column=3):
    """Columns of ``per_column`` random rows with costs 1-3: cyclic
    cores on which greedy now and then misses the optimum."""
    universe = (1 << num_rows) - 1
    masks = [
        sum(1 << r for r in rng.sample(range(num_rows), per_column))
        for _ in range(num_cols)
    ]
    covered = 0
    for m in masks:
        covered |= m
    if covered != universe:
        masks.append(universe & ~covered)  # force feasibility
    costs = [rng.randint(1, 3) for _ in masks]
    return CoveringProblem(num_rows, masks, costs, list(range(len(masks))))


def brute_force(problem):
    """(cost, selection) of a minimum-cost cover, by enumeration."""
    best = None
    n = problem.num_columns
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            mask = 0
            for i in combo:
                mask |= problem.column_masks[i]
            if mask == problem.universe:
                total = sum(problem.costs[i] for i in combo)
                if best is None or total < best[0]:
                    best = (total, list(combo))
    return best


def _bits(solution):
    """Everything a solution reports, for bit-for-bit comparison."""
    stats = solution.stats.as_dict() if solution.stats is not None else None
    return (solution.selected, solution.cost, solution.optimal, solution.payloads, stats)


class TestBuild:
    def test_build_covering_drops_useless_columns(self):
        problem = build_covering(
            rows=[10, 20],
            candidates=["a", "b", "c"],
            covered_rows_of=lambda c: {"a": [10], "b": [20, 99], "c": [99]}[c],
            cost_of=lambda c: 1,
        )
        assert problem.num_columns == 2  # "c" covers nothing relevant
        assert problem.is_feasible()

    def test_rejects_nonpositive_cost(self):
        with pytest.raises(ValueError):
            CoveringProblem(1, [1], [0], ["x"])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            CoveringProblem(1, [1], [1, 2], ["x"])


class TestGreedy:
    def test_simple_cover(self):
        problem = _problem([0b011, 0b110, 0b100], [1, 1, 1])
        solution = solve_greedy(problem)
        covered = 0
        for i in solution.selected:
            covered |= problem.column_masks[i]
        assert covered == 0b111

    def test_infeasible_raises(self):
        problem = _problem([0b001], [1])
        problem.num_rows = 2
        with pytest.raises(ValueError):
            solve_greedy(problem)

    def test_redundancy_eliminated(self):
        # Columns 0 and 1 suffice; greedy might also pick extras.
        problem = _problem([0b0011, 0b1100, 0b0110], [1, 1, 1])
        solution = solve_greedy(problem)
        assert len(solution.selected) == 2

    def test_empty_universe(self):
        problem = CoveringProblem(0, [], [], [])
        assert solve_greedy(problem).cost == 0

    def test_improvement_pass_escapes_ratio_trap(self):
        """Pure ratio greedy picks the 3-row column and pays 6; the
        1-removal improvement (or the gain strategy) recovers the
        4-cost optimum."""
        problem = _problem([0b0111, 0b1100, 0b0011, 0b1000], [2, 2, 2, 2])
        assert solve_greedy(problem).cost == 4

    def test_greedy_matches_exact_on_small_random(self):
        """Not required in general, but on these tiny instances the
        improved greedy should be within 1.5x of optimal."""
        import random

        rng = random.Random(7)
        for _ in range(50):
            cols = [rng.randrange(1, 64) for _ in range(8)] + [63]
            costs = [rng.randint(1, 4) for _ in range(9)]
            problem = CoveringProblem(6, cols, costs, list(range(9)))
            greedy = solve_greedy(problem).cost
            exact = solve_exact(problem).cost
            assert exact <= greedy <= 1.5 * exact


class TestExact:
    def test_beats_or_matches_greedy(self):
        # Greedy trap: the big cheap column first, then two more needed.
        masks = [0b0111, 0b1100, 0b0011, 0b1000]
        costs = [2, 2, 2, 2]
        problem = _problem(masks, costs)
        exact = solve_exact(problem)
        greedy = solve_greedy(problem)
        assert exact.optimal
        assert exact.cost <= greedy.cost
        assert exact.cost == 4  # columns 1 and 2

    def test_weighted_instance(self):
        # One expensive column covers all; two cheap ones also cover all.
        problem = _problem([0b11, 0b01, 0b10], [5, 1, 1])
        solution = solve_exact(problem)
        assert solution.optimal
        assert solution.cost == 2
        assert sorted(solution.selected) == [1, 2]

    def test_essential_column(self):
        # Row 2 only covered by column 0.
        problem = _problem([0b100, 0b011], [3, 1])
        solution = solve_exact(problem)
        assert solution.cost == 4

    @given(
        st.lists(st.integers(1, 63), min_size=1, max_size=8),
        st.data(),
    )
    def test_exact_optimal_vs_bruteforce(self, masks, data):
        universe = 0
        for m in masks:
            universe |= m
        num_rows = universe.bit_length()
        # Make instance feasible: ensure full coverage.
        if universe != (1 << num_rows) - 1:
            masks = masks + [(1 << num_rows) - 1]
        costs = [data.draw(st.integers(1, 5)) for _ in masks]
        problem = CoveringProblem(num_rows, list(masks), costs, list(range(len(masks))))
        solution = solve_exact(problem)
        assert solution.optimal
        # Brute force over all subsets.
        best = None
        for subset in range(1 << len(masks)):
            covered = 0
            cost = 0
            for i in range(len(masks)):
                if (subset >> i) & 1:
                    covered |= masks[i]
                    cost += costs[i]
            if covered == problem.universe and (best is None or cost < best):
                best = cost
        assert solution.cost == best

    def test_node_limit_degrades_gracefully(self):
        masks = [0b01, 0b10, 0b11]
        problem = _problem(masks, [1, 1, 3])
        solution = solve_exact(problem, node_limit=1)
        covered = 0
        for i in solution.selected:
            covered |= masks[i]
        assert covered == problem.universe  # still a valid cover


class TestDispatch:
    def test_solve_modes(self):
        problem = _problem([0b11], [1])
        assert solve(problem, "greedy").cost == 1
        assert solve(problem, "exact").cost == 1
        assert solve(problem, "auto").cost == 1

    def test_unknown_mode(self):
        problem = _problem([0b1], [1])
        with pytest.raises(ValueError):
            solve(problem, "magic")

    @pytest.mark.parametrize("mode", ["greedy", "exact", "auto"])
    def test_solve_leaves_problem_arrays_unchanged(self, mode):
        """Delta contexts keep the cold solve's problem and warm solves
        patch copies of its arrays, so no solver may write to them."""
        from repro.bench.suite import get_benchmark
        from repro.kernels.coverage import build_problem
        from repro.minimize.eppp import generate_eppp

        rng = random.Random(12)
        problems = [random_problem(rng) for _ in range(20)]
        problems += [sparse_problem(rng) for _ in range(20)]
        problems.append(  # wide enough for the packed greedy path
            sparse_problem(rng, num_rows=12, num_cols=bitmat.MIN_COLUMNS_FOR_VECTOR + 8)
        )
        fo = get_benchmark("adr3")[2]
        problems.append(build_problem(sorted(fo.on_set), generate_eppp(fo).eppps))
        for problem in problems:
            before = (list(problem.column_masks), list(problem.costs), list(problem.payloads))
            solve(problem, mode)
            assert (problem.column_masks, problem.costs, problem.payloads) == before


class TestReductionProperties:
    def test_reductions_preserve_optimal_cost(self):
        """Solving through the full reduction fixpoint yields the
        brute-force optimum."""
        rng = random.Random(1)
        for _ in range(60):
            problem = random_problem(rng)
            opt, _ = brute_force(problem)
            solution = cov.solve_exact(problem)
            assert solution.optimal
            assert solution.cost == opt
            auto = cov.solve(problem, mode="auto")
            assert auto.optimal
            assert auto.cost == opt

    def test_lifted_solutions_feasible_on_original(self):
        """Selections from the reduced core, lifted back to original
        column indices, cover the original matrix."""
        rng = random.Random(2)
        for _ in range(60):
            problem = random_problem(rng)
            for solution in (
                cov.solve_greedy(problem),
                cov.solve_exact(problem),
                cov.solve(problem, mode="auto"),
            ):
                mask = 0
                for i in solution.selected:
                    mask |= problem.column_masks[i]
                assert mask == problem.universe
                assert solution.cost == sum(
                    problem.costs[i] for i in solution.selected
                )
                assert solution.payloads == [
                    problem.payloads[i] for i in solution.selected
                ]

    def test_components_partition_rows_exactly(self):
        """The components are disjoint row sets whose union is the
        whole core."""
        rng = random.Random(3)
        for _ in range(60):
            problem = random_problem(rng, max_rows=12, max_cols=20)
            core = cov.reduce_problem(problem)
            comps = cov.split_components(len(core.row_ids), core.masks)
            union = 0
            for comp in comps:
                assert union & comp == 0  # pairwise disjoint
                union |= comp
            assert union == (1 << len(core.row_ids)) - 1 if core.row_ids else union == 0

    def test_greedy_on_reduced_never_infeasible(self):
        """Greedy after the light reduction never turns a feasible
        instance infeasible (forced columns stay in the lifted cover;
        per-component covers stay per-component)."""
        rng = random.Random(4)
        for _ in range(120):
            problem = random_problem(rng, max_rows=12, max_cols=24)
            solution = cov.solve_greedy(problem)  # must not raise
            mask = 0
            for i in solution.selected:
                mask |= problem.column_masks[i]
            assert mask == problem.universe

    def test_reduction_stats_reported(self):
        # A matrix with a forced essential column, a dominated row and
        # a dominated column: rows 0..2, col0={0,1} (unique cover of 0),
        # col1={1,2}, col2={2} (dominated by col1 at equal cost).
        problem = cov.CoveringProblem(3, [0b011, 0b110, 0b100], [1, 1, 1], [0, 1, 2])
        solution = cov.solve_exact(problem)
        stats = solution.stats
        assert stats is not None
        assert stats.rows == 3 and stats.columns == 3
        assert stats.essential >= 1
        assert stats.core_rows == 0  # fully collapsed by the fixpoint
        assert solution.optimal
        assert solution.cost == 2
        assert sorted(solution.selected) == [0, 1]

    def test_infeasible_matrix_raises(self):
        problem = cov.CoveringProblem(2, [0b01], [1], ["a"])
        with pytest.raises(ValueError):
            cov.solve_greedy(problem)
        with pytest.raises(ValueError):
            cov.solve_exact(problem)
        with pytest.raises(ValueError):
            cov.solve(problem, mode="auto")


class TestVectorizedGreedy:
    def test_vector_path_matches_heap_path(self):
        """The packed-uint64 selection rounds must pick the identical
        column sequence as the CELF heap (same keys, same tie-breaks)."""
        if not bitmat.HAVE_NUMPY:
            pytest.skip("numpy with bitwise_count unavailable")
        rng = random.Random(5)
        for trial in range(40):
            # Past 128 rows the packed columns span three or more words.
            num_rows = rng.randint(1, 80) if trial < 25 else rng.randint(129, 300)
            num_cols = rng.randint(200, 400)  # above MIN_COLUMNS_FOR_VECTOR
            universe = (1 << num_rows) - 1
            masks = [rng.getrandbits(num_rows) for _ in range(num_cols)]
            covered = 0
            for m in masks:
                covered |= m
            if covered != universe:
                masks.append(universe & ~covered)
            masks = [m for m in masks if m]
            costs = [rng.randint(1, 9) for _ in masks]
            vec_problem = cov.CoveringProblem(
                num_rows, list(masks), list(costs), list(range(len(masks)))
            )
            heap_problem = cov.CoveringProblem(
                num_rows, list(masks), list(costs), list(range(len(masks)))
            )
            saved = bitmat.MIN_COLUMNS_FOR_VECTOR
            try:
                bitmat.MIN_COLUMNS_FOR_VECTOR = 1  # force the vector path
                assert vec_problem.packed() is not None
                vec = cov._greedy_cover(vec_problem)
                bitmat.MIN_COLUMNS_FOR_VECTOR = 10**9  # force the heap path
                heap = cov._greedy_cover(heap_problem)
            finally:
                bitmat.MIN_COLUMNS_FOR_VECTOR = saved
            assert vec.selected == heap.selected
            assert vec.cost == heap.cost


def _ring_problem(rng, rows, extra=90, offset=0):
    """Rows ``offset..offset+rows-1`` closed into a ring of two-row
    columns (every row covered twice, one component) plus ``extra``
    random columns inside the same rows."""
    masks = [
        (1 << (offset + r)) | (1 << (offset + (r + 1) % rows)) for r in range(rows)
    ]
    for _ in range(extra):
        masks.append(sum(1 << (offset + r) for r in rng.sample(range(rows), 6)))
    return masks


def _proof_problem(defect):
    """A packed-path problem (240+ columns, 150 rows) whose light
    reduction is a no-op and whose core is connected — unless
    ``defect`` adds an essential column, an empty column or splits the
    rows into two components."""
    rng = random.Random(21)
    num_rows = 150
    if defect == "components":
        masks = _ring_problem(rng, 75, extra=45)
        masks += _ring_problem(rng, 75, extra=45, offset=75)
    else:
        masks = _ring_problem(rng, num_rows)
    if defect == "essential":
        masks.append((1 << num_rows) | 1)  # the only column of the new row
        num_rows += 1
    elif defect == "empty":
        masks.insert(100, 0)
    costs = [rng.randint(1, 5) for _ in masks]
    return CoveringProblem(num_rows, masks, costs, list(range(len(masks))))


class TestPackedProofs:
    """On the packed path ``solve_greedy`` first proves the light
    reduction a no-op and the core connected; only a failed proof runs
    ``reduce_problem``.  Either way the result and the report equal the
    scalar path's, and the budget ticks equal those of the packed path
    with the proof skipped (the heap ticks per pop, not per round, so
    its count differs by design)."""

    @pytest.mark.parametrize(
        "defect, stat, value",
        [
            (None, "passes", 1),
            ("essential", "essential", 1),
            ("empty", "dominated_columns", 1),
            ("components", "components", 2),
        ],
    )
    def test_failed_proof_runs_the_reduction(self, monkeypatch, defect, stat, value):
        if not bitmat.HAVE_NUMPY:
            pytest.skip("numpy with bitwise_count unavailable")
        from repro.budget import Budget

        def fresh():
            problem = _proof_problem(defect)
            assert problem.num_columns >= bitmat.MIN_COLUMNS_FOR_VECTOR
            return problem

        reductions = []
        reduce_problem = cov.reduce_problem

        def counted(*args, **kwargs):
            reductions.append(1)
            return reduce_problem(*args, **kwargs)

        monkeypatch.setattr(cov, "reduce_problem", counted)
        problem = fresh()
        budget = Budget(tick_every=1 << 40)
        packed = cov.solve_greedy(problem, budget=budget)
        assert problem.matrix is not None
        assert bool(reductions) == (defect is not None)
        assert packed.stats.as_dict()[stat] == value

        monkeypatch.setattr(
            bitmat.BitMatrix, "light_reduction_is_noop", lambda self: False
        )
        unproved_budget = Budget(tick_every=1 << 40)
        unproved = cov.solve_greedy(fresh(), budget=unproved_budget)
        assert _bits(packed) == _bits(unproved)
        assert budget.ticks == unproved_budget.ticks

        monkeypatch.setattr(bitmat, "HAVE_NUMPY", False)
        scalar_problem = fresh()
        scalar = cov.solve_greedy(scalar_problem)
        assert scalar_problem.matrix is None
        assert _bits(packed) == _bits(scalar)

    def test_proofs_agree_with_the_scalar_reductions(self):
        """``light_reduction_is_noop`` is exactly "the light reduction
        eliminates nothing", and ``is_connected`` exactly "one
        component", on random matrices of 1 to 200 rows."""
        if not bitmat.HAVE_NUMPY:
            pytest.skip("numpy with bitwise_count unavailable")
        rng = random.Random(22)
        seen = set()
        for trial in range(120):
            num_rows = rng.randint(1, 200)
            per_column = rng.choice((1, 2, 3, 8))
            masks = [
                sum(1 << r for r in rng.sample(range(num_rows), min(per_column, num_rows)))
                for _ in range(rng.randint(1, 260))
            ]
            if trial % 5 == 0:
                masks[rng.randrange(len(masks))] = 0
            problem = CoveringProblem(
                num_rows, masks, [1] * len(masks), list(range(len(masks)))
            )
            bm = bitmat.BitMatrix.from_masks(masks, problem.costs, num_rows)
            if not problem.is_feasible():
                assert not bm.is_feasible()
                continue
            assert bm.is_feasible()
            core = cov.reduce_problem(problem, dominance=False)
            noop = not core.forced and core.stats.dominated_columns == 0
            assert bm.light_reduction_is_noop() == noop
            if noop:
                one = len(cov.split_components(num_rows, masks)) == 1
                assert bm.is_connected() == one
                seen.add(one)
        assert seen == {True, False}  # both outcomes were exercised


class TestPerNodePruning:
    def test_proves_life6_cost_30_within_15k_nodes(self):
        """Pinned: on the life6[0] EPPP covering instance the per-node
        reducing search proves the optimum, cost 30, within 15,000
        nodes."""
        from repro.bench.suite import get_benchmark
        from repro.kernels.coverage import build_problem
        from repro.minimize.cost import literal_cost
        from repro.minimize.eppp import generate_eppp

        fo = get_benchmark("life6")[0]
        generation = generate_eppp(fo, max_pseudoproducts=200_000, on_limit="stop")
        rows = sorted(fo.on_set)
        problem = build_problem(rows, generation.eppps, cost_of=literal_cost)

        proved = cov.solve_exact(problem, node_limit=15_000)
        assert proved.optimal
        assert proved.cost == 30
        assert proved.stats is not None
        assert proved.stats.dominance


class TestWarmStart:
    """``solve_exact(seed=...)``: a feasible seed is only a fallback
    incumbent for a search that could not prove optimality."""

    def test_feasible_seed_never_changes_a_proved_result(self):
        rng = random.Random(8)
        for _ in range(60):
            problem = random_problem(rng)
            cold = cov.solve_exact(problem)
            assert cold.optimal
            _, optimum = brute_force(problem)
            everything = list(range(problem.num_columns))
            padded = sorted(set(optimum) | {rng.randrange(problem.num_columns)})
            for seed in (optimum, everything, padded, cov.solve_greedy(problem).selected):
                assert _bits(cov.solve_exact(problem, seed=seed)) == _bits(cold)

    def test_cheaper_seed_wins_when_search_cannot_prove(self):
        """With no nodes to search, each component keeps its greedy
        cover; a strictly cheaper feasible seed replaces it and the
        result still claims no optimality."""
        rng = random.Random(9)
        hits = 0
        for _ in range(300):
            problem = sparse_problem(rng)
            unproved = cov.solve_exact(problem, node_limit=0)
            if unproved.optimal or cov.solve_exact(problem).cost >= unproved.cost:
                continue
            hits += 1
            opt, optimum = brute_force(problem)
            assert opt < unproved.cost
            warm = cov.solve_exact(problem, node_limit=0, seed=optimum)
            assert warm.selected == optimum
            assert warm.cost == opt
            assert not warm.optimal
            assert warm.payloads == [problem.payloads[i] for i in optimum]
            assert warm.stats.as_dict() == unproved.stats.as_dict()
        assert hits >= 5  # the property was actually exercised

    def test_infeasible_seed_is_ignored(self):
        rng = random.Random(10)
        for _ in range(60):
            problem = random_problem(rng)
            unproved = cov.solve_exact(problem, node_limit=0)
            _, optimum = brute_force(problem)
            # The empty seed is the cheapest possible, and covers nothing;
            # dropping a column from the optimum uncovers some row.
            for seed in ([], optimum[1:]):
                warm = cov.solve_exact(problem, node_limit=0, seed=seed)
                assert _bits(warm) == _bits(unproved)
