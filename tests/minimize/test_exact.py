"""Tests for exact SPP minimization (Algorithm 2 end to end)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boolfunc.function import BoolFunc
from repro.core.pseudocube import Pseudocube
from repro.minimize.covering import CoveringProblem, solve_exact
from repro.minimize.cost import factor_cost, literal_cost, product_cost
from repro.minimize.exact import minimize_spp
from repro.minimize.sp import minimize_sp
from repro.verify import assert_equivalent

small_funcs = st.builds(
    lambda on: BoolFunc(3, frozenset(on)),
    st.sets(st.integers(0, 7), min_size=1, max_size=8),
)


def _true_minimum_literals(func: BoolFunc) -> int:
    """Brute-force minimal SPP literal count over ALL pseudoproducts
    (not just the EPPP set) with exact covering — the ground truth."""
    care = sorted(func.care_set)
    candidates = set()
    for size_log in range(len(care).bit_length()):
        size = 1 << size_log
        if size > len(care):
            break
        for subset in itertools.combinations(care, size):
            try:
                candidates.add(Pseudocube.from_points(func.n, subset))
            except ValueError:
                continue
    rows = sorted(func.on_set)
    index = {r: i for i, r in enumerate(rows)}
    masks, costs, payloads = [], [], []
    for pc in candidates:
        mask = 0
        for p in pc.points():
            if p in index:
                mask |= 1 << index[p]
        if mask:
            masks.append(mask)
            costs.append(literal_cost(pc))
            payloads.append(pc)
    problem = CoveringProblem(len(rows), masks, costs, payloads)
    solution = solve_exact(problem)
    assert solution.optimal
    return solution.cost


class TestCorrectness:
    @given(small_funcs)
    @settings(max_examples=40, deadline=None)
    def test_result_implements_function(self, func):
        result = minimize_spp(func)
        assert_equivalent(result.form, func)

    def test_empty_function(self):
        result = minimize_spp(BoolFunc(3, frozenset()))
        assert result.form.num_pseudoproducts == 0
        assert result.num_literals == 0

    def test_tautology(self):
        result = minimize_spp(BoolFunc(3, frozenset(range(8))))
        assert_equivalent(result.form, BoolFunc(3, frozenset(range(8))))
        assert result.num_pseudoproducts == 1
        # The whole space is the constant-1 pseudoproduct: zero literals.
        assert result.form.pseudoproducts[0].degree == 3


class TestOptimality:
    @given(small_funcs)
    @settings(max_examples=25, deadline=None)
    def test_exact_covering_reaches_true_minimum(self, func):
        """Restricting the covering to the EPPP candidates loses nothing:
        the minimum over EPPPs equals the minimum over ALL pseudoproducts
        (the guarantee behind Definition 3)."""
        result = minimize_spp(func, covering="exact")
        assert result.covering_optimal
        cost = sum(literal_cost(pc) for pc in result.form.pseudoproducts)
        assert cost == _true_minimum_literals(func)

    def test_spp_never_worse_than_sp(self):
        """Minimal SPP ≤ minimal SP (cubes are pseudoproducts)."""
        for on in [{0b01, 0b10}, {0, 3, 5}, {1, 2, 3, 4, 5}]:
            func = BoolFunc(3, frozenset(on))
            spp = minimize_spp(func, covering="exact")
            sp = minimize_sp(func, covering="exact")
            assert spp.num_literals <= sp.num_literals


class TestAffineShortcut:
    def test_parity_is_single_pseudoproduct(self):
        """A completely specified parity function returns instantly as
        one pseudoproduct without any EPPP generation."""
        func = BoolFunc.from_lambda(6, lambda p: p.bit_count() % 2 == 1)
        result = minimize_spp(func)
        assert result.generation is None
        assert result.num_pseudoproducts == 1
        assert result.num_literals == 6
        assert result.covering_optimal
        assert_equivalent(result.form, func)

    def test_affine_subspace_on_set(self):
        func = BoolFunc(4, frozenset(Pseudocube.from_points(
            4, [0b0000, 0b0110, 0b1011, 0b1101]).points()))
        result = minimize_spp(func)
        assert result.num_pseudoproducts == 1
        assert_equivalent(result.form, func)

    def test_shortcut_not_taken_with_dont_cares(self):
        """With dc present the single coset need not be optimal, so the
        full pipeline runs."""
        func = BoolFunc(3, frozenset({0b000}), frozenset({0b111}))
        result = minimize_spp(func, covering="exact")
        # minterm (3 literals) beats the heavy 2-point coset (4 literals)
        assert result.num_literals == 3

    @given(small_funcs)
    @settings(max_examples=30, deadline=None)
    def test_shortcut_agrees_with_generation(self, func):
        """Whenever the shortcut fires, its literal count matches the
        exact pipeline run on the same function."""
        result = minimize_spp(func, covering="exact")
        if result.generation is None and func.on_set:
            candidates_result = _true_minimum_literals(func)
            cost = sum(
                literal_cost(pc) for pc in result.form.pseudoproducts
            )
            assert cost == candidates_result


class TestCandidatePruning:
    def test_pruned_covering_still_verifies(self):
        from repro.minimize.exact import cover_with
        from repro.minimize.eppp import generate_eppp

        func = BoolFunc(4, frozenset(range(3, 16)))
        generation = generate_eppp(func)
        form, optimal, _, _, _, _ = cover_with(
            func, generation.eppps, covering="exact", max_candidates=5
        )
        assert not optimal  # pruning forfeits the optimality proof
        assert_equivalent(form, func)

    def test_feasibility_witness_repair_loop(self):
        """When the most efficient candidates miss an on-point, the
        repair loop appends a witness from the pruned tail (the
        ``missing`` loop in ``_prune_candidates``)."""
        from repro.minimize.exact import _prune_candidates

        func = BoolFunc(4, frozenset({0, 1, 15}))
        pair = Pseudocube.from_points(4, (0, 1))       # eff 3/2: ranked first
        single0 = Pseudocube.from_points(4, (0,))      # eff 4
        single1 = Pseudocube.from_points(4, (1,))      # eff 4
        witness = Pseudocube.from_points(4, (15,))     # eff 4, listed last:
        # the only cover of point 15 sits beyond the keep horizon.
        candidates = [pair, single0, single1, witness]
        kept = _prune_candidates(func, candidates, literal_cost, 2)
        assert len(kept) == 3
        assert kept[:2] == [pair, single0]
        assert kept[2] is witness  # repaired in from the tail
        covered = set()
        for pc in kept:
            covered.update(pc.points())
        assert func.on_set <= covered

    def test_no_repair_when_keep_already_feasible(self):
        from repro.minimize.exact import _prune_candidates

        func = BoolFunc(4, frozenset({0, 1}))
        pair = Pseudocube.from_points(4, (0, 1))
        singles = [Pseudocube.from_points(4, (p,)) for p in (0, 1)]
        kept = _prune_candidates(func, [pair, *singles], literal_cost, 1)
        assert kept == [pair]

    def test_pruning_heeds_the_budget(self):
        """Pruned lists come from truncated generations, millions of
        candidates long, so pruning checks the budget as it goes."""
        from repro.budget import Budget
        from repro.errors import Cancelled
        from repro.minimize.exact import _prune_candidates

        func = BoolFunc(4, frozenset({0, 1}))
        pair = Pseudocube.from_points(4, (0, 1))
        singles = [Pseudocube.from_points(4, (p,)) for p in (0, 1)]
        budget = Budget()
        budget.cancel("test")
        with pytest.raises(Cancelled):
            _prune_candidates(func, [pair, *singles], literal_cost, 1, budget)

    def test_repair_stops_once_all_points_are_witnessed(self):
        """Only as many tail candidates are pulled in as the uncovered
        points require — not the whole tail."""
        from repro.minimize.exact import _prune_candidates

        func = BoolFunc(4, frozenset({0, 1, 14, 15}))
        pair = Pseudocube.from_points(4, (0, 1))
        tail_hit = Pseudocube.from_points(4, (14, 15))  # repairs both at once
        tail_spare = Pseudocube.from_points(4, (15,))
        kept = _prune_candidates(
            func, [pair, tail_hit, tail_spare], literal_cost, 1
        )
        assert tail_hit in kept
        assert tail_spare not in kept

    def test_exact_covering_on_pruned_instance_not_proved_optimal(self):
        """Even ``covering="exact"`` cannot claim optimality after the
        candidate list was pruned."""
        from repro.minimize.exact import cover_with
        from repro.minimize.eppp import generate_eppp

        func = BoolFunc(4, frozenset(range(3, 16)))
        generation = generate_eppp(func)
        full_form, full_optimal, _, _, _, _ = cover_with(
            func, generation.eppps, covering="exact"
        )
        assert full_optimal
        _, pruned_optimal, _, _, _, _ = cover_with(
            func, generation.eppps, covering="exact", max_candidates=3
        )
        assert not pruned_optimal


class TestGenerationFallbackHook:
    """A blown generation cap under ``on_limit="raise"`` propagates; the
    engine's ladder degrades with ``on_limit="stop"`` instead."""

    def _hard_func(self):
        from repro.bench.suite import get_benchmark

        return get_benchmark("adr3")[2]

    def test_budget_exceeded_raises_without_fallback(self):
        from repro.minimize.eppp import GenerationBudgetExceeded
        import pytest

        with pytest.raises(GenerationBudgetExceeded):
            minimize_spp(self._hard_func(), max_pseudoproducts=10, on_limit="raise")


class TestCostFunctions:
    def test_alternative_costs_run(self):
        func = BoolFunc(3, frozenset({1, 2, 4, 7}))
        for cost in (literal_cost, factor_cost, product_cost):
            result = minimize_spp(func, covering="exact", cost=cost)
            assert_equivalent(result.form, func)

    def test_product_cost_minimizes_count(self):
        func = BoolFunc(3, frozenset({1, 2, 4, 7}))  # odd parity
        result = minimize_spp(func, covering="exact", cost=product_cost)
        assert result.num_pseudoproducts == 1  # x0 ⊕ x1 ⊕ x2


class TestDontCares:
    def test_dc_improves_cover(self):
        """on = {001}, dc = {011}: with the don't care the cover is the
        2-literal cube x0·x̄2 instead of a 3-literal minterm."""
        with_dc = minimize_spp(
            BoolFunc(3, frozenset({0b001}), frozenset({0b011})), covering="exact"
        )
        without = minimize_spp(BoolFunc(3, frozenset({0b001})), covering="exact")
        assert with_dc.num_literals < without.num_literals
        assert_equivalent(
            with_dc.form, BoolFunc(3, frozenset({0b001}), frozenset({0b011}))
        )
