"""Tests for bounded-factor (2-SPP style) minimization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boolfunc.function import BoolFunc
from repro.core.cex import cex_of
from repro.core.pseudocube import Pseudocube
from repro.kernels import gf2mat
from repro.minimize import eppp
from repro.minimize.bounded import max_factor_width, minimize_spp_bounded
from repro.minimize.eppp import generate_eppp
from repro.minimize.exact import minimize_spp
from repro.minimize.sp import minimize_sp
from repro.verify import assert_equivalent

from tests.conftest import pseudocubes

small_funcs = st.builds(
    lambda on: BoolFunc(3, frozenset(on)),
    st.sets(st.integers(0, 7), min_size=1, max_size=8),
)


class TestMaxFactorWidth:
    def test_cube_has_width_one(self):
        pc = Pseudocube.from_cube(4, 0b0011, 0b0001)
        assert max_factor_width(pc) == 1

    def test_xor_pair_has_width_two(self):
        pc = Pseudocube.from_points(3, [0b001, 0b110])
        # CEX is a product of 2-wide factors (x0⊕x1)(x0⊕x2)-style.
        assert max_factor_width(pc) == 2

    def test_whole_space_zero(self):
        assert max_factor_width(Pseudocube.whole_space(3)) == 0

    @given(pseudocubes(max_n=6))
    def test_matches_cex(self, pc):
        cex = cex_of(pc)
        expected = max((f.num_literals for f in cex.factors), default=0)
        assert max_factor_width(pc) == expected


class TestBoundedGeneration:
    @given(small_funcs)
    @settings(max_examples=30, deadline=None)
    def test_all_candidates_within_bound(self, func):
        for bound in (1, 2):
            result = generate_eppp(func, factor_width=bound)
            for pc in result.eppps:
                assert max_factor_width(pc) <= bound

    @given(small_funcs)
    @settings(max_examples=20, deadline=None)
    def test_unbounded_equals_algorithm2(self, func):
        """A bound of n filters nothing: the same candidates in the same
        order (order drives the covering's tie-breaks)."""
        bounded = generate_eppp(func, factor_width=func.n)
        plain = generate_eppp(func)
        assert bounded.eppps == plain.eppps

    @given(small_funcs, st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_trie_lane_matches_index_lane(self, func, bound):
        index = generate_eppp(func, factor_width=bound)
        trie = generate_eppp(func, factor_width=bound, backend="trie")
        assert set(index.eppps) == set(trie.eppps)

    def test_step_with_no_fitting_union_ends_generation(self, monkeypatch):
        """Two points at distance 2 unify only into a 2-literal factor:
        under B = 1 the step compares them, keeps both, and generation
        ends — in the packed, trie and scalar lanes alike."""
        func = BoolFunc(3, frozenset({0b000, 0b011}))
        monkeypatch.setattr(eppp, "_MIN_PACKED_PAIRS", 0)
        lanes = [
            generate_eppp(func, factor_width=1, backend=backend)
            for backend in ("index", "trie")
        ]
        monkeypatch.setattr(gf2mat, "AVAILABLE", False)
        lanes.append(generate_eppp(func, factor_width=1))
        points = {Pseudocube.from_point(3, 0b000), Pseudocube.from_point(3, 0b011)}
        for result in lanes:
            assert set(result.eppps) == points
            assert [(s.comparisons, s.generated) for s in result.steps] == [(1, 0)]

    def test_bound_below_one_rejected(self):
        with pytest.raises(ValueError):
            generate_eppp(BoolFunc(3, frozenset({1, 2})), factor_width=0)


class TestBoundedMinimization:
    @given(small_funcs)
    @settings(max_examples=30, deadline=None)
    def test_equivalence(self, func):
        for bound in (1, 2, 3):
            result = minimize_spp_bounded(func, bound, covering="exact")
            assert_equivalent(result.form, func)

    @given(small_funcs)
    @settings(max_examples=20, deadline=None)
    def test_cost_monotone_in_bound(self, func):
        """Wider factors allowed → never more literals (exact covering)."""
        costs = [
            minimize_spp_bounded(func, bound, covering="exact").num_literals
            for bound in (1, 2, 3)
        ]
        assert costs[0] >= costs[1] >= costs[2]

    @given(small_funcs)
    @settings(max_examples=20, deadline=None)
    def test_bound1_equals_sp(self, func):
        """Width-1 factors are literals: bounded(1) is SP minimization."""
        bounded = minimize_spp_bounded(func, 1, covering="exact")
        sp = minimize_sp(func, covering="exact")
        assert bounded.num_literals == sp.num_literals
        assert bounded.form.is_sp()

    @given(small_funcs)
    @settings(max_examples=15, deadline=None)
    def test_bound_n_equals_exact(self, func):
        bounded = minimize_spp_bounded(func, func.n, covering="exact")
        exact = minimize_spp(func, covering="exact")
        assert bounded.num_literals == exact.num_literals

    def test_empty_function(self):
        result = minimize_spp_bounded(BoolFunc(3, frozenset()), 2)
        assert result.form.num_pseudoproducts == 0
