"""Tests for minimization contexts and the toggle vocabulary."""

import pytest

from repro.boolfunc.function import BoolFunc
from repro.delta import build_context, toggle_points
from repro.delta import context as context_module
from repro.kernels.coverage import build_problem
from repro.minimize.exact import minimize_spp

FUNC = BoolFunc(3, frozenset({0, 1, 3, 6}), frozenset({5}))


class TestBuildContext:
    def test_snapshot_matches_direct_mask_pass(self):
        """The context references the cold solve's own candidate list and
        covering problem, and that problem is the direct build."""
        result = minimize_spp(FUNC)
        ctx = build_context(FUNC, result)
        assert ctx is not None
        assert ctx.candidates is result.generation.eppps
        assert ctx.problem is result.problem
        assert ctx.problem == build_problem(sorted(FUNC.on_set), ctx.candidates)

    def test_snapshot_records_solver_parameters(self):
        result = minimize_spp(FUNC, covering="exact")
        ctx = build_context(FUNC, result, covering="exact")
        assert ctx.covering == "exact"
        assert ctx.form == result.form
        assert ctx.cost == result.num_literals
        assert ctx.generation_comparisons == result.generation.total_comparisons

    def test_affine_fast_path_has_no_context(self):
        """{0,3,5,6} is an affine subspace: minimize_spp returns the
        single-pseudocube fast path with no generation, so there is no
        candidate stream to snapshot."""
        func = BoolFunc(3, frozenset({0, 3, 5, 6}))
        result = minimize_spp(func)
        assert result.generation is None
        assert build_context(func, result) is None

    def test_oversized_generation_refused(self, monkeypatch):
        monkeypatch.setattr(context_module, "MAX_CONTEXT_CANDIDATES", 1)
        result = minimize_spp(FUNC)
        assert build_context(FUNC, result) is None

    def test_truncated_generation_refused(self):
        result = minimize_spp(FUNC, max_pseudoproducts=3, on_limit="stop")
        assert result.generation.truncated
        assert build_context(FUNC, result) is None


class TestTogglePoints:
    def test_on_point_moves_to_dc(self):
        out = toggle_points(FUNC, [0])
        assert 0 not in out.on_set
        assert 0 in out.dc_set

    def test_dc_point_moves_to_on(self):
        out = toggle_points(FUNC, [5])
        assert 5 in out.on_set
        assert 5 not in out.dc_set

    def test_off_point_joins_on_set(self):
        out = toggle_points(FUNC, [7])
        assert 7 in out.on_set
        assert out.care_set != FUNC.care_set

    def test_care_preserving_round_trip(self):
        assert toggle_points(toggle_points(FUNC, [0, 5]), [0, 5]) == FUNC

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            toggle_points(FUNC, [8])
        with pytest.raises(ValueError):
            toggle_points(FUNC, [-1])
