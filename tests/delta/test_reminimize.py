"""Tests for warm re-minimization: patch parity, equivalence, eligibility."""

import pytest

from repro.boolfunc.function import BoolFunc
from repro.delta import (
    DeltaIneligible,
    build_context,
    eligibility,
    toggle_points,
    warm_minimize,
)
from repro.delta.reminimize import _patched_problem
from repro.kernels.coverage import build_problem
from repro.minimize.exact import minimize_spp
from repro.verify import verify_form

FUNC = BoolFunc(4, frozenset({0, 1, 3, 6, 9, 12, 14}), frozenset({5, 10}))


def _context(func=FUNC, covering="greedy"):
    result = minimize_spp(func, covering=covering)
    ctx = build_context(func, result, covering=covering)
    assert ctx is not None
    return ctx


class TestPatchParity:
    """The bit-surgered problem must equal a from-scratch build."""

    @pytest.mark.parametrize(
        "toggles",
        [
            [0],  # one on-point retired
            [5],  # one dc point promoted (row appended)
            [0, 5],  # one of each
            [0, 1, 5, 10],  # several of each
            [],  # empty diff
        ],
    )
    def test_patched_masks_match_cold_pass(self, toggles):
        ctx = _context()
        edited = toggle_points(FUNC, toggles)
        got = _patched_problem(ctx, edited, None)
        assert got == build_problem(sorted(edited.on_set), ctx.candidates)

    def test_dropped_column_revived(self):
        """{6, 7} covers no row of the base, so the cold build drops it;
        promoting dc point 6 to the on-set brings it back."""
        func = BoolFunc(3, frozenset({0}), frozenset({6, 7}))
        ctx = _context(func)
        revived = next(pc for pc in ctx.candidates if set(pc.points()) == {6, 7})
        assert revived not in ctx.problem.payloads
        edited = toggle_points(func, [6])
        got = _patched_problem(ctx, edited, None)
        want = build_problem(sorted(edited.on_set), ctx.candidates)
        assert revived in want.payloads
        assert got.column_masks == want.column_masks
        assert got.costs == want.costs
        assert got.payloads == want.payloads


class TestWarmEqualsCold:
    @pytest.mark.parametrize("covering", ["greedy", "exact"])
    @pytest.mark.parametrize("toggles", [[0], [5], [0, 5], [1, 3, 5]])
    def test_warm_form_is_bit_identical_to_cold(self, covering, toggles):
        ctx = _context(covering=covering)
        edited = toggle_points(FUNC, toggles)
        warm = warm_minimize(ctx, edited)
        cold = minimize_spp(edited, covering=covering)
        assert warm.form == cold.form
        assert warm.covering_optimal == cold.covering_optimal
        assert verify_form(warm.form, edited)

    def test_empty_diff_returns_base_form(self):
        ctx = _context()
        warm = warm_minimize(ctx, FUNC)
        assert warm.form == ctx.form

    def test_warm_result_charges_no_generation_time(self):
        ctx = _context()
        warm = warm_minimize(ctx, toggle_points(FUNC, [0]))
        assert warm.generation is None
        assert warm.seconds_generation == 0.0


class TestEligibility:
    def test_dimension_changed(self):
        ctx = _context()
        other = BoolFunc(3, frozenset({0, 1}))
        assert eligibility(ctx, other) == "dimension-changed"

    def test_care_set_changed(self):
        ctx = _context()
        edited = toggle_points(FUNC, [7])  # off→on grows the care set
        assert eligibility(ctx, edited) == "care-set-changed"

    def test_edit_at_threshold_is_warm(self):
        ctx = _context()
        edited = toggle_points(FUNC, [0, 5])  # symmetric diff of 2
        assert eligibility(ctx, edited, max_edit=2) is None

    def test_edit_past_threshold_goes_cold(self):
        ctx = _context()
        edited = toggle_points(FUNC, [0, 1, 5])  # symmetric diff of 3
        assert eligibility(ctx, edited, max_edit=2) == "edit-too-large"

    def test_warm_minimize_raises_on_ineligible(self):
        ctx = _context()
        with pytest.raises(DeltaIneligible) as exc:
            warm_minimize(ctx, toggle_points(FUNC, [7]))
        assert exc.value.reason == "care-set-changed"


class TestReminimize:
    def test_empty_onset_edit(self):
        """Toggling every on-point to dc leaves an empty on-set; the
        warm path must reproduce minimize_spp's trivial empty form."""
        ctx = _context(BoolFunc(3, frozenset({1, 2}), frozenset({4})))
        edited = toggle_points(ctx.func, [1, 2])
        assert not edited.on_set
        warm = warm_minimize(ctx, edited)
        cold = minimize_spp(edited)
        assert warm.form == cold.form
        assert warm.form.num_literals == 0
