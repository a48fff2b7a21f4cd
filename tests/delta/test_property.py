"""Property suite: the warm path is indistinguishable from cold.

For any function and any care-preserving edit, of any size,
``warm_minimize`` must return exactly the form a cold
:func:`~repro.minimize.exact.minimize_spp` with the same parameters
would — including on the empty diff.  Care-*changing* edits must be
refused.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.boolfunc.function import BoolFunc
from repro.delta import (
    DeltaIneligible,
    build_context,
    toggle_points,
    warm_minimize,
)
from repro.minimize.exact import minimize_spp
from repro.verify import verify_form

def _funcs_with_dc(n):
    space = 1 << n
    return st.builds(
        lambda on, dc: BoolFunc(
            n, frozenset(on) - frozenset(dc), frozenset(dc) - frozenset(on)
        ),
        st.sets(st.integers(0, space - 1), min_size=2, max_size=3 * space // 4),
        st.sets(st.integers(0, space - 1), min_size=1, max_size=space // 2),
    )


funcs_with_dc = _funcs_with_dc(4) | _funcs_with_dc(5)


@st.composite
def func_and_edit(draw, max_toggles=24):
    """A function plus a care-preserving toggle set of its care points."""
    func = draw(funcs_with_dc)
    care = sorted(func.care_set)
    if not care:
        return func, []
    k = draw(st.integers(0, min(max_toggles, len(care))))
    toggles = draw(
        st.lists(st.sampled_from(care), min_size=k, max_size=k, unique=True)
    )
    return func, toggles


class TestWarmColdEquivalence:
    @given(func_and_edit())
    @settings(max_examples=40, deadline=None)
    def test_greedy_warm_equals_cold(self, case):
        func, toggles = case
        ctx = build_context(func, minimize_spp(func))
        assume(ctx is not None)
        edited = toggle_points(func, toggles)
        assume(edited.on_set)
        warm = warm_minimize(ctx, edited)
        cold = minimize_spp(edited)
        assert warm.form == cold.form
        assert warm.covering_optimal == cold.covering_optimal
        assert verify_form(warm.form, edited)

    @given(func_and_edit(max_toggles=16))
    @settings(max_examples=20, deadline=None)
    def test_exact_warm_equals_cold(self, case):
        func, toggles = case
        result = minimize_spp(func, covering="exact")
        ctx = build_context(func, result, covering="exact")
        assume(ctx is not None)
        edited = toggle_points(func, toggles)
        assume(edited.on_set)
        warm = warm_minimize(ctx, edited)
        cold = minimize_spp(edited, covering="exact")
        assert warm.form == cold.form
        assert warm.num_literals == cold.num_literals
        assert warm.covering_optimal == cold.covering_optimal

    @given(funcs_with_dc)
    @settings(max_examples=20, deadline=None)
    def test_empty_diff_is_identity(self, func):
        ctx = build_context(func, minimize_spp(func))
        assume(ctx is not None)
        warm = warm_minimize(ctx, func)
        assert warm.form == ctx.form


class TestBoundaryAndFallback:
    @given(func_and_edit(max_toggles=2), st.integers(0, 15))
    @settings(max_examples=30, deadline=None)
    def test_care_growing_edit_refused_then_matches_cold(self, case, extra):
        func, toggles = case
        ctx = build_context(func, minimize_spp(func))
        assume(ctx is not None)
        assume(extra not in func.care_set)
        edited = toggle_points(func, [*toggles, extra])
        try:
            warm_minimize(ctx, edited)
            raise AssertionError("care-changing edit must not go warm")
        except DeltaIneligible as exc:
            assert exc.reason == "care-set-changed"
