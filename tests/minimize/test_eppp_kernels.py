"""End-to-end parity: packed generation vs. the pinned scalar fallback.

``generate_eppp`` selects the numpy-packed step loop at call time when
``gf2mat.AVAILABLE`` is set; these tests run every function through
both paths and assert the results are identical to the bit — same
candidate pseudocubes in the same order, same per-step statistics, and
the same final ``SppForm`` out of the full minimizer.  Functions come
from the fuzz generator families (dense / sparse / arith-like /
dc-heavy), the same distributions the differential fuzz harness uses.
"""

import random

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boolfunc.function import BoolFunc
from repro.fuzz.generators import FAMILIES
from repro.kernels import gf2mat
from repro.minimize import eppp as eppp_mod
from repro.minimize.eppp import GenerationBudgetExceeded, generate_eppp
from repro.minimize.exact import minimize_spp

pytestmark = pytest.mark.skipif(
    not gf2mat.AVAILABLE,
    reason="numpy GF(2) kernels disabled (REPRO_NO_NUMPY or no bitwise_count)",
)


def _snapshot(result):
    return (
        result.n,
        [(pc.anchor, pc.basis) for pc in result.eppps],
        [
            (
                s.degree,
                s.pseudoproducts,
                s.groups,
                s.comparisons,
                s.naive_comparisons,
                s.generated,
                s.duplicates,
                s.retained,
            )
            for s in result.steps
        ],
        result.truncated,
    )


def _run_both(func, **kwargs):
    """(packed, scalar) snapshots of ``generate_eppp`` on ``func``.

    The packed leg forces the vector lane even for tiny pair streams
    (``_MIN_PACKED_PAIRS = 0``) so parity covers the kernels, not the
    size-based hand-off.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eppp_mod, "_MIN_PACKED_PAIRS", 0)
        try:
            packed = _snapshot(generate_eppp(func, **kwargs))
        except GenerationBudgetExceeded:
            packed = "raised"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf2mat, "AVAILABLE", False)
        try:
            scalar = _snapshot(generate_eppp(func, **kwargs))
        except GenerationBudgetExceeded:
            scalar = "raised"
    return packed, scalar


family_funcs = st.builds(
    lambda name, n, seed: FAMILIES[name](random.Random(seed), n),
    st.sampled_from(sorted(FAMILIES)),
    st.integers(3, 5),
    st.integers(0, 2**31),
)


# Factor-width bounds: None is Algorithm 2 unchanged; 1-3 filter unions
# in every lane (B = 1 already at degree 0, from the delta's popcount).
widths = st.sampled_from([None, 1, 2, 3])


class TestGenerationParity:
    @settings(max_examples=40, deadline=None)
    @given(family_funcs, widths)
    def test_candidates_and_stats_identical(self, func, width):
        packed, scalar = _run_both(func, factor_width=width)
        assert packed == scalar

    @settings(max_examples=25, deadline=None)
    @given(
        family_funcs,
        st.sampled_from([3, 20, 100]),
        st.sampled_from(["stop", "raise"]),
        widths,
    )
    def test_budget_semantics_identical(self, func, cap, on_limit, width):
        """Truncation and overflow behave identically: the packed loop
        must stop (or raise) at exactly the same generated prefix, with
        filtered pairs counted as comparisons but never as insertions."""
        packed, scalar = _run_both(
            func, max_pseudoproducts=cap, on_limit=on_limit, factor_width=width
        )
        assert packed == scalar

    @settings(max_examples=20, deadline=None)
    @given(family_funcs, widths)
    def test_discard_equal_off_identical(self, func, width):
        packed, scalar = _run_both(func, discard_equal=False, factor_width=width)
        assert packed == scalar

    def test_handoff_threshold_consistent(self):
        """At the production threshold small streams take the scalar
        lane and large ones the packed lane — outputs agree regardless."""
        func = FAMILIES["dense"](random.Random(7), 5)
        for width in (None, 1, 2, 3):
            default = _snapshot(generate_eppp(func, factor_width=width))
            packed, scalar = _run_both(func, factor_width=width)
            assert default == packed == scalar


class TestMinimizerParity:
    @settings(max_examples=15, deadline=None)
    @given(family_funcs)
    def test_spp_form_identical(self, func):
        """The full minimizer yields the same ``SppForm`` (same
        pseudoproducts, same order, same cost) with kernels on vs. off."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(eppp_mod, "_MIN_PACKED_PAIRS", 0)
            on = minimize_spp(func)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gf2mat, "AVAILABLE", False)
            off = minimize_spp(func)
        assert on.form == off.form
        assert on.form.num_literals == off.form.num_literals
        assert on.num_candidates == off.num_candidates
        assert on.covering_optimal == off.covering_optimal
