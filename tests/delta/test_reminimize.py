"""Tests for warm re-minimization: patch parity, equivalence, eligibility."""

import random
import sys
import threading

import pytest

from repro.bench.suite import get_benchmark
from repro.boolfunc.function import BoolFunc
from repro.core.pseudocube import Pseudocube
from repro.delta import (
    DeltaIneligible,
    build_context,
    eligibility,
    toggle_points,
    warm_minimize,
)
from repro.delta.reminimize import _patched_problem, _seed
from repro.kernels import bitmat
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
        got, _ = _patched_problem(ctx, edited, None)
        assert got == build_problem(sorted(edited.on_set), ctx.candidates)

    def test_dropped_column_revived(self):
        """{6, 7} covers no row of the base, so the cold build drops it;
        promoting dc point 6 to the on-set brings it back."""
        func = BoolFunc(3, frozenset({0}), frozenset({6, 7}))
        ctx = _context(func)
        revived = next(pc for pc in ctx.candidates if set(pc.points()) == {6, 7})
        assert revived not in ctx.problem.payloads
        edited = toggle_points(func, [6])
        got, _ = _patched_problem(ctx, edited, None)
        want = build_problem(sorted(edited.on_set), ctx.candidates)
        assert revived in want.payloads
        assert got.column_masks == want.column_masks
        assert got.costs == want.costs
        assert got.payloads == want.payloads


def _wide_context(func):
    """A greedy context whose problem is wide enough for the packed path."""
    result = minimize_spp(func, max_pseudoproducts=200_000, on_limit="stop")
    ctx = build_context(func, result)
    assert ctx is not None
    assert ctx.problem.num_columns >= bitmat.MIN_COLUMNS_FOR_VECTOR
    return ctx


@pytest.fixture(scope="module")
def life_ctx():
    """life[0]: 140 rows (three words), 2,100 columns."""
    return _wide_context(get_benchmark("life")[0])


@pytest.fixture(scope="module")
def sparse_ctx():
    """65 on-points (two words, the second holding one row) plus 30
    don't-cares over B^8: thousands of columns, hundreds covering a
    single row."""
    points = random.Random(0).sample(range(256), 95)
    return _wide_context(BoolFunc(8, frozenset(points[:65]), frozenset(points[65:])))


def _patch_matches_cold(ctx, retired):
    """Patch ``ctx`` for retiring ``retired`` and check it against the
    cold build, matrix included when the packed path ran."""
    edited = toggle_points(ctx.func, retired)
    got, _ = _patched_problem(ctx, edited, None)
    want = build_problem(sorted(edited.on_set), ctx.candidates)
    assert got == want
    if bitmat.HAVE_NUMPY:
        fresh = bitmat.BitMatrix.from_masks(want.column_masks, want.costs, want.num_rows)
        assert got.matrix is not None
        assert got.matrix.matrix.shape == fresh.matrix.shape
        assert (got.matrix.matrix == fresh.matrix).all()
        assert (got.matrix.costs == fresh.costs).all()
    return got


class TestPackedPatch:
    """Row retirement at full width — on the base's packed matrix when
    numpy is on, by Python-int surgery under ``REPRO_NO_NUMPY=1`` —
    equals ``build_problem(sorted(on′), candidates)``."""

    @pytest.mark.parametrize("positions", [[0], [63], [64], [127], [-1], [0, 63, 64, 127, -1]])
    def test_retired_rows_at_word_edges(self, life_ctx, positions):
        rows = sorted(life_ctx.func.on_set)
        _patch_matches_cold(life_ctx, [rows[i] for i in positions])

    @pytest.mark.parametrize("size", [*range(1, 9), 16, 32, 64])
    def test_edits_up_to_the_cap(self, life_ctx, size):
        """Edits of every size up to 8 rows and well past it: no edit
        size is capped, so a 64-row retirement patches too."""
        rows = sorted(life_ctx.func.on_set)
        _patch_matches_cold(life_ctx, random.Random(size).sample(rows, size))

    def test_edit_drops_a_word(self, sparse_ctx):
        assert sparse_ctx.problem.num_rows == 65
        got = _patch_matches_cold(sparse_ctx, [max(sparse_ctx.func.on_set)])
        assert got.num_rows == 64
        if bitmat.HAVE_NUMPY:
            assert got.matrix.words == 1

    def test_edit_empties_columns(self, sparse_ctx):
        problem = sparse_ctx.problem
        rows = sorted(sparse_ctx.func.on_set)
        single = sorted({m.bit_length() - 1 for m in problem.column_masks if m.bit_count() == 1})
        got = _patch_matches_cold(sparse_ctx, [rows[i] for i in single[:16]])
        assert got.num_columns < problem.num_columns


class TestSharedBase:
    def test_threads_warm_one_base(self, life_ctx):
        """Four threads warm different edits of one shared context under
        a tiny switch interval: every form equals its single-threaded
        snapshot (and the cold form), and the base problem's masks and
        packed matrix come out untouched."""
        rows = sorted(life_ctx.func.on_set)
        rng = random.Random(3)
        edits = [toggle_points(life_ctx.func, rng.sample(rows, k)) for k in (1, 2, 3, 4)]
        base = life_ctx.problem
        masks_before = list(base.column_masks)
        matrix_before = base.packed()
        if matrix_before is not None:
            matrix_before = matrix_before.matrix.copy()
        expected = [warm_minimize(life_ctx, func).form for func in edits]
        for func, form in zip(edits, expected):
            assert form == minimize_spp(func).form
        results = [[] for _ in edits]
        errors = []
        barrier = threading.Barrier(len(edits))

        def work(i):
            try:
                barrier.wait(timeout=30)
                for _ in range(3):
                    results[i].append(warm_minimize(life_ctx, edits[i]).form)
            except Exception as exc:  # surfaced by the asserts below
                errors.append(exc)

        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(edits))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(saved)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for got, form in zip(results, expected):
            assert got == [form] * 3
        assert base.column_masks == masks_before
        if matrix_before is not None:
            assert (base.matrix.matrix == matrix_before).all()


class TestExactModeSeed:
    """An exact-mode warm edit seeds its search with the base cover,
    found through the patch's kept columns, not by building every
    column's pseudocube to look the cover up."""

    @pytest.fixture(scope="class")
    def ctx(self):
        # 2,109 columns, a 4-term cover, searched exactly in about 0.2 s.
        return _context(get_benchmark("test1")[3], covering="exact")

    def test_seed_is_the_base_cover(self, ctx):
        edited = toggle_points(ctx.func, sorted(ctx.func.on_set)[:2])
        problem, kept = _patched_problem(ctx, edited, None)
        seed = _seed(kept, ctx.cover)
        assert seed is not None
        assert [problem.payloads[i] for i in seed] == list(ctx.form.pseudoproducts)

    def test_seed_is_none_once_a_cover_column_empties(self):
        assert _seed([0, 2, 3], [3, 0]) == [2, 0]
        assert _seed([0, 2, 3], [3, 1]) is None
        assert _seed(range(4), [3, 1]) == [3, 1]

    def test_warm_edit_builds_pseudocubes_for_the_covers_only(self, ctx, monkeypatch):
        edited = toggle_points(ctx.func, sorted(ctx.func.on_set)[:2])
        built = []
        unsafe = Pseudocube._unsafe.__func__

        def counted(cls, *args):
            built.append(args)
            return unsafe(cls, *args)

        monkeypatch.setattr(Pseudocube, "_unsafe", classmethod(counted))
        warm = warm_minimize(ctx, edited)
        monkeypatch.undo()
        assert ctx.problem.num_columns > 2000
        assert len(built) <= ctx.form.num_pseudoproducts + warm.form.num_pseudoproducts
        cold = minimize_spp(edited, covering="exact")
        assert warm.form == cold.form
        assert warm.covering_optimal == cold.covering_optimal


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
        """No edit size is too large: toggling every care point of FUNC
        (an edit of 9 points) keeps the care set and is eligible."""
        ctx = _context()
        edited = toggle_points(FUNC, sorted(FUNC.care_set))
        assert ctx.edit_size(edited) == 9
        assert eligibility(ctx, edited) is None

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
