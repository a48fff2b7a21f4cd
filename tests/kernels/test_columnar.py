"""Columnar candidates: the packed generation's EPPP columns go into the
packed cover without Pseudocube objects or Python-int masks.

The columnar build (:func:`repro.kernels.coverage.build_problem` on an
:class:`~repro.minimize.eppp.EpppColumns`) is pinned to the scalar
reference — ``_masks_and_costs`` plus ``problem_from_masks`` over the
same candidates as a list — in masks, costs, column order, payloads and
budget ticks.  The lazy ``eppps`` sequence is pinned to the scalar
lane's list, and the solves are pinned to build pseudocubes only for
the columns they select.
"""

import random
import tracemalloc

import pytest

from repro.bench.paper_data import TABLE1
from repro.bench.suite import BENCHMARKS, get_benchmark
from repro.boolfunc.function import BoolFunc
from repro.budget import Budget
from repro.core.pseudocube import Pseudocube
from repro.delta import build_context, toggle_points, warm_minimize
from repro.fuzz.generators import draw_function
from repro.kernels import bitmat, coverage, gf2mat
from repro.minimize import covering as cov
from repro.minimize import eppp as eppp_mod
from repro.minimize.cost import literal_cost
from repro.minimize.eppp import EpppColumns, generate_eppp
from repro.minimize.exact import minimize_spp

pytestmark = pytest.mark.skipif(
    not (gf2mat.AVAILABLE and bitmat.HAVE_NUMPY),
    reason="numpy kernels disabled (REPRO_NO_NUMPY or no bitwise_count)",
)

POOL = [("adr4", o) for o in (1, 2, 3, 4)] + [("dist", o) for o in (1, 2, 3, 4)] + [
    ("life", 0)
] + [("mlp4", o) for o in (1, 2, 3, 4, 5, 6, 7)] + [("root", o) for o in (0, 1, 4)] + [
    ("f51m", o) for o in (1, 2, 3, 4, 6, 7)
] + [("radd", o) for o in (1, 2, 3, 4)]


def _scalar_build(rows, candidates, budget):
    """The reference: the grouped Python-int pass over a list."""
    cands = list(candidates)
    masks, costs = coverage._masks_and_costs(rows, cands, literal_cost, budget)
    return cov.problem_from_masks(len(rows), masks, costs, cands)


def _assert_same_build(func, eppps, columnar=True):
    """The build equals the reference, through the columnar kernel
    (``columnar``) or the reference pass; returns whether it dropped
    zero-coverage candidates."""
    rows = sorted(func.on_set)
    built, reference = Budget(), Budget()
    problem = coverage.build_problem(rows, eppps, budget=built)
    expected = _scalar_build(rows, eppps, reference)
    assert built.ticks == reference.ticks
    assert problem.num_rows == expected.num_rows
    assert problem.costs == expected.costs
    assert problem.column_masks == expected.column_masks
    # Payload identity, not just equality: the lazy sequence hands out
    # one object per item however often it is read.
    assert [id(p) for p in problem.payloads] == [id(p) for p in expected.payloads]
    if not columnar:
        assert problem.matrix is None
    elif isinstance(eppps, EpppColumns) and problem.num_columns:
        assert problem.matrix is not None
        packed = bitmat.BitMatrix.from_masks(
            expected.column_masks, expected.costs, expected.num_rows
        )
        assert (problem.matrix.matrix == packed.matrix).all()
        assert (problem.matrix.costs == packed.costs).all()
    return problem.num_columns < len(eppps)


class TestColumnarBuild:
    def test_pool(self):
        for name, output in POOL:
            func = get_benchmark(name)[output]
            eppps = generate_eppp(func, max_pseudoproducts=2_000_000, on_limit="stop").eppps
            assert isinstance(eppps, EpppColumns)
            _assert_same_build(func, eppps)

    def test_every_table1_output(self):
        """Every output of the registered Table-1 functions, capped at
        20,000 pseudoproducts; a truncated generation is a list and
        takes the reference pass on both sides, so only the others are
        compared."""
        names = [row.function for row in TABLE1 if row.function in BENCHMARKS]
        columnar = 0
        for name in names:
            for func in get_benchmark(name).outputs:
                if not func.on_set:
                    continue
                generation = generate_eppp(func, max_pseudoproducts=20_000, on_limit="stop")
                assert isinstance(generation.eppps, EpppColumns) != generation.truncated
                if not generation.truncated:
                    columnar += 1
                    _assert_same_build(func, generation.eppps)
        assert columnar >= 25

    @pytest.mark.parametrize("min_packed", [0, eppp_mod._MIN_PACKED_PAIRS])
    def test_fuzz_draws(self, monkeypatch, min_packed):
        """400 draws of the fuzz families at every width, through the
        packed lanes only and with the scalar hand-off tail; dc-heavy
        draws leave candidates that cover no on-point."""
        monkeypatch.setattr(eppp_mod, "_MIN_PACKED_PAIRS", min_packed)
        rng = random.Random(20261018 + min_packed)
        dropped = 0
        for _ in range(400):
            _, func = draw_function(rng, n_min=3, n_max=7)
            for width in (None, 1, 2, 3):
                eppps = generate_eppp(func, factor_width=width).eppps
                assert isinstance(eppps, EpppColumns)
                dropped += _assert_same_build(func, eppps)
        assert dropped > 0

    def test_too_wide_for_the_row_tables_takes_the_reference_pass(self):
        """A 20-input function's row tables would exceed
        ``_DENSE_TABLE_WORDS``, so its columns take the grouped pass."""
        rng = random.Random(8)
        base = rng.randrange(1 << 20) & ~0b111111
        on = {base | p for p in range(64) if bin(p).count("1") % 2}
        on |= {rng.randrange(1 << 20) for _ in range(40)}
        dc = {base | p for p in range(64)} - on
        func = BoolFunc(20, frozenset(on), frozenset(dc))
        assert (1 << 20) > coverage._DENSE_TABLE_WORDS
        eppps = generate_eppp(func).eppps
        assert isinstance(eppps, EpppColumns)
        _assert_same_build(func, eppps, columnar=False)

    def test_any_chunk_size(self, monkeypatch):
        rng = random.Random(5)
        funcs = [get_benchmark("life")[0], get_benchmark("dist")[1]]
        funcs += [draw_function(rng, n_min=4, n_max=7)[1] for _ in range(20)]
        for chunk in (1, 7, 64):
            monkeypatch.setattr(coverage, "_BUILD_CHUNK_POINTS", chunk)
            for func in funcs:
                _assert_same_build(func, generate_eppp(func).eppps)

    def test_empty_rows_and_candidates(self):
        func = BoolFunc(3, frozenset(), frozenset({1, 3}))
        eppps = generate_eppp(func).eppps
        assert len(eppps) and isinstance(eppps, EpppColumns)
        budget = Budget()
        problem = coverage.build_problem([], eppps, budget=budget)
        assert (problem.num_rows, problem.num_columns, budget.ticks) == (0, 0, 0)
        empty = coverage.build_problem([1, 2], EpppColumns(3))
        assert (empty.num_rows, empty.num_columns) == (2, 0)

    def test_custom_cost_takes_the_reference_pass(self):
        func = get_benchmark("adr4")[3]
        eppps = generate_eppp(func).eppps
        rows = sorted(func.on_set)

        def cost(pc):
            return 2 * pc.num_literals + 1

        problem = coverage.build_problem(rows, eppps, cost_of=cost)
        assert problem.costs == [cost(pc) for pc in problem.payloads]


class TestLazyEppps:
    def test_equals_the_scalar_list(self, monkeypatch):
        rng = random.Random(11)
        funcs = [get_benchmark("adr4")[3], get_benchmark("dist")[1]]
        funcs += [draw_function(rng, n_min=3, n_max=7)[1] for _ in range(40)]
        for func in funcs:
            lazy = generate_eppp(func).eppps
            with monkeypatch.context() as mp:
                mp.setattr(gf2mat, "AVAILABLE", False)
                plain = generate_eppp(func).eppps
            assert isinstance(lazy, EpppColumns) and isinstance(plain, list)
            assert len(lazy) == len(plain)
            assert lazy == plain and plain == lazy
            if plain:
                assert lazy[0] == plain[0] and lazy[-1] == plain[-1]
                middle = len(plain) // 2
                assert lazy[middle] is lazy[middle]
                assert lazy[middle:] == plain[middle:]
                assert lazy[::3] == plain[::3]
            assert list(lazy) == plain
            assert [id(pc) for pc in lazy] == [id(pc) for pc in lazy]
            every = cov.take_payloads(lazy, range(len(plain)))
            odd = cov.take_payloads(lazy, range(1, len(plain), 2))
            assert every == lazy and lazy == every and every == plain
            assert odd == plain[1::2] and every != plain[:-1]
            with pytest.raises(IndexError):
                lazy[len(plain)]

    def test_truncated_generation_is_a_list(self):
        func = get_benchmark("life")[0]
        generation = generate_eppp(func, max_pseudoproducts=20_000, on_limit="stop")
        assert generation.truncated and isinstance(generation.eppps, list)


def _count_built(monkeypatch):
    """Count ``Pseudocube._unsafe`` calls from here on."""
    built = []
    unsafe = Pseudocube._unsafe.__func__

    def counting(cls, n, anchor, basis):
        built.append(anchor)
        return unsafe(cls, n, anchor, basis)

    monkeypatch.setattr(Pseudocube, "_unsafe", classmethod(counting))
    return built


def _count_unpacked(monkeypatch):
    """Count the columns unpacked into Python-int masks from here on."""
    unpacked = []
    masks = bitmat.BitMatrix.masks

    def counting(self, columns=None):
        out = masks(self, columns)
        unpacked.append(len(out))
        return out

    monkeypatch.setattr(bitmat.BitMatrix, "masks", counting)
    return unpacked


class TestOnlySelectedColumnsMaterialize:
    def test_cold_exact_solve_builds_only_its_cover(self, monkeypatch):
        func = get_benchmark("life")[0]
        built = _count_built(monkeypatch)
        unpacked = _count_unpacked(monkeypatch)
        result = minimize_spp(func, max_pseudoproducts=2_000_000, on_limit="stop")
        assert len(built) == result.num_pseudoproducts
        assert result.problem.num_columns > 1000
        assert result.problem._masks is None
        # The reverse-delete and the improvement pass unpack a few
        # selected columns at a time, never the matrix.
        assert max(unpacked) <= 2 * result.num_pseudoproducts

    def test_warm_edit_on_a_packed_base_builds_no_unselected_column(self, monkeypatch):
        func = get_benchmark("life")[0]
        base = minimize_spp(func, max_pseudoproducts=2_000_000, on_limit="stop")
        context = build_context(func, base)
        on = sorted(func.on_set)
        edited = toggle_points(func, on[::70][:2])
        problems = []
        solve = cov.solve

        def spy(problem, *args, **kwargs):
            problems.append(problem)
            return solve(problem, *args, **kwargs)

        monkeypatch.setattr(cov, "solve", spy)
        built = _count_built(monkeypatch)
        unpacked = _count_unpacked(monkeypatch)
        warm = warm_minimize(context, edited)
        (problem,) = problems
        assert problem.matrix is not None and problem._masks is None
        assert len(built) <= warm.num_pseudoproducts
        assert max(unpacked) <= 2 * warm.num_pseudoproducts
        assert warm.form == minimize_spp(
            edited, max_pseudoproducts=2_000_000, on_limit="stop"
        ).form

    def test_capped_solve_peak_stays_bounded(self):
        """radd[1] capped at the ladder's 2,000,000 pseudoproducts: the
        generation holds one block of pairs at a time and the columnar
        build one chunk of points, so the traced peak of the whole
        solve stays under 8 MiB."""
        func = get_benchmark("radd")[1]
        minimize_spp(func, max_pseudoproducts=2_000_000)  # warm caches
        tracemalloc.start()
        try:
            result = minimize_spp(func, max_pseudoproducts=2_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.problem.matrix is not None
        assert peak <= 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"
