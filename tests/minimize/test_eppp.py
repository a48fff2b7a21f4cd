"""Tests for EPPP generation (Algorithm 2, steps 1–2)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.suite import get_benchmark
from repro.boolfunc.function import BoolFunc
from repro.core import gf2
from repro.core.pseudocube import Pseudocube
from repro.fuzz.generators import FAMILIES
from repro.kernels import gf2mat
from repro.minimize.eppp import GenerationBudgetExceeded, generate_eppp


def _all_pseudoproducts(func: BoolFunc) -> set[Pseudocube]:
    """Every pseudocube contained in the care set (brute force: every
    direction space of B^n, every coset of it inside the care set)."""
    care = func.care_set
    found = set()
    spaces = {()}
    while spaces:
        for basis in spaces:
            span = list(gf2.span_points(basis))
            for x in care:
                if all(x ^ v in care for v in span):
                    found.add(Pseudocube.from_points(func.n, [x ^ v for v in span]))
        spaces = {
            gf2.insert_vector(basis, v)
            for basis in spaces
            for v in range(1, 1 << func.n)
            if not gf2.contains(basis, v)
        }
    return found


def step_counters(result):
    """Every ``StepStats`` field but ``seconds``, step by step."""
    return [
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
    ]


small_funcs = st.builds(
    lambda n, on: BoolFunc(n, frozenset(on)),
    st.just(3),
    st.sets(st.integers(0, 7), min_size=1, max_size=8),
)


class TestGeneration:
    def test_single_point(self):
        func = BoolFunc(3, frozenset({5}))
        result = generate_eppp(func)
        assert result.eppps == [Pseudocube.from_point(3, 5)]

    def test_adjacent_pair_discards_points(self):
        """Two Hamming-adjacent points unify into a 2-literal cube; the
        3-literal minterms are discarded (Definition 3)."""
        func = BoolFunc(3, frozenset({0b001, 0b011}))
        result = generate_eppp(func)
        assert len(result.eppps) == 1
        assert result.eppps[0].degree == 1
        assert result.eppps[0].num_literals == 2

    def test_distance3_pair_keeps_all(self):
        """Points at Hamming distance 3 in B^3 unify into a 4-literal
        pseudoproduct, which does NOT cover the 3-literal minterms
        (the paper's point that unions can gain literals)."""
        func = BoolFunc(3, frozenset({0b001, 0b110}))
        result = generate_eppp(func)
        assert len(result.eppps) == 3
        literals = sorted(pc.num_literals for pc in result.eppps)
        assert literals == [3, 3, 4]

    def test_equal_literals_kept_when_discard_equal_false(self):
        """Points at distance 2: the union also has 3 literals, so the
        minterms survive exactly when discard_equal is False."""
        func = BoolFunc(3, frozenset({0b001, 0b010}))
        loose = generate_eppp(func, discard_equal=True)
        strict = generate_eppp(func, discard_equal=False)
        assert len(loose.eppps) == 1
        assert len(strict.eppps) == 3

    @given(small_funcs)
    @settings(max_examples=40, deadline=None)
    def test_every_eppp_is_a_pseudoproduct(self, func):
        result = generate_eppp(func)
        care = func.care_set
        for pc in result.eppps:
            assert set(pc.points()) <= care

    @given(small_funcs)
    @settings(max_examples=40, deadline=None)
    def test_eppps_unique_and_cover(self, func):
        result = generate_eppp(func)
        assert len(result.eppps) == len(set(result.eppps))
        covered = set()
        for pc in result.eppps:
            covered |= set(pc.points())
        assert covered == func.care_set

    @given(small_funcs)
    @settings(max_examples=30, deadline=None)
    def test_contains_all_prime_pseudoproducts(self, func):
        """The retained set must include every *prime* pseudoproduct
        (maximal under containment) — primes are never discarded since a
        strictly larger pseudoproduct does not exist, let alone one with
        fewer literals."""
        result = generate_eppp(func)
        everything = _all_pseudoproducts(func)
        primes = {
            pc
            for pc in everything
            if not any(
                other != pc and other.contains_pseudocube(pc) for other in everything
            )
        }
        assert primes <= set(result.eppps)

    @given(small_funcs)
    @settings(max_examples=30, deadline=None)
    def test_retention_rule(self, func):
        """A retained pseudoproduct is either prime or not covered by
        any pseudoproduct with fewer literals (Definition 3 relaxation:
        the discard rule only looks one degree up, so retained sets may
        be slightly larger than the minimal EPPP set, never smaller)."""
        result = generate_eppp(func)
        everything = _all_pseudoproducts(func)
        retained = set(result.eppps)
        for pc in everything:
            covering_cheaper = [
                other
                for other in everything
                if other != pc
                and other.contains_pseudocube(pc)
                and other.num_literals <= pc.num_literals
                and other.degree == pc.degree + 1
            ]
            if not covering_cheaper:
                assert pc in retained

    def test_backends_agree(self):
        """Untruncated, the trie lane equals the index lane in EPPP set
        and in every step counter: each level's trie groups are its
        basis groups (Property 1 with Theorem 1), so the two lanes pair
        the same items."""
        funcs = [BoolFunc(4, frozenset({0, 3, 5, 6, 9, 10, 12, 15, 1, 7}))]
        funcs += get_benchmark("adr3").outputs
        funcs += [
            FAMILIES[name](random.Random(seed), n)
            for seed, name in enumerate(sorted(FAMILIES) * 6)
            for n in (3, 5, 6)
        ]
        for func in funcs:
            if not func.care_set:
                continue  # the trie lane makes no step for an empty trie
            for width in (None, 2):
                index = generate_eppp(func, factor_width=width)
                trie = generate_eppp(func, factor_width=width, backend="trie")
                assert set(index.eppps) == set(trie.eppps)
                assert step_counters(index) == step_counters(trie)

    def test_unknown_backend_refused(self):
        """``"index"`` and ``"trie"`` are the backends; any other name is
        refused before any work."""
        func = BoolFunc(3, frozenset({1, 6}))
        for backend in ("index", "trie"):
            assert generate_eppp(func, backend=backend).eppps
        with pytest.raises(ValueError, match="btree"):
            generate_eppp(func, backend="btree")


class TestInstrumentation:
    def test_comparisons_do_not_exceed_naive(self):
        func = BoolFunc(4, frozenset(range(12)))
        result = generate_eppp(func)
        for step in result.steps:
            assert step.comparisons <= step.naive_comparisons

    def test_step_zero_is_single_group(self):
        """All degree-0 pseudoproducts share the structure x0·x1·…·xn-1,
        so step 0 has one group and exactly |F|(|F|-1)/2 comparisons."""
        func = BoolFunc(3, frozenset({1, 2, 4, 7}))
        result = generate_eppp(func)
        step0 = result.steps[0]
        assert step0.groups == 1
        assert step0.comparisons == step0.naive_comparisons == 6

    def test_totals(self):
        func = BoolFunc(3, frozenset({1, 2, 4, 7}))
        result = generate_eppp(func)
        assert result.total_comparisons == sum(s.comparisons for s in result.steps)
        assert result.max_degree == max(s.degree for s in result.steps)
        assert result.seconds >= 0


class TestBudget:
    def test_raise_mode(self):
        func = BoolFunc(4, frozenset(range(16)))
        with pytest.raises(GenerationBudgetExceeded):
            generate_eppp(func, max_pseudoproducts=10, on_limit="raise")

    def test_stop_mode_still_covers(self):
        func = BoolFunc(4, frozenset(range(16)))
        result = generate_eppp(func, max_pseudoproducts=10, on_limit="stop")
        assert result.truncated
        covered = set()
        for pc in result.eppps:
            covered |= set(pc.points())
        assert covered == func.care_set

    @pytest.mark.parametrize("on_limit", ["raise", "stop"])
    def test_single_point_zero_cap_agrees_across_lanes(self, on_limit, monkeypatch):
        """A one-point care set has no pairs to unify, so even a zero cap
        never trips: every lane returns the point, untruncated."""
        func = BoolFunc(3, frozenset({5}))
        results = [
            generate_eppp(func, backend=backend, max_pseudoproducts=0, on_limit=on_limit)
            for backend in ("index", "trie")
        ]
        monkeypatch.setattr(gf2mat, "AVAILABLE", False)
        results.append(generate_eppp(func, max_pseudoproducts=0, on_limit=on_limit))
        for result in results:
            assert result.eppps == [Pseudocube.from_point(3, 5)]
            assert not result.truncated

    def test_bad_on_limit(self):
        func = BoolFunc(3, frozenset({1}))
        with pytest.raises(ValueError):
            generate_eppp(func, on_limit="explode")


class TestDontCares:
    def test_dc_points_enlarge_pseudoproducts(self):
        """on={001}, dc={110}: the pair forms a 2-literal pseudoproduct
        usable for covering the single on-point."""
        func = BoolFunc(3, frozenset({0b001}), frozenset({0b110}))
        result = generate_eppp(func)
        degrees = {pc.degree for pc in result.eppps}
        assert 1 in degrees
