"""Tests for the degradation ladder and rung execution."""

import pytest

from repro.bench.suite import get_benchmark
from repro.engine.job import Job
from repro.engine.ladder import execute_rung, ladder_for
from repro.minimize.exact import minimize_spp
from repro.minimize.heuristic import minimize_spp_k
from repro.minimize.sp import minimize_sp
from repro.serialize import form_from_dict
from repro.verify import assert_equivalent


@pytest.fixture(scope="module")
def adr2_out1():
    return get_benchmark("adr2")[1]


class TestLadderShape:
    def test_exact_ladder(self, adr2_out1):
        names = [r.name for r in ladder_for(Job(adr2_out1, method="exact"))]
        assert names == ["exact", "bounded-2", "heuristic-k0", "sp"]

    def test_bounded_ladder(self, adr2_out1):
        names = [r.name for r in ladder_for(Job(adr2_out1, method="bounded", bound=3))]
        assert names == ["bounded-3", "heuristic-k0", "sp"]

    def test_heuristic_ladder_skips_duplicate_k0(self, adr2_out1):
        names = [r.name for r in ladder_for(Job(adr2_out1, method="heuristic", k=0))]
        assert names == ["heuristic-k0", "sp"]
        names = [r.name for r in ladder_for(Job(adr2_out1, method="heuristic", k=2))]
        assert names == ["heuristic-k2", "heuristic-k0", "sp"]

    def test_sp_ladder_is_just_sp(self, adr2_out1):
        assert [r.name for r in ladder_for(Job(adr2_out1, method="sp"))] == ["sp"]

    def test_exact_budget_propagates_to_rung(self, adr2_out1):
        rung = ladder_for(Job(adr2_out1, method="exact", max_pseudoproducts=99))[0]
        assert rung.params["max_pseudoproducts"] == 99
        # And an uncapped job still gets a memory-safety default cap.
        rung = ladder_for(Job(adr2_out1, method="exact"))[0]
        assert rung.params["max_pseudoproducts"] is not None

    @pytest.mark.parametrize("method", ["exact", "bounded"])
    def test_bounded_rung_gets_the_exact_cap(self, adr2_out1, method):
        for cap in (99, None):
            exact = ladder_for(Job(adr2_out1, max_pseudoproducts=cap))[0]
            job = Job(adr2_out1, method=method, max_pseudoproducts=cap)
            (bounded,) = [r for r in ladder_for(job) if r.method == "bounded"]
            assert bounded.params["max_pseudoproducts"] == exact.params["max_pseudoproducts"]


class TestExecuteRung:
    def test_exact_rung_matches_direct_minimize(self, adr2_out1):
        job = Job(adr2_out1, method="exact", label="adr2[1]")
        record = execute_rung(job, ladder_for(job)[0])
        assert record["rung"] == "exact"
        assert record["literals"] == minimize_spp(adr2_out1).num_literals
        assert record["job"]["hash"] == job.content_hash
        assert not record["truncated"]

    def test_heuristic_rung_matches_direct(self, adr2_out1):
        job = Job(adr2_out1, method="heuristic", k=1)
        record = execute_rung(job, ladder_for(job)[0])
        assert record["rung"] == "heuristic-k1"
        assert record["literals"] == minimize_spp_k(adr2_out1, 1).num_literals

    def test_sp_rung_records_primes(self, adr2_out1):
        job = Job(adr2_out1, method="sp")
        record = execute_rung(job, ladder_for(job)[0])
        sp = minimize_sp(adr2_out1)
        assert record["literals"] == sp.num_literals
        assert record["extras"]["num_primes"] == sp.num_primes
        assert record["optimal"] is False

    def test_form_round_trips_and_verifies(self, adr2_out1):
        job = Job(adr2_out1, method="exact")
        record = execute_rung(job, ladder_for(job)[0])
        form = form_from_dict(record["form"])
        assert_equivalent(form, adr2_out1)

    def test_truncated_bounded_rung_is_verified_and_flagged(self):
        fo = get_benchmark("adr3")[2]
        job = Job(fo, method="bounded", bound=2, max_pseudoproducts=20)
        record = execute_rung(job, ladder_for(job)[0])
        assert record["rung"] == "bounded-2"
        assert record["truncated"] is True
        assert record["optimal"] is False
        assert record["integrity"]["verified"] == "full"
        assert_equivalent(form_from_dict(record["form"]), fo)

    def test_truncated_generation_is_flagged_non_optimal(self):
        fo = get_benchmark("adr3")[2]
        job = Job(fo, method="exact", max_pseudoproducts=50)
        record = execute_rung(job, ladder_for(job)[0])
        assert record["truncated"]
        assert record["optimal"] is False
        # Still a verified cover.
        assert_equivalent(form_from_dict(record["form"]), fo)


class TestLadderOrder:
    """Each rung is cheaper than the one above it.  Wall clock is for the
    CI gate; here the machine-independent measure: the width filter
    must leave bounded-2 fewer pair comparisons than exact."""

    @pytest.mark.parametrize("name,output", [("life", 0), ("dist", 1), ("adr4", 3)])
    def test_bounded2_compares_fewer_pairs_than_exact(self, name, output):
        job = Job(get_benchmark(name)[output], method="exact")
        exact, bounded = ladder_for(job)[:2]
        assert bounded.name == "bounded-2"
        exact_pairs = execute_rung(job, exact)["extras"]["comparisons"]
        bounded_pairs = execute_rung(job, bounded)["extras"]["comparisons"]
        assert bounded_pairs < exact_pairs
