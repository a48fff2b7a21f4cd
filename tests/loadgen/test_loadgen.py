"""Tests for the load generator: workload, driver, reports."""

from __future__ import annotations

import json

import pytest

from repro.loadgen import (
    LoadDriver,
    Sample,
    Stage,
    StageReport,
    Workload,
    write_report,
)
from repro.loadgen.driver import _percentile
from repro.serve import MinimizeService, ServeConfig


class TestWorkload:
    def test_deterministic_across_instances(self):
        a, b = Workload(seed=7), Workload(seed=7)
        assert a.distinct() == b.distinct()
        assert [a.next_body() for _ in range(20)] == [
            b.next_body() for _ in range(20)
        ]

    def test_seed_changes_pools(self):
        assert Workload(seed=1).distinct() != Workload(seed=2).distinct()

    def test_pool_sizes(self):
        workload = Workload(small_pool=5, large_pool=3)
        assert len(workload.distinct()) == 8
        described = workload.describe()
        assert described["small_pool"] == 5
        assert described["large_pool"] == 3

    def test_large_fraction_zero_draws_only_small(self):
        workload = Workload(small_pool=4, large_pool=2, large_fraction=0.0)
        larges = set(workload._large)
        assert all(
            workload.next_body() not in larges for _ in range(50)
        )

    def test_bodies_are_valid_requests(self):
        for body in Workload(small_pool=3, large_pool=2).distinct():
            payload = json.loads(body)
            assert ("pla" in payload) ^ ("benchmark" in payload)
            assert payload["max_rung"] == "heuristic"

    def test_large_fraction_validated(self):
        with pytest.raises(ValueError):
            Workload(large_fraction=1.5)

    def test_dup_rate_validated(self):
        with pytest.raises(ValueError):
            Workload(dup_rate=-0.1)

    def test_dup_bodies_are_delta_requests(self):
        workload = Workload(seed=3, small_pool=6, large_pool=0, dup_rate=0.5)
        assert workload.describe()["dup_pool"] > 0
        from repro.serve.request import jobs_from_payload

        for body in workload._dups:
            payload = json.loads(body)
            assert set(payload["delta"]) == {"toggles"}
            assert "pla" in payload["base"]
            # Dup bodies carry no max_rung cap: the warm path lives on
            # the exact rung.
            assert "max_rung" not in payload
            assert jobs_from_payload(payload)  # expands cleanly

    def test_dup_rate_one_draws_only_dups(self):
        workload = Workload(seed=3, small_pool=6, large_pool=2, dup_rate=1.0)
        dups = set(workload._dups)
        assert all(workload.next_body() in dups for _ in range(30))

    def test_dup_rate_zero_builds_no_pool(self):
        workload = Workload(seed=3, small_pool=4)
        assert workload.describe()["dup_pool"] == 0


class TestPercentile:
    def test_empty(self):
        assert _percentile([], 0.5) is None

    def test_single(self):
        assert _percentile([3.0], 0.99) == 3.0

    def test_interpolates(self):
        values = [0.0, 1.0, 2.0, 3.0]
        assert _percentile(values, 0.5) == pytest.approx(1.5)
        assert _percentile(values, 0.0) == 0.0
        assert _percentile(values, 1.0) == 3.0


class TestStageReport:
    def test_outcome_classification(self):
        stage = Stage(duration=1.0, clients=2)
        samples = [
            Sample(0.0, 0.010, 200),
            Sample(0.1, 0.020, 200),
            Sample(0.2, 0.001, 429, "overloaded"),
            Sample(0.3, 0.500, 500, "internal"),
            Sample(0.4, 0.0, 0, "transport"),
        ]
        report = StageReport.from_samples(stage, samples, seconds=1.0)
        assert report.requests == 5
        assert report.ok == 2
        assert report.shed == 1
        assert report.failed == 1
        assert report.transport_errors == 1
        assert report.shed_rate == pytest.approx(0.2)
        assert report.throughput_rps == pytest.approx(2.0)
        # Transport errors carry no latency; percentiles cover the rest.
        assert report.p50 is not None
        doc = report.as_dict()
        assert doc["latency"]["p99"] == report.p99

    def test_open_and_closed_modes(self):
        assert Stage(1.0, clients=4).mode == "closed"
        assert Stage(1.0, clients=4, rate=10.0).mode == "open"


@pytest.fixture()
def service():
    svc = MinimizeService(ServeConfig(port=0, threads=2, queue_capacity=4))
    _, port = svc.start()
    yield svc, port
    svc.drain(grace=0.0)


class TestDriverEndToEnd:
    def test_closed_loop_run_and_report(self, service, tmp_path):
        _, port = service
        workload = Workload(seed=3, small_pool=4, large_pool=0)
        lines = []
        driver = LoadDriver("127.0.0.1", port, workload,
                            progress=lines.append)
        result = driver.run(
            [Stage(duration=0.5, clients=2)], target="unit-test"
        )
        assert result.target == "unit-test"
        assert result.warmup_requests == 4
        (stage,) = result.stages
        assert stage.ok > 0
        assert stage.transport_errors == 0
        assert stage.p50 is not None and stage.p50 < 5.0
        # Warm-up primed the cache, so the stage itself was all hits.
        assert stage.server_delta.get("cache.counters.hits", 0) > 0
        assert any("stage 1/1" in line for line in lines)

        json_path, md_path = write_report(
            tmp_path, "unit", "Unit run", {"single": result},
            notes=["a note"],
        )
        doc = json.loads(json_path.read_text())
        assert doc["schema"] == "repro-loadtest/1"
        assert doc["runs"]["single"]["stages"][0]["ok"] == stage.ok
        markdown = md_path.read_text()
        assert "| stage | load |" in markdown
        assert "a note" in markdown

    def test_open_loop_keeps_schedule(self, service):
        _, port = service
        workload = Workload(seed=3, small_pool=4, large_pool=0)
        driver = LoadDriver("127.0.0.1", port, workload)
        result = driver.run(
            [Stage(duration=0.5, clients=8, rate=40.0)], warmup_repeats=1
        )
        (stage,) = result.stages
        # Open loop fires on schedule: ~rate×duration arrivals.
        assert stage.requests >= 15
        assert stage.ok > 0

    def test_driver_survives_unreachable_target(self):
        workload = Workload(seed=3, small_pool=2, large_pool=0)
        from repro.cluster import free_port

        driver = LoadDriver("127.0.0.1", free_port(), workload,
                            request_timeout=2.0)
        result = driver.run(
            [Stage(duration=0.3, clients=1)], warmup_repeats=1
        )
        (stage,) = result.stages
        assert stage.ok == 0
        assert stage.transport_errors == stage.requests > 0
