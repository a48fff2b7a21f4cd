"""Integration tests for the ``repro serve`` service, in-process.

Each test starts a :class:`MinimizeService` on an ephemeral port and
talks plain ``http.client`` to it.  Deterministic slowness comes from
the fault-injection plan (``kind="slow"`` at ``scheduler.rung_start``)
rather than big inputs, so the tests stay fast and reliable.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import pytest

from repro import faults
from repro.engine.batch import Manifest
from repro.faults import FaultPlan, FaultRule
from repro.serve import MinimizeService, ServeConfig

PLA = ".i 3\n.o 1\n1-- 1\n-11 1\n.e\n"
# A different function with the same on-set size (5 points, so the same
# breaker size-bucket) — dodges the result cache between requests.
PLA_SAME_BUCKET = ".i 3\n.o 1\n0-- 1\n-11 1\n.e\n"


@pytest.fixture(autouse=True)
def _no_leftover_faults():
    yield
    faults.uninstall()


@pytest.fixture()
def service():
    """Start a service on an ephemeral port; drain it afterwards."""
    started: list[MinimizeService] = []

    def _start(**overrides) -> tuple[MinimizeService, int]:
        config = ServeConfig(port=0, **overrides)
        svc = MinimizeService(config)
        _, port = svc.start()
        started.append(svc)
        return svc, port

    yield _start
    for svc in started:
        svc.drain(grace=0.0)


def _request(port: int, method: str, path: str, payload=None, headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        body = json.dumps(payload) if payload is not None else None
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        data = json.loads(response.read() or b"{}")
        return response.status, dict(response.getheaders()), data
    finally:
        conn.close()


def _get(port, path):
    return _request(port, "GET", path)


def raw_post(host: str, port: int, content_length: str) -> tuple[int, dict]:
    """POST /minimize with a hand-written ``Content-Length`` header
    (http.client refuses to send a malformed one).  The write side stays
    open, so a server that waits for EOF times the test out."""
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(
            f"POST /minimize HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {content_length}\r\n\r\n{{}}".encode()
        )
        response = http.client.HTTPResponse(sock)
        response.begin()
        return response.status, json.loads(response.read())


def _post(port, payload, headers=None):
    return _request(port, "POST", "/minimize", payload, headers)


class TestEndpoints:
    def test_health_ready_minimize(self, service):
        _, port = service()
        assert _get(port, "/healthz")[0] == 200
        assert _get(port, "/readyz")[0] == 200
        status, _, body = _post(port, {"pla": PLA})
        assert status == 200
        assert body["ok"]
        (entry,) = body["results"]
        assert entry["source"] in ("computed", "cached")
        assert entry["literals"] > 0

    def test_bad_requests(self, service):
        _, port = service()
        assert _post(port, {"method": "nope"})[0] == 400
        assert _post(port, {})[0] == 400
        assert _get(port, "/nope")[0] == 404
        status, _, body = _request(port, "POST", "/nope", {})
        assert status == 404 and not body["ok"]

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_malformed_content_length_is_400_parse(self, service, length):
        _, port = service()
        status, body = raw_post("127.0.0.1", port, length)
        assert status == 400
        assert body["error"]["code"] == "parse"
        assert _get(port, "/healthz")[0] == 200

    def test_max_rung_caps_the_ladder(self, service):
        _, port = service()
        status, _, body = _post(port, {"pla": PLA, "max_rung": "sp"})
        assert status == 200
        (entry,) = body["results"]
        assert entry["rung"] == "sp"
        assert entry["degraded"]

    def test_readyz_reflects_shedding(self, service):
        svc, port = service()
        svc.admission.shed_all = True
        status, headers, body = _get(port, "/readyz")
        assert status == 503
        assert body["status"] == "shedding"
        assert "Retry-After" in headers
        assert _get(port, "/healthz")[0] == 200  # liveness unaffected
        svc.admission.shed_all = False
        assert _get(port, "/readyz")[0] == 200


class TestOverload:
    def test_burst_sheds_excess_and_stays_healthy(self, service):
        # Admission shape: 1 worker slot + 1 waiting seat = capacity 2.
        # A 4x burst (8 concurrent) must shed the excess with 429 +
        # Retry-After while liveness stays green.
        svc, port = service(
            threads=1, queue_capacity=1, wait_timeout=0.2, default_budget=10.0
        )
        faults.install(
            FaultPlan(
                [FaultRule(site="scheduler.rung_start", kind="slow",
                           arg=0.5, times=None)]
            )
        )
        burst = 8
        results: list[tuple[int, dict]] = []
        lock = threading.Lock()

        def fire():
            status, headers, _ = _post(port, {"pla": PLA, "timeout": 3.0})
            with lock:
                results.append((status, headers))

        threads = [threading.Thread(target=fire) for _ in range(burst)]
        for thread in threads:
            thread.start()
        assert _get(port, "/healthz")[0] == 200  # mid-burst liveness
        for thread in threads:
            thread.join(timeout=30.0)
        assert len(results) == burst
        shed = [r for r in results if r[0] == 429]
        served = [r for r in results if r[0] == 200]
        assert len(shed) >= burst - 2  # at most slot + waiting seat get in
        assert served  # and the admitted work still completes
        for _, headers in shed:
            assert "Retry-After" in headers
        assert svc.stats()["admission"]["shed"] >= burst - 2
        assert _get(port, "/healthz")[0] == 200

    def test_budget_exceeded_is_structured(self, service):
        _, port = service()
        faults.install(
            FaultPlan(
                [FaultRule(site="scheduler.rung_start", kind="slow",
                           arg=30.0, times=None)]
            )
        )
        status, _, body = _post(
            port, {"pla": PLA, "budget_seconds": 0.2, "timeout": 5.0}
        )
        assert status == 408
        assert body["error"]["code"] == "budget-exceeded"
        assert body["results"][0]["source"] == "cancelled"


class TestDrain:
    def test_drain_cancels_inflight_and_journal_survives(self, service, tmp_path):
        manifest_dir = tmp_path / "manifest"
        svc, port = service(
            manifest_dir=str(manifest_dir), default_budget=30.0
        )
        # One completed request lands in the journal before the drain.
        assert _post(port, {"pla": PLA})[0] == 200
        journal_keys = set(Manifest(manifest_dir).replay())
        assert len(journal_keys) == 1

        # Now stall a request indefinitely and drain mid-flight.
        faults.install(
            FaultPlan(
                [FaultRule(site="scheduler.rung_start", kind="slow",
                           arg=30.0, times=None)]
            )
        )
        outcome: list[tuple[int, dict]] = []

        def slow_request():
            status, _, body = _post(port, {"benchmark": "adr2", "timeout": 20.0})
            outcome.append((status, body))

        thread = threading.Thread(target=slow_request)
        thread.start()
        for _ in range(200):
            if svc.inflight:
                break
            threading.Event().wait(0.01)
        assert svc.inflight == 1

        svc.drain(grace=0.1)
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        (status, body), = outcome
        assert status == 503
        assert body["error"]["code"] == "cancelled"
        assert "draining" in body["error"]["message"]

        # The journal survived the drain byte-for-byte usable: the
        # pre-drain record replays, the cancelled one never landed.
        assert set(Manifest(manifest_dir).replay()) == journal_keys

    def test_drained_service_refuses_new_work(self, service):
        svc, port = service()
        svc.admission.close()
        status, headers, body = _post(port, {"pla": PLA})
        assert status == 429
        assert "Retry-After" in headers
        assert "draining" in body["error"]["message"]
        assert _get(port, "/readyz")[0] == 503


class TestBreakerIntegration:
    def test_repeated_timeouts_open_the_breaker(self, service):
        svc, port = service(breaker_threshold=1, default_budget=10.0)
        faults.install(
            FaultPlan(
                [FaultRule(site="scheduler.rung_start", kind="slow",
                           arg=30.0, times=1)]
            )
        )
        # First request: the exact rung stalls past its 0.1s attempt
        # deadline, times out, and trips the threshold-1 breaker.
        status, _, body = _post(port, {"pla": PLA, "timeout": 0.1})
        assert status == 200
        assert body["results"][0]["degraded"]
        assert svc.stats()["breaker"]["open"]  # exact/<bucket> is open

        # Second request (fault exhausted, different function in the
        # same size bucket so the cache stays out of the way): the gate
        # skips the exact rung outright instead of burning another
        # timeout.
        status, _, body = _post(port, {"pla": PLA_SAME_BUCKET, "timeout": 0.1})
        assert status == 200
        assert body["results"][0]["rung"] != "exact"
        assert svc.stats()["breaker"]["skips"] >= 1


class TestDeadlinePropagation:
    """The worker end of X-Repro-Deadline: shed expired work unrun."""

    def test_expired_deadline_is_shed_before_compute(self, service):
        svc, port = service()
        status, headers, body = _post(
            port, {"pla": PLA}, headers={"X-Repro-Deadline": "0"}
        )
        assert status == 503
        assert body["error"]["code"] == "deadline-exceeded"
        assert "Retry-After" in headers
        assert svc.stats()["counters"]["deadline_shed"] == 1
        # Never computed: no request ever completed (or even failed) —
        # the shed happened before any minimization work.
        counters = svc.stats()["counters"]
        assert counters["completed"] == 0 and counters["failed"] == 0

    def test_live_deadline_caps_the_request_budget(self, service):
        svc, port = service(default_budget=30.0)
        faults.install(FaultPlan(
            [FaultRule(site="scheduler.rung_start", kind="slow",
                       arg=30.0, times=None)]
        ))
        started = time.monotonic()
        status, _, body = _post(
            port, {"pla": PLA, "timeout": 10.0},
            headers={"X-Repro-Deadline": "1.0"},
        )
        elapsed = time.monotonic() - started
        # The 1s propagated deadline overrode both the 30s default
        # budget and the 10s requested rung timeout: the stalled rung
        # was abandoned around the deadline with the structured
        # budget-exceeded outcome instead of grinding on for 10s+.
        assert status == 408
        assert body["error"]["code"] == "budget-exceeded"
        assert body["results"][0]["source"] == "cancelled"
        assert elapsed < 8.0, elapsed

    def test_malformed_deadline_is_ignored(self, service):
        _, port = service()
        status, _, body = _post(
            port, {"pla": PLA}, headers={"X-Repro-Deadline": "not-a-number"}
        )
        assert status == 200
        assert body["ok"]
