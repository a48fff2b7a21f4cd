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
import uuid

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.boolfunc.function import BoolFunc, MultiBoolFunc
from repro.boolfunc.pla import PlaError, parse_pla, write_pla
from repro.cluster import ClusterConfig, ClusterCoordinator
from repro.engine.batch import Manifest
from repro.engine.job import Job
from repro.faults import FaultPlan, FaultRule
from repro.serve import MinimizeService, ServeConfig
from repro.serve.server import jobs_from_payload, parse_memo_stats
from tests.serve.test_metrics import parse_prometheus

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

    def test_sp_rung_stops_at_the_budget(self, service):
        # One all-dash cube over 12 inputs: Quine–McCluskey merges all
        # 3^12 cubes of B^12, about 13 s of work, unless it ticks the
        # request budget as it goes.
        _, port = service()
        t0 = time.monotonic()
        status, _, body = _post(port, {
            "pla": ".i 12\n.o 1\n" + "-" * 12 + " 1\n.e\n",
            "max_rung": "sp",
            "budget_seconds": 0.5,
        })
        assert time.monotonic() - t0 < 5.0
        assert status == 408
        assert body["error"]["code"] == "budget-exceeded"


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


def _unique_pla(body: str = ".i 3\n.o 1\n1-- 1\n-11 1\n.e\n") -> str:
    """A PLA text no earlier test sent: the parse memo is process-wide,
    so each test starts from a text it has certainly not seen."""
    return f"# {uuid.uuid4().hex}\n{body}"


def _fresh_jobs(text: str) -> list[tuple]:
    """(func, content hash, label) of each job a fresh parse of ``text``
    gives, built the way ``jobs_from_payload`` builds them."""
    func = parse_pla(text, name="request")
    return [
        (fo, Job(fo, label=f"request[{o}]").content_hash, f"request[{o}]")
        for o, fo in enumerate(func)
        if fo.on_set
    ]


def _memo_jobs(text: str) -> list[tuple]:
    return [
        (job.func, job.content_hash, job.label)
        for job in jobs_from_payload({"pla": text})
    ]


def _moved(before: dict, after: dict) -> tuple[int, int]:
    """(hits, misses) the parse memo counted between two snapshots."""
    return after["hits"] - before["hits"], after["misses"] - before["misses"]


# Hand-written texts the writer never emits: fd cubes with dashes in
# the input part and don't-care outputs, an fr table leaving points
# unmentioned, and a multi-output table whose last output is all zero.
HAND_WRITTEN = {
    "fd-dashes": ".i 4\n.o 1\n1-0- 1\n-11- -\n0000 1\n.e\n",
    "fr-unmentioned": ".i 3\n.o 1\n.type fr\n1-- 1\n0-0 0\n.e\n",
    "multi-output": (
        ".i 3\n.o 3\n.ob a b c\n1-- 1-0\n-1- 010\n--1 -00\n.e\n"
    ),
}


@st.composite
def _multi_funcs(draw) -> MultiBoolFunc:
    n = draw(st.integers(2, 4))
    space = 1 << n
    outputs = []
    for _ in range(draw(st.integers(1, 3))):
        on = draw(st.sets(st.integers(0, space - 1), min_size=1, max_size=space))
        dc = draw(st.sets(st.integers(0, space - 1), max_size=4)) - on
        outputs.append(BoolFunc(n, frozenset(on), frozenset(dc)))
    return MultiBoolFunc(n, tuple(outputs))


class TestParseMemo:
    """Both tiers decode requests through ``jobs_from_payload``, which
    parses each PLA text once per process.  The memo's counters are
    process-wide, so these tests assert deltas, never absolutes."""

    @given(_multi_funcs())
    @settings(max_examples=30, deadline=None)
    def test_hit_equals_a_fresh_parse_of_written_plas(self, func):
        text = write_pla(func)
        first = _memo_jobs(text)
        before = parse_memo_stats()
        second = _memo_jobs(text)
        assert _moved(before, parse_memo_stats()) == (1, 0)
        assert first == second == _fresh_jobs(text)

    @pytest.mark.parametrize("case", sorted(HAND_WRITTEN))
    def test_hit_equals_a_fresh_parse_of_hand_written_plas(self, case):
        text = _unique_pla(HAND_WRITTEN[case])
        first = _memo_jobs(text)
        before = parse_memo_stats()
        second = _memo_jobs(text)
        assert _moved(before, parse_memo_stats()) == (1, 0)
        assert first == second == _fresh_jobs(text)

    def test_one_byte_different_text_misses(self):
        text = _unique_pla()
        _memo_jobs(text)
        flipped = text[:2] + ("0" if text[2] != "0" else "1") + text[3:]
        assert len(flipped) == len(text) and flipped != text
        before = parse_memo_stats()
        assert _memo_jobs(flipped) == _fresh_jobs(text)  # same function
        assert _moved(before, parse_memo_stats()) == (0, 1)
        _memo_jobs(text)
        assert _moved(before, parse_memo_stats()) == (1, 1)

    def test_malformed_pla_raises_alike_and_is_not_kept(self):
        text = _unique_pla(".i 3\n.o 1\n1x- 1\n.e\n")
        before = parse_memo_stats()
        errors = []
        for _ in range(2):
            with pytest.raises(PlaError) as info:
                jobs_from_payload({"pla": text})
            errors.append((str(info.value), info.value.line))
        after = parse_memo_stats()
        assert errors[0] == errors[1]
        assert errors[0][1] == 4  # the cube line, after the comment
        assert _moved(before, after) == (0, 2)  # the repeat parsed again
        assert after["entries"] == before["entries"]

    @pytest.mark.parametrize(
        "cube, moved",
        [
            ("-" * 11, (1, 1)),  # 2,048 points, about 184 KiB: kept
            ("-" * 12, (0, 2)),  # 4,096 points, about 368 KiB
            # Fewer points, but each a 4,000-bit integer: about 620 KiB.
            ("1" * 3990 + "-" * 10, (0, 2)),
        ],
        ids=["i11", "i12", "i4000"],
    )
    def test_held_size_decides_what_is_kept(self, cube, moved):
        # One cube of dashes covers 2^dashes points; the memo keeps a
        # function only if it holds at most 256 KiB.
        text = _unique_pla(f".i {len(cube)}\n.o 1\n{cube} 1\n.e\n")
        before = parse_memo_stats()
        assert _memo_jobs(text) == _memo_jobs(text) == _fresh_jobs(text)
        assert _moved(before, parse_memo_stats()) == moved

    def test_short_texts_of_large_functions_answer_and_are_not_kept(
        self, service
    ):
        # A few dozen bytes can describe a large function: one all-dash
        # cube over 16 inputs is 65,536 on-points, and an fr table over
        # 16 inputs with no rows makes all 2 x 65,536 points don't-care
        # (so every output is constant 0, a 400).
        all_dash = _unique_pla(".i 16\n.o 1\n" + "-" * 16 + " 1\n.e\n")
        no_care = _unique_pla(".i 16\n.o 2\n.type fr\n.e\n")
        ((_, key, _),) = _fresh_jobs(all_dash)
        _, port = service()
        coordinator = ClusterCoordinator(ClusterConfig(workers=2))
        before = parse_memo_stats()
        for _ in range(2):
            body = json.dumps({"pla": all_dash}).encode()
            assert coordinator.routing_key(body) == key
            status, _, answer = _post(port, {"pla": no_care})
            assert status == 400, answer
            assert answer["error"]["code"] == "usage"
        after = parse_memo_stats()
        assert _moved(before, after) == (0, 4)
        assert after["entries"] == before["entries"]

    def test_soft_memory_ceiling_empties_the_memo(self, service):
        svc, _ = service(memory_soft_mb=1, watchdog_interval=3600)
        _memo_jobs(_unique_pla())
        assert parse_memo_stats()["entries"] >= 1
        svc.watchdog.poll_once()  # every process is over 1 MB
        assert parse_memo_stats()["entries"] == 0

    def test_near_duplicate_routes_through_a_parse_memo_hit(self):
        coordinator = ClusterCoordinator(ClusterConfig(workers=2))
        text = _unique_pla()
        base = {"pla": text, "max_rung": "heuristic"}
        base_key = coordinator.routing_key(json.dumps(base).encode())
        near_duplicate = json.dumps({
            "base": {"pla": text},
            "delta": {"toggles": [0]},
            "max_rung": "heuristic",
        }).encode()
        before = parse_memo_stats()
        assert coordinator.routing_key(near_duplicate) == base_key
        assert _moved(before, parse_memo_stats()) == (1, 0)

    def test_stats_and_metrics_count_the_memo(self, service):
        svc, port = service()
        coordinator = ClusterCoordinator(ClusterConfig(workers=2))
        text = _unique_pla()
        before = _get(port, "/stats")[2]["parse"]
        assert coordinator.stats()["parse"] == before
        for _ in range(2):  # a miss, then a hit
            assert _post(port, {"pla": text, "max_rung": "sp"})[0] == 200
        after = _get(port, "/stats")[2]["parse"]
        assert _moved(before, after) == (1, 1)
        assert after["entries"] == min(before["entries"] + 1, 64)
        assert coordinator.stats()["parse"] == after

        for prefix, text_ in (
            ("repro", svc.metrics_text()),
            ("repro_cluster", coordinator.metrics_text()),
        ):
            families = parse_prometheus(text_)
            events = families[f"{prefix}_parse_events_total"]
            assert events["type"] == "counter"
            counts = {s[1]["kind"]: s[2] for s in events["samples"]}
            assert counts == {"hits": after["hits"], "misses": after["misses"]}
            (entries,) = families[f"{prefix}_parse_entries"]["samples"]
            assert entries[2] == after["entries"]
