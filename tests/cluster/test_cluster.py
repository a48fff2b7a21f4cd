"""Integration tests for the cluster coordinator.

One real 2-worker cluster (subprocess workers, in-process coordinator)
is shared module-wide to amortize startup; each test leaves it healthy.
Routing-key unit tests use an unstarted coordinator — no processes.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import threading
import time
import uuid
from types import SimpleNamespace

import pytest

from repro.cli import build_parser
from repro.cluster import ClusterConfig, ClusterCoordinator
from repro.cluster.worker import WorkerProcess
from repro.serve.request import parse_memo_stats
from tests.serve.test_metrics import parse_prometheus
from tests.serve.test_serve import raw_post

PLAS = [
    f".i 3\n.o 1\n{format(i, '03b')} 1\n111 1\n.e\n" for i in range(6)
]


def _body(pla: str, **extra) -> bytes:
    payload = {"pla": pla, "max_rung": "heuristic"}
    payload.update(extra)
    return json.dumps(payload, sort_keys=True).encode()


class TestRoutingKey:
    """Key derivation only — no worker processes involved."""

    @pytest.fixture()
    def coordinator(self):
        return ClusterCoordinator(ClusterConfig(workers=2))

    def test_same_job_same_key(self, coordinator):
        a = json.dumps({"pla": PLAS[0], "max_rung": "heuristic"}).encode()
        b = json.dumps(
            {"max_rung": "heuristic", "pla": PLAS[0]}
        ).encode()  # different key order, same job
        assert coordinator.routing_key(a) == coordinator.routing_key(b)

    def test_different_jobs_different_keys(self, coordinator):
        keys = {coordinator.routing_key(_body(pla)) for pla in PLAS}
        assert len(keys) == len(PLAS)

    def test_unparseable_body_is_structured_400(self, coordinator):
        # A body no worker could parse is rejected at the front door
        # with the same structured error taxonomy the workers use.
        status, _, body = coordinator.handle_minimize(b"this is not json")
        assert status == 400
        assert json.loads(body)["error"]["code"] == "parse"

    def test_routing_key_is_memoized(self, coordinator):
        # The repeat routes through the process's PLA parse memo.
        body = _body(f"# {uuid.uuid4().hex}\n{PLAS[0]}")
        first = coordinator.routing_key(body)
        before = parse_memo_stats()["hits"]
        assert coordinator.routing_key(body) == first
        assert parse_memo_stats()["hits"] == before + 1

    @pytest.mark.parametrize(
        "padding, lines",
        [
            ("# padding\n", 10_240),  # 100 KiB of ASCII
            # 39,600 characters that encode to 75,600 bytes: short
            # enough by length, too long by bytes.
            ("# " + "\u00e9" * 30 + "\n", 1_200),
        ],
        ids=["ascii", "non-ascii"],
    )
    def test_oversize_body_routes_but_is_not_memoized(
        self, coordinator, padding, lines
    ):
        # Comment lines keep the PLA valid and its key equal, but the
        # parse memo keeps no text over 64 KiB.
        text = padding * lines + PLAS[0]
        assert len(text.encode()) > 64 * 1024
        key = coordinator.routing_key(_body(PLAS[0]))
        before = parse_memo_stats()
        for _ in range(2):
            assert coordinator.routing_key(_body(text)) == key
        after = parse_memo_stats()
        assert after["entries"] == before["entries"]
        assert after["hits"] == before["hits"]  # the repeat parsed afresh
        assert after["misses"] == before["misses"] + 2

    def test_plan_lists_distinct_workers(self, coordinator):
        coordinator.ring.add("w0")
        coordinator.ring.add("w1")
        plan = coordinator.plan_for("somekey")
        assert len(plan) == len(set(plan)) == 2


class TestWorkerFlags:
    def test_pass_through_fields_reach_the_worker_command_line(self):
        # Each field gets a distinct non-default value, so a dropped or
        # swapped flag cannot parse back to the right number.
        config = ClusterConfig(
            worker_threads=3, worker_queue_capacity=17, default_timeout=2.5,
            default_budget=12.5, cache_entries=77, cache_dir="shared-cache",
            max_disk_entries=99, audit_rate=5, shadow_rate=0,
        )
        worker = ClusterCoordinator(config)._new_worker("w0")
        # command() is [python, -m, repro, serve, ...]: parse it the way
        # the worker process will.
        args = build_parser().parse_args(worker.proc.command()[3:])
        assert args.command == "serve"
        assert (
            args.threads, args.queue_capacity, args.default_timeout,
            args.default_budget, args.cache_entries, args.cache_dir,
            args.max_disk_entries, args.audit_rate, args.shadow_rate,
        ) == (
            config.worker_threads, config.worker_queue_capacity,
            config.default_timeout, config.default_budget,
            config.cache_entries, config.cache_dir, config.max_disk_entries,
            config.audit_rate, config.shadow_rate,
        )


class TestWorkerProbes:
    """The coordinator's health thread calls ``healthy`` and ``stats``:
    a worker killed mid-reply must read as down, not raise."""

    @pytest.fixture()
    def truncating_worker(self):
        """A fake worker that answers every request with a 200 whose
        ``Content-Length`` promises more body than it sends, then
        closes — what a worker SIGKILLed mid-reply looks like."""
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(0.1)
        stop = threading.Event()

        def serve() -> None:
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except TimeoutError:
                    continue
                with conn:
                    conn.recv(65536)
                    conn.sendall(
                        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                        b"Content-Length: 64\r\n\r\n{\"ok\": "
                    )

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        worker = WorkerProcess("fake", listener.getsockname()[1])
        worker._proc = SimpleNamespace(poll=lambda: None, pid=None)  # alive
        yield worker
        stop.set()
        thread.join(timeout=5)
        listener.close()

    def test_truncated_reply_reads_as_down(self, truncating_worker):
        assert truncating_worker.stats(timeout=5) is None
        assert truncating_worker.healthy(timeout=5) is False


@pytest.fixture(scope="module")
def cluster():
    coordinator = ClusterCoordinator(ClusterConfig(
        port=0,
        workers=2,
        worker_threads=2,
        worker_queue_capacity=4,
        health_interval=0.2,
        restart_backoff=0.2,
        worker_start_timeout=90.0,
    ))
    host, port = coordinator.start()
    yield coordinator, host, port
    coordinator.drain(grace=2.0)


def _post(host: str, port: int, body: bytes) -> tuple[int, dict]:
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        conn.request("POST", "/minimize", body=body)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


def _get(host: str, port: int, path: str) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _wait_all_up(coordinator, timeout=60.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        stats = coordinator.stats()
        if all(w["status"] == "up" for w in stats["workers"].values()):
            return stats
        time.sleep(0.2)
    raise AssertionError(f"workers never all up: {coordinator.stats()}")


# Client errors both tiers must answer alike:
# case -> (path, body, expected status, expected error.code).
MALFORMED = {
    "non-json": ("/minimize", b"this is not json", 400, "parse"),
    "pla-not-text": ("/minimize", json.dumps({"pla": 5}).encode(), 400, "parse"),
    "bad-cube-line": (
        "/minimize", _body(".i 3\n.o 1\n1x- 1\n.e\n"), 400, "parse",
    ),
    "output-str": ("/minimize", _body(PLAS[0], output="x"), 400, "usage"),
    "output-list": ("/minimize", _body(PLAS[0], output=[0]), 400, "usage"),
    "k-str": ("/minimize", _body(PLAS[0], k="x"), 400, "usage"),
    "bound-str": ("/minimize", _body(PLAS[0], bound="x"), 400, "usage"),
    "budget-str": (
        "/minimize", _body(PLAS[0], budget_seconds="x"), 400, "usage",
    ),
    "memory-str": ("/minimize", _body(PLAS[0], memory_mb="x"), 400, "usage"),
    "timeout-str": ("/minimize", _body(PLAS[0], timeout="x"), 400, "usage"),
    # JSON's NaN/Infinity literals: a non-finite budget never expires.
    "budget-nan": (
        "/minimize", _body(PLAS[0], budget_seconds=float("nan")), 400, "usage",
    ),
    "timeout-nan": (
        "/minimize", _body(PLAS[0], timeout=float("nan")), 400, "usage",
    ),
    "memory-inf": (
        "/minimize", _body(PLAS[0], memory_mb=float("inf")), 400, "usage",
    ),
    "max-rung-list": (
        "/minimize", _body(PLAS[0], max_rung=["sp"]), 400, "usage",
    ),
    "covering-bogus": (
        "/minimize", _body(PLAS[0], covering="bogus"), 400, "usage",
    ),
    "backend-btree": ("/minimize", _body(PLAS[0], backend="btree"), 400, "usage"),
    "bounded-bound-0": (
        "/minimize", _body(PLAS[0], method="bounded", bound=0), 400, "usage",
    ),
    "max-pseudoproducts-str": (
        "/minimize", _body(PLAS[0], max_pseudoproducts="many"), 400, "usage",
    ),
    # Over the 2^17 points a request PLA may expand to: the coordinator
    # refuses them before routing, as a worker does before parsing.
    "points-all-dash": (
        "/minimize", _body(".i 17\n.o 1\n" + "-" * 17 + " 1\n.e\n"), 400, "usage",
    ),
    "points-fr": ("/minimize", _body(".i 17\n.o 2\n.type fr\n.e\n"), 400, "usage"),
    "wrong-path": ("/nope", _body(PLAS[0]), 404, "not-found"),
}


def _answer_then_follow_up(host: str, port: int, path: str, body: bytes):
    """(status, error.code) of one POST, then the status of a valid
    ``POST /minimize`` sent after it on the same kept-alive connection."""
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        conn.request("POST", path, body=body)
        response = conn.getresponse()
        answer = (response.status, json.loads(response.read())["error"]["code"])
        sock = conn.sock
        conn.request("POST", "/minimize", body=_body(PLAS[0]))
        follow_up = conn.getresponse()
        follow_up.read()
        assert conn.sock is sock, "the server closed the connection"
        return answer, follow_up.status
    finally:
        conn.close()


class TestTierParity:
    """A worker and the coordinator share one HTTP skeleton: the same
    malformed request gets the same structured answer from either, the
    connection stays usable, and the coordinator neither fails over nor
    blames a worker for a client's mistake."""

    @staticmethod
    def _health(coordinator) -> tuple[int, dict[str, int]]:
        stats = coordinator.stats()
        errors = {name: w["errors"] for name, w in stats["workers"].items()}
        return stats["counters"]["failovers"], errors

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_same_answer_from_worker_and_coordinator(self, cluster, case):
        coordinator, host, port = cluster
        path, body, status, code = MALFORMED[case]
        before = self._health(coordinator)
        worker_port = coordinator._workers["w0"].proc.port
        worker = _answer_then_follow_up(host, worker_port, path, body)
        front = _answer_then_follow_up(host, port, path, body)
        assert worker == front == ((status, code), 200)
        assert self._health(coordinator) == before

    def test_unframeable_body_same_answer(self, cluster):
        coordinator, host, port = cluster
        before = self._health(coordinator)
        worker_port = coordinator._workers["w0"].proc.port
        worker = raw_post(host, worker_port, "abc")
        front = raw_post(host, port, "abc")
        assert worker == front
        assert front[0] == 400 and front[1]["error"]["code"] == "parse"
        assert self._health(coordinator) == before


class TestCluster:
    def test_requests_route_and_succeed(self, cluster):
        coordinator, host, port = cluster
        for pla in PLAS:
            status, doc = _post(host, port, _body(pla))
            assert status == 200, doc
            assert doc["ok"]

    def test_verified_header_passes_through_proxy(self, cluster):
        _, host, port = cluster
        conn = http.client.HTTPConnection(host, port, timeout=60)
        try:
            conn.request("POST", "/minimize", body=_body(PLAS[0]))
            response = conn.getresponse()
            response.read()
            assert response.status == 200
            assert response.getheader("X-Repro-Verified") == "full"
        finally:
            conn.close()

    def test_routing_is_sticky(self, cluster):
        """Repeats of one body land on one worker (cache locality)."""
        coordinator, host, port = cluster
        before = {
            name: w["requests"]
            for name, w in coordinator.stats()["workers"].items()
        }
        body = _body(PLAS[0])
        for _ in range(4):
            assert _post(host, port, body)[0] == 200
        moved = {
            name: w["requests"] - before[name]
            for name, w in coordinator.stats()["workers"].items()
        }
        assert sorted(moved.values()) == [0, 4], moved

    def test_probes_and_stats(self, cluster):
        coordinator, host, port = cluster
        assert _get(host, port, "/healthz")[0] == 200
        assert _get(host, port, "/readyz")[0] == 200
        status, body = _get(host, port, "/stats")
        assert status == 200
        doc = json.loads(body)
        assert set(doc["workers"]) == {"w0", "w1"}
        assert doc["counters"]["requests"] >= 1
        assert sorted(doc["ring"]) == ["w0", "w1"]
        assert doc["rss_mb"] > 0

    def test_metrics_parse_as_prometheus(self, cluster):
        coordinator, host, port = cluster
        assert _post(host, port, _body(PLAS[0]))[0] == 200
        status, body = _get(host, port, "/metrics")
        assert status == 200
        families = parse_prometheus(body.decode())
        assert families["repro_cluster_request_seconds"]["type"] == "histogram"
        in_ring = {
            s[1]["worker"]: s[2]
            for s in families["repro_cluster_worker_info"]["samples"]
        }
        assert in_ring == {"w0": 1.0, "w1": 1.0}
        assert "repro_cluster_worker_requests_total" in families

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_malformed_content_length_is_400_parse(self, cluster, length):
        coordinator, host, port = cluster
        status, doc = raw_post(host, port, length)
        assert status == 400
        assert doc["error"]["code"] == "parse"
        assert _get(host, port, "/healthz")[0] == 200

    def test_kill_worker_fails_over_then_restarts(self, cluster):
        coordinator, host, port = cluster
        _wait_all_up(coordinator)
        victim = next(iter(coordinator._workers.values()))
        old_restarts = victim.proc.restarts
        os.kill(victim.proc.pid, signal.SIGKILL)
        # Every request during the outage is answered: success via
        # failover, or a structured 429/503 — never a dropped socket.
        outcomes = []
        for pla in PLAS * 2:
            status, doc = _post(host, port, _body(pla))
            outcomes.append(status)
            assert status in (200, 429, 503), doc
            if status != 200:
                assert doc["error"]["code"]
        assert outcomes.count(200) >= len(PLAS), outcomes
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            stats = coordinator.stats()
            victim_stats = stats["workers"][victim.proc.name]
            if (victim_stats["restarts"] > old_restarts
                    and victim_stats["status"] == "up"):
                break
            time.sleep(0.2)
        else:
            raise AssertionError(f"victim never restarted: {stats}")
        _wait_all_up(coordinator)
        # The restarted worker serves again (same port, back on ring).
        for pla in PLAS:
            assert _post(host, port, _body(pla))[0] == 200

    def test_draining_coordinator_rejects_new_work(self, cluster):
        # Run last: uses an independent cluster so the shared one stays up.
        inner = ClusterCoordinator(ClusterConfig(
            port=0, workers=1, worker_threads=1,
            worker_start_timeout=90.0,
        ))
        host, port = inner.start()
        try:
            assert _post(host, port, _body(PLAS[0]))[0] == 200
            inner._draining = True
            status, doc = _post(host, port, _body(PLAS[1]))
            assert status == 429
            assert doc["error"]["code"] == "overloaded"
        finally:
            inner._draining = False
            inner.drain(grace=2.0)
