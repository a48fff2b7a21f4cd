"""Integration tests for the cluster coordinator.

One real 2-worker cluster (subprocess workers, in-process coordinator)
is shared module-wide to amortize startup; each test leaves it healthy.
Routing-key unit tests use an unstarted coordinator — no processes.
"""

from __future__ import annotations

import contextlib
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
from repro.cluster.coordinator import _WorkerState
from repro.cluster.worker import WorkerProcess
from repro.serve.request import parse_memo_stats
from repro.serve.tier import MAX_BODY_BYTES, MAX_HEADERS, MAX_LINE
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


# Replies a worker killed mid-reply, or a peer that is not a tier, might
# send: a body shorter than its Content-Length, and no status line.
BAD_REPLIES = {
    "short-body": (
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        b"Content-Length: 64\r\n\r\n{\"ok\": "
    ),
    "no-status-line": b"SSH-2.0-OpenSSH_9.2\r\n\r\n",
}


@contextlib.contextmanager
def _fake_worker(reply: bytes):
    """A fake worker that answers every request with ``reply``, then
    closes."""
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
                conn.sendall(reply)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    worker = WorkerProcess("fake", listener.getsockname()[1])
    worker._proc = SimpleNamespace(poll=lambda: None, pid=None)  # alive
    try:
        yield worker
    finally:
        stop.set()
        thread.join(timeout=5)
        listener.close()


class TestWorkerProbes:
    """The coordinator's health thread calls ``healthy`` and ``stats``,
    and its request threads ``_proxy``: a worker killed mid-reply, or a
    malformed reply, must read as down or as a failed attempt, not
    raise."""

    @pytest.fixture()
    def truncating_worker(self):
        """What a worker SIGKILLed mid-reply looks like: a 200 whose
        ``Content-Length`` promises more body than it sends."""
        with _fake_worker(BAD_REPLIES["short-body"]) as worker:
            yield worker

    def test_truncated_reply_reads_as_down(self, truncating_worker):
        assert truncating_worker.stats(timeout=5) is None
        assert truncating_worker.healthy(timeout=5) is False

    @pytest.mark.parametrize("reply", sorted(BAD_REPLIES))
    def test_bad_reply_is_a_failed_proxy_attempt(self, reply):
        coordinator = ClusterCoordinator(ClusterConfig(workers=1))
        with _fake_worker(BAD_REPLIES[reply]) as worker:
            coordinator._workers["fake"] = _WorkerState(worker)
            assert coordinator._proxy("fake", _body(PLAS[0])) is None
        assert coordinator._workers["fake"].errors == 1
        assert coordinator._pool == {}


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
    # Every output is charged 16 points, what building it costs.
    "points-outputs": ("/minimize", _body(".i 1\n.o 131072\n.e\n"), 400, "usage"),
    "points-outputs-one-row": (
        "/minimize",
        _body(".i 1\n.o 131071\n1 1" + "0" * 131_070 + "\n.e\n"),
        400,
        "usage",
    ),
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


def _responses(data: bytes) -> list[tuple[int, dict[str, str], bytes]]:
    """Every (status, headers, body) in ``data``, a byte stream of
    Content-Length-framed responses, in order."""
    out = []
    while data:
        head, _, data = data.partition(b"\r\n\r\n")
        status_line, *lines = head.decode("latin-1").split("\r\n")
        headers = {}
        for line in lines:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0))
        out.append((int(status_line.split()[1]), headers, data[:length]))
        data = data[length:]
    return out


def _until_closed(port: int, *messages: bytes, timeout: float = 30) -> bytes:
    """Send each message on one fresh connection, then read until the
    server closes it (a server that keeps it open times the test out)."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        for message in messages:
            sock.sendall(message)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def _post_bytes(body: bytes, *headers: str, version: str = "1.1") -> bytes:
    lines = [
        f"POST /minimize HTTP/{version}", "Host: test",
        f"Content-Length: {len(body)}", *headers,
    ]
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


@pytest.fixture(params=["worker", "coordinator"])
def tier_port(cluster, request) -> int:
    """The port of one tier of the shared cluster."""
    coordinator, _, port = cluster
    return coordinator._workers["w0"].proc.port if request.param == "worker" else port


class TestWire:
    """Both tiers frame HTTP/1.1 themselves (``repro.serve.tier``).
    Each exchange runs over a raw socket, so what the server sends, and
    when it closes, is what the test sees."""

    @staticmethod
    def _only(data: bytes) -> tuple[int, dict[str, str], bytes]:
        """The one response in ``data``; every response names its
        server and date."""
        ((status, headers, body),) = _responses(data)
        assert headers["server"].startswith("repro")
        assert headers["date"].endswith(" GMT")
        return status, headers, body

    def test_pipelined_requests_are_answered_in_order(self, tier_port):
        first = _post_bytes(_body(PLAS[0], label="first"))
        second = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
        answers = _responses(_until_closed(tier_port, first + second))
        assert [status for status, _, _ in answers] == [200, 200]
        assert json.loads(answers[0][2])["results"][0]["label"] == "first[0]"
        assert json.loads(answers[1][2]) == {"status": "ok"}
        for _, headers, _ in answers:
            assert headers["server"].startswith("repro") and "date" in headers

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"GET /healthz HTTP/1.0\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
            _post_bytes(_body(PLAS[1]), version="1.0"),
        ],
        ids=["http-1.0-get", "connection-close", "http-1.0-post"],
    )
    def test_answered_then_closed(self, tier_port, request_bytes):
        status, _, body = self._only(_until_closed(tier_port, request_bytes))
        assert status == 200
        body = json.loads(body)
        assert body.get("status") == "ok" or body["ok"]

    def test_expect_100_continue_before_the_body(self, tier_port):
        body = _body(PLAS[2])
        head = _post_bytes(body, "Expect: 100-continue")[: -len(body)]
        with socket.create_connection(("127.0.0.1", tier_port), timeout=30) as sock:
            sock.sendall(head)
            interim = sock.recv(65536)
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body + b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            chunks = []
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        statuses = [status for status, _, _ in _responses(b"".join(chunks))]
        assert statuses == [200, 200]

    def test_request_line_over_the_limit_is_414(self, tier_port):
        # Exactly one byte over: the server has read all that was sent
        # when it answers, so its close is clean.
        line = b"GET /" + b"a" * (MAX_LINE - 4)
        assert len(line) == MAX_LINE + 1
        assert self._only(_until_closed(tier_port, line))[0] == 414

    def test_too_many_headers_is_431(self, tier_port):
        headers = "".join(f"X-Pad-{i}: {i}\r\n" for i in range(MAX_HEADERS + 1))
        request_bytes = f"GET /healthz HTTP/1.1\r\n{headers}".encode()
        status, _, _ = self._only(_until_closed(tier_port, request_bytes))
        assert status == 431
        # Fewer are a request like any other (http.server refused 100).
        fewer = "".join(f"X-Pad-{i}: {i}\r\n" for i in range(MAX_HEADERS - 2))
        request_bytes = (
            f"GET /healthz HTTP/1.1\r\n{fewer}Connection: close\r\n\r\n".encode()
        )
        assert self._only(_until_closed(tier_port, request_bytes))[0] == 200

    def test_unknown_method_is_501(self, tier_port):
        request_bytes = b"DELETE /minimize HTTP/1.1\r\nHost: test\r\n\r\n"
        assert self._only(_until_closed(tier_port, request_bytes))[0] == 501

    def test_chunked_body_is_refused_411_and_closed(self, tier_port):
        request_bytes = (
            b"POST /minimize HTTP/1.1\r\nHost: test\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n"
        )
        status, headers, body = self._only(_until_closed(tier_port, request_bytes))
        assert status == 411 and headers["connection"] == "close"
        assert json.loads(body)["error"]["code"] == "length-required"

    @pytest.mark.parametrize("expect", [False, True], ids=["plain", "expect-100"])
    def test_body_over_the_cap_is_413_unread(self, tier_port, expect):
        # Only the headers go out: a server that waits for the body
        # times the test out instead of answering.
        head = (
            f"POST /minimize HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {MAX_BODY_BYTES + 1}\r\n"
            + ("Expect: 100-continue\r\n" if expect else "")
            + "\r\n"
        ).encode()
        status, headers, body = self._only(_until_closed(tier_port, head, timeout=10))
        assert status == 413 and headers["connection"] == "close"
        assert json.loads(body)["error"]["code"] == "body-too-large"

    def test_body_at_the_cap_is_read(self, tier_port):
        # Padding spaces keep the JSON valid; the PLA is a small one.
        body = _body(PLAS[3])
        body += b" " * (MAX_BODY_BYTES - len(body))
        request_bytes = _post_bytes(body, "Connection: close")
        status, _, answer = self._only(_until_closed(tier_port, request_bytes))
        assert status == 200 and json.loads(answer)["ok"]


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
