#!/usr/bin/env python3
"""End-to-end smoke test of the cluster coordinator under fire.

The contract this asserts, operator's-eye view:

1. a coordinator + 2 workers come up and report healthy;
2. mixed traffic routes across both workers and succeeds, a
   near-duplicate and a repeat of a seen PLA reuse its parse on both
   tiers (``parse.hits`` grows in each tier's ``/stats``), and a
   9-point care-preserving edit of an exact-rung base is served warm
   by the base's worker (its ``delta.warm_hits`` grows by one);
3. ``SIGKILL`` of one worker mid-load loses **no accepted request** —
   every in-flight and subsequent request either succeeds via failover
   to the ring successor or gets a structured 429/503 with a JSON
   error body (never a dropped connection), and the shed rate over the
   outage window stays under a bound;
4. the supervisor restarts the dead worker, re-admits it to the ring,
   and it serves again;
5. ``/metrics`` parses as Prometheus text exposition format, with the
   cluster histogram and per-worker families present.

A ``signal.alarm`` hard-kills the whole script if anything wedges.

Run:  PYTHONPATH=src python examples/cluster_smoke.py
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import sys
import tempfile
import threading
import time

from repro.cluster import ClusterConfig, ClusterCoordinator

PLAS = [f".i 3\n.o 1\n{format(i, '03b')} 1\n111 1\n.e\n" for i in range(8)]
# A 5-input exact-rung base and 9 of its on-points (column i is bit i).
WARM_BASE_ON = (2, 3, 9, 10, 11, 13, 15, 17, 21, 23, 29, 31)
WARM_TOGGLES = [3, 9, 11, 13, 17, 21, 23, 29, 31]
WARM_BASE_PLA = ".i 5\n.o 1\n" + "".join(
    "".join(str(p >> i & 1) for i in range(5)) + " 1\n" for p in WARM_BASE_ON
) + ".e\n"
KILL_WINDOW_REQUESTS = 40
MAX_SHED_RATE = 0.5  # over the outage window; normally ~0

_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9eE+.\-]+$|^[a-zA-Z_:]"
    r"[a-zA-Z0-9_:]*(\{[^}]*\})? \+Inf$"
)


def body_for(pla: str) -> bytes:
    return json.dumps({"pla": pla, "max_rung": "heuristic"}).encode()


def post(host: str, port: int, body: bytes) -> tuple[int, dict]:
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        conn.request("POST", "/minimize", body=body)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


def get(host: str, port: int, path: str) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def check_prometheus(text: str) -> int:
    """Validate exposition format line by line; returns sample count."""
    samples = 0
    current = None
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            current = line.split()[2]
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            assert parts[2] == current, f"TYPE outside family: {line!r}"
            assert parts[3] in ("counter", "gauge", "histogram", "summary")
            continue
        assert not line.startswith("#"), f"stray comment: {line!r}"
        assert _SAMPLE_RE.match(line), f"malformed sample: {line!r}"
        assert current and line.split("{")[0].split()[0].startswith(current), (
            f"sample outside its family: {line!r}"
        )
        samples += 1
    return samples


def main() -> None:
    signal.alarm(240)  # hard stop: a supervision bug looks like a hang
    tmp = tempfile.mkdtemp(prefix="spp-cluster-smoke-")
    coordinator = ClusterCoordinator(ClusterConfig(
        port=0,
        workers=2,
        worker_threads=2,
        worker_queue_capacity=4,
        health_interval=0.2,
        restart_backoff=0.2,
        worker_start_timeout=90.0,
        cache_dir=tmp,
    ))
    host, port = coordinator.start()
    print(f"cluster up at http://{host}:{port}")

    try:
        # 1. Probes green.
        assert get(host, port, "/healthz")[0] == 200
        assert get(host, port, "/readyz")[0] == 200

        # 2. Warm traffic routes across both workers.
        for pla in PLAS:
            status, doc = post(host, port, body_for(pla))
            assert status == 200, (status, doc)
        per_worker = {
            name: worker["requests"]
            for name, worker in coordinator.stats()["workers"].items()
        }
        assert all(count > 0 for count in per_worker.values()), (
            f"one worker starved: {per_worker}"
        )
        print(f"routing spread: {per_worker}")

        # 2b. A near-duplicate of PLAS[0] and a repeat of its body skip
        # the parse on the coordinator (routing) and the owning worker.
        base = body_for(PLAS[0])
        owner = coordinator.plan_for(coordinator.routing_key(base))[0]
        owner_port = coordinator._workers[owner].proc.port

        def parse_hits() -> tuple[int, int]:
            front = json.loads(get(host, port, "/stats")[1])["parse"]
            worker = json.loads(get(host, owner_port, "/stats")[1])["parse"]
            return front["hits"], worker["hits"]

        before = parse_hits()
        near_duplicate = json.dumps({
            "base": {"pla": PLAS[0]},
            "delta": {"toggles": [1]},
            "max_rung": "heuristic",
        }).encode()
        for body in (near_duplicate, base):
            status, doc = post(host, port, body)
            assert status == 200, (status, doc)
        after = parse_hits()
        assert after[0] > before[0], f"coordinator parse hits {before} -> {after}"
        assert after[1] > before[1], f"worker {owner} parse hits {before} -> {after}"
        print(f"parse hits (coordinator, {owner}): {before} -> {after}")

        # 2c. An edit of 9 points that keeps the care set (on -> dc) is
        # served warm from its base's context, whatever its size.
        warm_base = json.dumps({"pla": WARM_BASE_PLA}).encode()
        warm_owner = coordinator.plan_for(coordinator.routing_key(warm_base))[0]
        warm_port = coordinator._workers[warm_owner].proc.port
        status, doc = post(host, port, warm_base)
        assert status == 200 and doc["results"][0]["rung"] == "exact", (status, doc)

        def warm_hits() -> int:
            return json.loads(get(host, warm_port, "/stats")[1])["delta"]["warm_hits"]

        before_warm = warm_hits()
        status, doc = post(host, port, json.dumps({
            "base": {"pla": WARM_BASE_PLA},
            "delta": {"toggles": WARM_TOGGLES},
        }).encode())
        assert status == 200, (status, doc)
        after_warm = warm_hits()
        assert after_warm == before_warm + 1, (
            f"worker {warm_owner} warm hits {before_warm} -> {after_warm}"
        )
        print(f"9-point edit served warm by {warm_owner}: "
              f"warm hits {before_warm} -> {after_warm}")

        # 3. SIGKILL one worker mid-load; count outcomes concurrently.
        victim = next(iter(coordinator._workers.values()))
        outcomes: list[int] = []
        lock = threading.Lock()

        def hammer() -> None:
            for i in range(KILL_WINDOW_REQUESTS):
                status, doc = post(host, port, body_for(PLAS[i % len(PLAS)]))
                if status not in (200, 429, 503):
                    raise AssertionError(f"unstructured answer: {status}")
                if status != 200:
                    assert doc["error"]["code"], doc  # structured shed
                with lock:
                    outcomes.append(status)

        thread = threading.Thread(target=hammer)
        thread.start()
        time.sleep(0.1)  # let the load overlap the kill
        print(f"killing worker {victim.proc.name} (pid {victim.proc.pid})")
        os.kill(victim.proc.pid, signal.SIGKILL)
        thread.join(timeout=120)
        assert not thread.is_alive(), "load thread wedged"

        ok = outcomes.count(200)
        shed = len(outcomes) - ok
        shed_rate = shed / len(outcomes)
        print(f"outage window: {ok} ok, {shed} structured sheds "
              f"({shed_rate:.0%})")
        assert len(outcomes) == KILL_WINDOW_REQUESTS, "requests went missing"
        assert shed_rate <= MAX_SHED_RATE, f"shed rate {shed_rate:.0%}"

        # 4. Supervisor restarts and re-admits the victim.
        deadline = time.monotonic() + 90
        while time.monotonic() < deadline:
            workers = coordinator.stats()["workers"]
            victim_state = workers[victim.proc.name]
            if victim_state["restarts"] >= 1 and victim_state["status"] == "up":
                break
            time.sleep(0.2)
        else:
            raise AssertionError(f"victim never recovered: {workers}")
        print(f"worker {victim.proc.name} restarted and re-admitted")
        for pla in PLAS:
            assert post(host, port, body_for(pla))[0] == 200

        # 5. /metrics parses as Prometheus text.
        status, payload = get(host, port, "/metrics")
        assert status == 200
        text = payload.decode()
        samples = check_prometheus(text)
        assert "# TYPE repro_cluster_request_seconds histogram" in text
        assert "repro_cluster_worker_restarts_total" in text
        assert "repro_cluster_parse_events_total" in text
        print(f"/metrics: {samples} samples, format OK")
    finally:
        coordinator.drain(grace=2.0)
    print("cluster smoke: all checks passed")


if __name__ == "__main__":
    sys.exit(main())
