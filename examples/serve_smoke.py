#!/usr/bin/env python3
"""End-to-end smoke test of ``repro serve`` as a real subprocess.

Drives the service the way an operator would — through the CLI, over
HTTP, with signals — and asserts the overload and shutdown contracts:

1. the server comes up and reports healthy;
2. a ``"verify": true`` request is re-checked and answers
   ``X-Repro-Verified: full``; malformed requests (including a bad
   option value) get a structured 400, never a dropped connection;
3. a 4x-capacity concurrent burst sheds the excess with 429 +
   ``Retry-After`` while ``/healthz`` stays green;
4. SIGTERM drains gracefully: exit code 0, "drained, exiting" on
   stdout, the manifest journal replays intact afterwards, and no
   request handler raised (no traceback in the server's output).

Deterministic slowness comes from the fault-injection env plan (every
rung start stalls 0.5s), so the burst reliably overlaps.  A
``signal.alarm`` hard-kills the whole script if anything wedges.

Run:  PYTHONPATH=src python examples/serve_smoke.py
"""

from __future__ import annotations

import http.client
import json
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.engine.batch import Manifest
from repro.faults import ENV_VAR, FaultPlan, FaultRule

PLA = ".i 3\n.o 1\n1-- 1\n-11 1\n.e\n"
BURST = 8  # 4x the (1 worker + 1 waiting seat) admission capacity


def request(port: int, method: str, path: str, payload=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        body = json.dumps(payload) if payload is not None else None
        conn.request(method, path, body=body)
        response = conn.getresponse()
        data = json.loads(response.read() or b"{}")
        return response.status, dict(response.getheaders()), data
    finally:
        conn.close()


def wait_healthy(port: int, deadline: float) -> None:
    while time.monotonic() < deadline:
        try:
            if request(port, "GET", "/healthz")[0] == 200:
                return
        except OSError:
            time.sleep(0.05)
    raise AssertionError("server never became healthy")


def main() -> None:
    signal.alarm(150)  # hard ceiling on the whole smoke run
    import os

    with tempfile.TemporaryDirectory() as tmp:
        manifest_dir = Path(tmp) / "manifest"
        env = dict(os.environ)
        env[ENV_VAR] = FaultPlan(
            [FaultRule(site="scheduler.rung_start", kind="slow",
                       arg=0.5, times=None)]
        ).to_json()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--port", "0", "--threads", "1", "--queue-capacity", "1",
             "--drain-grace", "5", "--manifest-dir", str(manifest_dir)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        try:
            banner = proc.stdout.readline()
            match = re.search(r"http://[\d.]+:(\d+)", banner)
            assert match, f"no port in banner: {banner!r}"
            port = int(match.group(1))
            wait_healthy(port, time.monotonic() + 20)
            print(f"serve up on port {port}")

            # Seed the journal with one completed request.
            status, _, body = request(
                port, "POST", "/minimize", {"pla": PLA, "timeout": 5.0}
            )
            assert status == 200 and body["ok"], (status, body)
            assert len(Manifest(manifest_dir).replay()) == 1
            print("single request ok, journal seeded")

            # A client-requested re-check of the record just cached.
            status, headers, body = request(
                port, "POST", "/minimize", {"pla": PLA, "verify": True}
            )
            assert status == 200 and body["ok"], (status, body)
            assert headers.get("X-Repro-Verified") == "full", headers
            print("verify request answered 200, X-Repro-Verified: full")

            # Malformed requests: a structured client error each.
            for payload, code in (
                ({"pla": PLA, "timeout": "x"}, "usage"),
                ({"pla": PLA, "covering": "bogus"}, "usage"),
                ({"pla": 5}, "parse"),
            ):
                status, _, body = request(port, "POST", "/minimize", payload)
                assert status == 400, (payload, status, body)
                assert body["error"]["code"] == code, (payload, body)
            print("malformed requests answered 400 usage / parse")

            # 4x-capacity burst: the excess must shed, liveness holds.
            results: list[tuple[int, dict]] = []
            lock = threading.Lock()

            def fire(i: int) -> None:
                # A distinct function per request, so the result cache
                # can't absorb the burst and every admitted request
                # really occupies its slot for the stalled rung.
                pla = f".i 4\n.o 1\n{i:03b}- 1\n-111 1\n.e\n"
                outcome = request(
                    port, "POST", "/minimize",
                    {"pla": pla, "timeout": 3.0, "label": f"burst-{i}"},
                )
                with lock:
                    results.append((outcome[0], outcome[1]))

            threads = [
                threading.Thread(target=fire, args=(i,)) for i in range(BURST)
            ]
            for thread in threads:
                thread.start()
            assert request(port, "GET", "/healthz")[0] == 200
            for thread in threads:
                thread.join(timeout=30)
            shed = [r for r in results if r[0] == 429]
            assert len(results) == BURST, results
            assert len(shed) >= BURST - 2, [r[0] for r in results]
            assert all("Retry-After" in h for _, h in shed)
            assert request(port, "GET", "/healthz")[0] == 200
            print(f"burst of {BURST}: {len(shed)} shed with Retry-After, "
                  "healthz green throughout")

            # Graceful drain on SIGTERM.
            proc.send_signal(signal.SIGTERM)
            output, _ = proc.communicate(timeout=30)
            assert proc.returncode == 0, proc.returncode
            assert "drained, exiting" in output, output
            # http.server prints this banner (and the traceback) when a
            # handler thread raises and drops its client's connection.
            for marker in ("Exception occurred during processing of request",
                           "Traceback"):
                assert marker not in output, output
            replayed = Manifest(manifest_dir).replay()
            assert replayed, "journal lost in drain"
            print(f"SIGTERM drain clean, journal replays "
                  f"{len(replayed)} record(s)")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
    print("serve smoke: PASS")


if __name__ == "__main__":
    main()
