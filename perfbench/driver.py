"""Cluster lifecycle, HTTP client loops and process accounting.

One :class:`Cluster` is one ``python -m repro cluster --workers 2``
subprocess with its own fresh cache directory (or the traced host in
``tracehost.py`` for the per-layer run).  The client drives it from this
process over one keep-alive connection to the coordinator.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import selectors
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

WORKERS = 2
# One minimization at a time per worker: two workers then use the two
# cores, and no worker runs two EPPP generations at once (concurrent
# packed generation in one process raises IndexError or yields covers
# the integrity check rejects, degrading the answer to bounded-2).
WORKER_THREADS = 1
# Hedged requests leave their losing duplicate queued at the slow worker;
# a waiting room sized for one thread (the default 8 assumes 4) would
# shed live requests behind that abandoned work.
WORKER_QUEUE = 32
# Hedge only a request outstanding this long (a wedged worker), so no
# hedge fires here.  At the adaptive default (~p95) the losing duplicate
# of a hedged solve holds the other worker's single thread and delays
# whatever the content hash routes there next: over 5 seeds the spread
# (IQR/median) of latency_p50_ms rose from <0.09 to 0.16 on cold-exact
# and 0.14 on serve-repeat, and peak_rss_mb's to 0.21 on serve-repeat.
HEDGE_AFTER_S = 10.0
_BANNER = re.compile(rb"http://([0-9.]+):(\d+)")
_TICK = os.sysconf("SC_CLK_TCK")


class Cluster:
    """A coordinator + 2 workers, launched fresh, stopped for good."""

    def __init__(self, root: Path, workdir: Path, *, trace_dir: Path | None = None):
        self.root = root
        self.workdir = workdir
        self.trace_dir = trace_dir
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.worker_pids: list[int] = []
        self.worker_ports: list[int] = []

    def start(self, timeout: float = 120.0) -> None:
        """Launch and wait until ``/readyz`` answers."""
        cache = self.workdir / "cache"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        if self.trace_dir is not None:
            env["PERFBENCH_TRACE_DIR"] = str(self.trace_dir)
            head = [sys.executable, str(Path(__file__).with_name("tracehost.py"))]
        else:
            head = [sys.executable, "-m", "repro"]
        cmd = head + [
            "cluster", "--port", "0", "--workers", str(WORKERS),
            "--threads", str(WORKER_THREADS), "--queue-capacity", str(WORKER_QUEUE),
            "--hedge-after", str(HEDGE_AFTER_S),
            "--cache-dir", str(cache),
        ]
        t0 = time.monotonic()
        with open(self.workdir / "cluster.log", "ab") as log:
            self.proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=log, env=env, cwd=self.workdir,
            )
        self.port = self._read_port(t0 + timeout)
        while not self._ready():
            if time.monotonic() > t0 + timeout or self.proc.poll() is not None:
                raise RuntimeError("cluster never became ready")
            time.sleep(0.01)
        stats = self.get("/stats")
        for info in stats["workers"].values():
            self.worker_pids.append(int(info["pid"]))
            self.worker_ports.append(int(info["port"]))

    def _read_port(self, deadline: float) -> int:
        assert self.proc is not None and self.proc.stdout is not None
        buf = b""
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while b"\n" not in buf:
                left = deadline - time.monotonic()
                if left <= 0 or not sel.select(timeout=left):
                    raise RuntimeError("cluster printed no banner")
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise RuntimeError("cluster exited before its banner")
                buf += chunk
        match = _BANNER.search(buf)
        if match is None:
            raise RuntimeError(f"unexpected cluster banner: {buf!r}")
        return int(match.group(2))

    def _ready(self) -> bool:
        try:
            status, _ = _exchange_once(self.port, "GET", "/readyz", None, 2.0)
        except OSError:
            return False
        return status == 200

    def get(self, path: str, port: int | None = None) -> dict:
        status, data = _exchange_once(port or self.port, "GET", path, None, 10.0)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(data)

    def snapshot(self) -> dict:
        """Coordinator ``/stats`` plus every worker's own ``/stats``."""
        return {
            "coordinator": self.get("/stats"),
            "workers": [self.get("/stats", port) for port in self.worker_ports],
        }

    def pids(self) -> list[int]:
        assert self.proc is not None
        return [self.proc.pid, *self.worker_pids]

    def stop(self) -> None:
        """SIGTERM (graceful drain), SIGKILL on overrun; waits for every
        process, workers included, to be gone."""
        proc = self.proc
        if proc is None:
            return
        self.proc = None
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10.0)
        if proc.stdout is not None:
            proc.stdout.close()
        deadline = time.monotonic() + 15.0
        for pid in self.worker_pids:
            while _alive(pid):
                if time.monotonic() > deadline:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                    deadline = time.monotonic() + 5.0
                time.sleep(0.02)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            state = fh.read().rsplit(b")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in (b"Z", b"X")


def _exchange_once(port, method, path, body, timeout):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def cpu_seconds(pids: list[int]) -> float:
    """User + system CPU seconds of the given live processes."""
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            fields = fh.read().rsplit(b")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / _TICK


def peak_rss_mb(pids: list[int]) -> float:
    """Summed VmHWM (peak resident set) of the given processes, in MB."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


@dataclass
class Outcome:
    index: int
    sent: float
    done: float
    status: int     # HTTP status; 0 = transport error
    data: bytes


class _Client:
    """One keep-alive connection; reconnects after a transport error."""

    def __init__(self, port: int):
        self.port = port
        self.conn: http.client.HTTPConnection | None = None

    def post(self, body: bytes) -> tuple[int, bytes]:
        for attempt in (0, 1):
            if self.conn is None:
                self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=170.0)
            try:
                self.conn.request("POST", "/minimize", body=body,
                                  headers={"Content-Type": "application/json"})
                response = self.conn.getresponse()
                return response.status, response.read()
            except (OSError, http.client.HTTPException):
                self.conn.close()
                self.conn = None
                if attempt:
                    return 0, b""
        return 0, b""

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()


def closed_loop(port: int, bodies: list[bytes], seconds: float, min_requests: int):
    """Send each request when the previous answer lands, over one
    connection, until ``seconds`` pass and at least ``min_requests`` went
    out (one request at a time: every request is timed alone, so its
    latency does not depend on where the content hash routed another).

    Returns (outcomes in order, phase start, phase end) where the phase
    ends at the deadline or when the answer to request ``min_requests``
    arrived, whichever is later.
    """
    outcomes: list[Outcome] = []
    start = time.monotonic()
    stop_at = start + seconds
    client = _Client(port)
    try:
        for i, body in enumerate(bodies):
            if i >= min_requests and time.monotonic() >= stop_at:
                break
            sent = time.monotonic()
            status, data = client.post(body)
            outcomes.append(Outcome(i, sent, time.monotonic(), status, data))
    finally:
        client.close()
    first = [o.done for o in outcomes[:min_requests]]
    return outcomes, start, max(stop_at, max(first, default=stop_at))
