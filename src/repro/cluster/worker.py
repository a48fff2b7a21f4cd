"""One cluster worker: a supervised ``spp-minimize serve`` subprocess.

Workers are real OS processes (not threads) so N of them use N cores,
a crash takes out one shard instead of the service, and the supervisor
can ``SIGKILL`` a wedged one without ceremony.  Each worker runs the
*unchanged* single-process :class:`~repro.serve.server.MinimizeService`
— admission control, budgets, breakers, watchdog all intact — bound to
a loopback port the coordinator assigned, pointed at the shared
``cache_dir`` disk tier.

The supervisor talks to its worker exactly like any client would:
``/healthz`` for liveness probes, ``/stats`` + ``/metrics`` scraped for
the coordinator's aggregated views.  Restart is spawn-from-scratch on
the same port (``SO_REUSEADDR`` makes the rebind immediate), with the
restart count kept across generations.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

__all__ = ["WorkerProcess", "free_port"]


def free_port(host: str = "127.0.0.1") -> int:
    """Ask the kernel for a currently-free TCP port.

    Classic bind-then-close probe; the tiny race against another
    process grabbing the port is acceptable for a loopback cluster and
    disappears on restart (the worker reuses its assigned port).
    """
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, 0))
        return sock.getsockname()[1]


class WorkerProcess:
    """Spawn, probe, and restart one serve subprocess."""

    def __init__(
        self,
        name: str,
        port: int,
        *,
        host: str = "127.0.0.1",
        serve_args: list[str] | None = None,
        env: dict[str, str] | None = None,
        start_timeout: float = 30.0,
    ) -> None:
        self.name = name
        self.host = host
        self.port = port
        self.serve_args = list(serve_args or [])
        self.start_timeout = start_timeout
        self.restarts = 0
        self._proc: subprocess.Popen | None = None
        self._env = dict(env) if env is not None else dict(os.environ)
        # Children must import repro regardless of how *this* process
        # found it (installed vs PYTHONPATH=src checkout).
        package_root = str(Path(__file__).resolve().parents[2])
        existing = self._env.get("PYTHONPATH")
        if package_root not in (existing or "").split(os.pathsep):
            self._env["PYTHONPATH"] = (
                package_root + (os.pathsep + existing if existing else "")
            )

    # -- lifecycle -----------------------------------------------------

    def command(self) -> list[str]:
        return [
            sys.executable, "-m", "repro", "serve",
            "--host", self.host, "--port", str(self.port),
            "--parent-pid", str(os.getpid()),
            *self.serve_args,
        ]

    def start(self, *, wait: bool = True) -> None:
        """Spawn the subprocess; optionally block until it's healthy."""
        if self.alive:
            return
        self._proc = subprocess.Popen(
            self.command(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=self._env,
            start_new_session=True,  # a drain signal to us must not hit them
        )
        if wait and not self.wait_healthy(self.start_timeout):
            raise RuntimeError(
                f"worker {self.name} (port {self.port}) never became healthy"
            )

    def restart(self, *, wait: bool = True) -> None:
        """Kill any current generation and spawn a fresh one."""
        self.kill()
        self.restarts += 1
        self.start(wait=wait)

    def terminate(self) -> None:
        """Send SIGTERM without waiting (overlapped multi-worker drain)."""
        if self._proc is not None and self._proc.poll() is None:
            self._proc.terminate()

    def stop(self, grace: float = 5.0) -> None:
        """SIGTERM (graceful drain), escalating to SIGKILL after grace."""
        if self._proc is None:
            return
        if self._proc.poll() is None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait(timeout=5.0)
        self._proc = None

    def suspend(self) -> bool:
        """SIGSTOP the worker (chaos: a wedged-but-alive process).

        A stopped worker keeps its sockets open but answers nothing —
        the nastiest failure mode for a proxy, because connections
        neither complete nor refuse.  Returns False when the process
        is not running (nothing to stop).
        """
        if not self.alive:
            return False
        try:
            os.kill(self._proc.pid, signal.SIGSTOP)
        except (OSError, ProcessLookupError):  # pragma: no cover — raced exit
            return False
        return True

    def resume(self) -> bool:
        """SIGCONT a suspended worker; False when it is gone."""
        if self._proc is None:
            return False
        try:
            os.kill(self._proc.pid, signal.SIGCONT)
        except (OSError, ProcessLookupError):
            return False
        return True

    def kill(self) -> None:
        """SIGKILL immediately (crash-path restart, tests)."""
        if self._proc is None:
            return
        if self._proc.poll() is None:
            self._proc.kill()
            try:
                self._proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover
                pass
        self._proc = None

    # -- probes --------------------------------------------------------

    @property
    def pid(self) -> int | None:
        return self._proc.pid if self._proc is not None else None

    @property
    def alive(self) -> bool:
        """Process-level liveness (the port may not be up yet)."""
        return self._proc is not None and self._proc.poll() is None

    def healthy(self, timeout: float = 2.0) -> bool:
        """HTTP-level liveness: does ``/healthz`` answer 200?"""
        if not self.alive:
            return False
        try:
            status, _ = self.request("GET", "/healthz", timeout=timeout)
        except (OSError, http.client.HTTPException):
            return False
        return status == 200

    def wait_healthy(self, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if not self.alive:
                return False
            if self.healthy(timeout=1.0):
                return True
            time.sleep(0.05)
        return False

    # -- plain HTTP client ---------------------------------------------

    def request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        *,
        timeout: float = 30.0,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, bytes]:
        """One HTTP exchange with the worker; returns (status, body)."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=timeout)
        try:
            conn.request(method, path, body=body, headers=headers or {})
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stats(self, timeout: float = 5.0) -> dict[str, Any] | None:
        """The worker's ``/stats`` document, or None when unreachable."""
        try:
            status, body = self.request("GET", "/stats", timeout=timeout)
        except (OSError, http.client.HTTPException):
            # A worker killed mid-reply leaves a short body, which
            # http.client reports as IncompleteRead, not an OSError.
            return None
        if status != 200:
            return None
        try:
            return json.loads(body)
        except ValueError:
            return None
