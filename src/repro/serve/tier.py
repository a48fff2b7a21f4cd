"""The HTTP skeleton shared by the two serving tiers.

The worker (:class:`repro.serve.server.MinimizeService`) and the cluster
coordinator (:class:`repro.cluster.coordinator.ClusterCoordinator`)
speak one HTTP API and subclass :class:`HttpTier`, which owns all the
plumbing they have in common:

* the listener: one ``ThreadingHTTPServer`` on a daemon thread, with
  the one request handler (HTTP/1.1 keep-alive, ``TCP_NODELAY``,
  ``Content-Length`` framing, ``X-Repro-Deadline`` parsing) routing
  ``GET /healthz`` ``/readyz`` ``/stats`` ``/metrics`` and
  ``POST /minimize``;
* the error table: every :class:`~repro.errors.ReproError` a tier
  raises becomes one structured ``{"ok": false, "error": {"code",
  "message"}}`` answer with the same status and headers on either tier;
* the drain lifecycle: an idempotent :meth:`HttpTier.drain`,
  SIGTERM/SIGINT handlers and :meth:`HttpTier.wait_drained`;
* locked event counters and the uptime clock.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from collections.abc import Iterable
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.errors import (
    IntegrityError,
    Overloaded,
    ParseError,
    ReproError,
    UsageError,
)
from repro.serve.deadline import DEADLINE_HEADER, DeadlineExpired, parse_deadline

__all__ = [
    "HttpTier",
    "content_length",
    "error_body",
    "error_response",
    "json_payload",
]

# Exception class -> HTTP status, first match wins (subclasses before
# their bases).  ``error.code`` is the exception's taxonomy code, and an
# exception carrying ``retry_after`` also sets ``Retry-After``.
_ERROR_STATUS: tuple[tuple[type[ReproError], int], ...] = (
    (DeadlineExpired, 503),
    (Overloaded, 429),
    (UsageError, 400),
    (ParseError, 400),
    (IntegrityError, 500),
    (ReproError, 500),
)


def error_body(code: str, message: str, extra: dict | None = None) -> bytes:
    """The structured JSON error envelope both tiers answer with."""
    error: dict[str, Any] = {"code": code, "message": message}
    if extra:
        error.update(extra)
    return json.dumps({"ok": False, "error": error}).encode("ascii")


def error_response(exc: ReproError) -> tuple[int, dict[str, str], bytes]:
    """(status, headers, body) answering ``exc`` through the error table."""
    status = next(code for cls, code in _ERROR_STATUS if isinstance(exc, cls))
    headers = {}
    retry_after = getattr(exc, "retry_after", None)
    if retry_after is not None:
        headers["Retry-After"] = str(retry_after)
    # An integrity failure carries its counterexamples (first few points
    # + truncation flag) so the client can replay them against its spec.
    extra = exc.detail if isinstance(exc, IntegrityError) else None
    return status, headers, error_body(exc.code, str(exc), extra)


def json_payload(body: bytes) -> Any:
    """A request body decoded as JSON; :class:`ParseError` when it is not."""
    try:
        return json.loads(body)
    except ValueError:
        raise ParseError("request body is not valid JSON") from None


def content_length(headers) -> int | None:
    """The request body's byte count, or None when ``Content-Length`` is
    not a non-negative integer.  Such a body cannot be framed: reading
    it would raise or, for a negative length, block until the client
    hangs up, so both tiers answer 400 ``parse`` and close instead."""
    try:
        length = int(headers.get("Content-Length", 0))
    except ValueError:
        return None
    return length if length >= 0 else None


class _Handler(BaseHTTPRequestHandler):
    """The request handler of every tier; the tier is ``server.tier``."""

    protocol_version = "HTTP/1.1"
    # Headers and body flush as separate writes; without TCP_NODELAY
    # that pairs Nagle with the peer's delayed ACK for a ~40ms stall
    # on every response.
    disable_nagle_algorithm = True

    def version_string(self) -> str:
        return f"{self.server.tier.server_version} {self.sys_version}"

    def log_message(self, format, *args):  # noqa: A002 — stdlib name
        pass  # request logging would drown the CLI's own output

    def _send(
        self,
        status: int,
        body: dict | bytes,
        headers: dict[str, str] | None = None,
        content_type: str = "application/json",
    ) -> None:
        """Answer with ``body``, JSON-encoded unless already bytes."""
        data = body if isinstance(body, bytes) else json.dumps(body).encode("ascii")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def _not_found(self) -> None:
        self._send(404, error_body("not-found", f"no such path {self.path!r}"))

    def do_GET(self) -> None:  # noqa: N802 — stdlib casing
        tier = self.server.tier
        if self.path == "/healthz":
            self._send(200, {"status": "ok"})
        elif self.path == "/readyz":
            reason = tier.unready_reason()
            if reason is None:
                self._send(200, {"status": "ready"})
            else:
                self._send(
                    503, {"status": reason},
                    {"Retry-After": str(tier.retry_after)},
                )
        elif self.path == "/stats":
            self._send(200, tier.stats())
        elif self.path == "/metrics":
            self._send(
                200, tier.metrics_text().encode("utf-8"),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        else:
            self._not_found()

    def do_POST(self) -> None:  # noqa: N802 — stdlib casing
        length = content_length(self.headers)
        if length is None:
            status, headers, data = error_response(
                ParseError("Content-Length is not a non-negative integer")
            )
            self._send(status, data, {**headers, "Connection": "close"})
            return
        # Read the body before answering anything: left unread, its
        # bytes would be parsed as the next request on this connection.
        body = self.rfile.read(length) if length else b"{}"
        if self.path != "/minimize":
            self._not_found()
            return
        deadline = parse_deadline(self.headers.get(DEADLINE_HEADER))
        try:
            status, headers, data = self.server.tier.handle_minimize(body, deadline)
        except ReproError as exc:
            status, headers, data = error_response(exc)
        self._send(status, data, headers)


class HttpTier:
    """Listener, drain lifecycle and counters of one serving tier.

    A subclass supplies only what differs between the tiers:
    ``handle_minimize(body, deadline)`` returning (status, headers,
    body), where a :class:`ReproError` it raises is answered through the
    error table; ``stats()``; ``metrics_text()``; ``unready_reason()``,
    None while ready, else the ``/readyz`` word; and ``_wind_down(grace)``,
    its part of the drain, run before the listener closes.  The handler
    looks these up on the tier at call time, so wrapping one on the
    class (``perfbench/tracehost.py`` does, to time each layer) takes
    effect.

    ``server_version`` names the tier in the ``Server`` header and its
    thread names; ``retry_after`` is the ``Retry-After`` its ``/readyz``
    sends while not ready.
    """

    server_version = "repro"

    def __init__(self, counters: Iterable[str], *, retry_after: float) -> None:
        self.retry_after = retry_after
        self._counters = dict.fromkeys(counters, 0)
        self._counters_lock = threading.Lock()
        self._server: ThreadingHTTPServer | None = None
        self._server_thread: threading.Thread | None = None
        self._drain_lock = threading.Lock()
        self._draining = False
        self._drained = threading.Event()
        self._started_at = time.monotonic()

    # -- counters ------------------------------------------------------

    def _bump(self, key: str) -> None:
        with self._counters_lock:
            self._counters[key] += 1

    def counter_snapshot(self) -> dict[str, int]:
        with self._counters_lock:
            return dict(self._counters)

    @property
    def uptime(self) -> float:
        return time.monotonic() - self._started_at

    # -- lifecycle -----------------------------------------------------

    def _listen(self, host: str, port: int) -> tuple[str, int]:
        """Bind, serve on a daemon thread, return the bound (host, port)."""
        self._server = ThreadingHTTPServer((host, port), _Handler)
        self._server.daemon_threads = True
        self._server.tier = self
        self._server_thread = threading.Thread(
            target=self._server.serve_forever,
            name=f"{self.server_version}-listener",
            daemon=True,
        )
        self._server_thread.start()
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    def drain(self, grace: float | None = None) -> None:
        """Graceful shutdown: stop admitting, wind the tier down, close
        the listener.  Idempotent: a later call waits for the first."""
        with self._drain_lock:
            first = not self._draining
            self._draining = True
        if not first:
            self._drained.wait()
            return
        try:
            self._wind_down(grace)
            if self._server is not None:
                self._server.shutdown()
                self._server.server_close()
            if self._server_thread is not None:
                self._server_thread.join(timeout=5.0)
        finally:
            self._drained.set()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → drain on a helper thread (main thread only)."""

        def _on_signal(signum, frame):
            threading.Thread(
                target=self.drain,
                name=f"{self.server_version}-drain",
                daemon=True,
            ).start()

        signal.signal(signal.SIGTERM, _on_signal)
        signal.signal(signal.SIGINT, _on_signal)

    def wait_drained(self, timeout: float | None = None) -> bool:
        return self._drained.wait(timeout)
