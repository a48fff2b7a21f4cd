"""The HTTP skeleton shared by the two serving tiers.

The worker (:class:`repro.serve.server.MinimizeService`) and the cluster
coordinator (:class:`repro.cluster.coordinator.ClusterCoordinator`)
speak one HTTP API and subclass :class:`HttpTier`, which owns all the
plumbing they have in common:

* the listener: one threading ``socketserver`` on a daemon thread, with
  the one request handler routing ``GET /healthz`` ``/readyz``
  ``/stats`` ``/metrics`` and ``POST /minimize`` (plus
  ``X-Repro-Deadline`` parsing);
* the wire format, both halves: the handler frames HTTP/1.1 itself
  (see below), and :class:`Connection` is the client the coordinator
  proxies and probes its workers with;
* the error table: every :class:`~repro.errors.ReproError` a tier
  raises becomes one structured ``{"ok": false, "error": {"code",
  "message"}}`` answer with the same status and headers on either tier;
* the drain lifecycle: an idempotent :meth:`HttpTier.drain`,
  SIGTERM/SIGINT handlers and :meth:`HttpTier.wait_drained`;
* locked event counters and the uptime clock.

The wire.  A request is a request line of at most :data:`MAX_LINE`
bytes, at most :data:`MAX_HEADERS` header lines (each at most
:data:`MAX_LINE` bytes) read with bounded ``readline`` calls into a
plain dict keyed by lower-cased name, and a body framed by
``Content-Length`` alone, of at most :data:`MAX_BODY_BYTES`.  The answer
(status line, ``Server``, ``Date``, ``Content-Type``, ``Content-Length``,
the tier's own headers, body) goes out as one buffer in one ``sendall``.
Connections are kept alive for HTTP/1.1 unless the client sends
``Connection: close``; HTTP/1.0 closes after one answer unless it sends
``Connection: keep-alive``; ``Expect: 100-continue`` gets ``100
Continue`` before the body is read.  A request that cannot be framed is
answered with a structured error and the connection closed: a request
line that is too long (414), too many or too long header lines (431),
a method other than GET and POST (501), a ``Transfer-Encoding`` (411:
chunked bodies are not read), a ``Content-Length`` that is not a
non-negative integer (400 ``parse``) or one over the cap (413, sent
instead of ``100 Continue`` and without reading the body).  Neither
tier imports ``http.server`` or ``http.client``: one keep-alive
exchange through them costs four to six times the CPU of these reads
and this write (docs/SERVING.md, "The wire").
"""

from __future__ import annotations

import json
import signal
import socket
import socketserver
import sys
import threading
import time
from collections.abc import Iterable, Mapping
from http import HTTPStatus
from typing import Any, BinaryIO

from repro.errors import (
    IntegrityError,
    Overloaded,
    ParseError,
    ReproError,
    UsageError,
)
from repro.serve.deadline import DEADLINE_HEADER, DeadlineExpired, parse_deadline

__all__ = [
    "MAX_BODY_BYTES",
    "MAX_HEADERS",
    "MAX_LINE",
    "Connection",
    "HttpTier",
    "ReplyError",
    "content_length",
    "error_body",
    "error_response",
    "json_payload",
]

# Longest request, status or header line, and most header lines, one
# message may carry: the limits http.server and http.client enforced.
MAX_LINE = 65536
MAX_HEADERS = 100

# Largest request body either tier reads.  The largest body the tests,
# examples, perfbench and the load generator send is about 220 KB (a
# PLA padded past the parse memo's 64 KiB text limit with non-ASCII
# comments, which JSON escapes to six bytes a character); the largest
# text within the PLA point bound, a full .i 16/.o 2 fr table, encodes
# to about 1.4 MB.  4 MiB keeps both with room to spare, and bounds what
# one request makes a tier decode: a 32 MB body of comment lines took a
# process from 23 to 192 MB before any check saw it.
MAX_BODY_BYTES = 4 << 20

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

_REASONS = {status.value: status.phrase for status in HTTPStatus}
_PYTHON = "Python/" + sys.version.split()[0]
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("", "Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
_date = (0, "")  # (epoch second, its IMF-fixdate), rebuilt once a second


def _http_date() -> str:
    """The ``Date`` header value for now."""
    global _date
    now = int(time.time())
    second, text = _date
    if second != now:
        t = time.gmtime(now)
        text = (
            f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon]} "
            f"{t.tm_year} {t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT"
        )
        _date = (now, text)
    return text


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


def content_length(headers: Mapping[str, str]) -> int | None:
    """The body's byte count from a header dict keyed by lower-cased
    name (0 without ``Content-Length``), or None when it is not a
    non-negative integer.  Such a body cannot be framed: reading it
    would raise or, for a negative length, block until the peer hangs
    up, so both tiers answer 400 ``parse`` and close instead."""
    value = headers.get("content-length", "0")
    # ASCII digits only: no sign, spaces or underscores, nor the
    # Latin-1 superscripts str.isdigit() also accepts.
    if value.isascii() and value.isdigit():
        try:
            return int(value)
        except ValueError:  # more digits than int() converts
            pass
    return None


class _Unframeable(Exception):
    """A message that cannot be read: ``status`` and ``code`` are the
    answer a tier sends before it closes the connection (``status`` is
    None when the peer hung up and nobody is left to answer)."""

    def __init__(self, status: int | None, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code


def _read_line(rfile: BinaryIO, status: int | None, code: str, what: str) -> bytes:
    """One line of at most :data:`MAX_LINE` bytes (empty at EOF)."""
    line = rfile.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise _Unframeable(status, code, f"{what} over {MAX_LINE} bytes")
    return line


def _read_headers(rfile: BinaryIO) -> dict[str, str]:
    """Header lines up to the blank line, as a dict keyed by lower-cased
    name (the first of repeated names wins)."""
    headers: dict[str, str] = {}
    count = 0
    while True:
        line = _read_line(rfile, 431, "headers-too-large", "header line")
        if line in (b"\r\n", b"\n"):
            return headers
        if not line:
            raise _Unframeable(None, "closed", "connection closed mid-headers")
        count += 1
        if count > MAX_HEADERS:
            raise _Unframeable(
                431, "headers-too-large", f"more than {MAX_HEADERS} headers"
            )
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep or not name or name != name.strip():
            raise _Unframeable(400, "bad-request", f"malformed header line {line[:80]!r}")
        headers.setdefault(name.lower(), value.strip())


def _head(first: str, lines: Iterable[str]) -> bytes:
    """A message head: the request or status line, the header lines
    and the blank line that ends them."""
    return "".join(f"{line}\r\n" for line in (first, *lines, "")).encode("latin-1")


class _Handler(socketserver.StreamRequestHandler):
    """The request handler of every tier; the tier is ``server.tier``.
    One instance serves one connection, request after request, until
    ``close_connection`` is set."""

    # Nagle would hold back a small write for the peer's delayed ACK.
    disable_nagle_algorithm = True
    close_connection = True

    def handle(self) -> None:
        try:
            while self._exchange():
                pass
        except ConnectionError:
            pass  # the client hung up mid-exchange: nobody to answer

    def _send(
        self,
        status: int,
        body: dict | bytes,
        headers: dict[str, str] | None = None,
        content_type: str = "application/json",
    ) -> None:
        """Answer with ``body``, JSON-encoded unless already bytes, in
        one write."""
        data = body if isinstance(body, bytes) else json.dumps(body).encode("ascii")
        lines = [
            f"Server: {self.server.tier.server_version} {_PYTHON}",
            f"Date: {_http_date()}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(data)}",
        ]
        lines += [f"{name}: {value}" for name, value in (headers or {}).items()]
        if self.close_connection:
            lines.append("Connection: close")
        status_line = f"HTTP/1.1 {status} {_REASONS.get(status, '')}"
        self.connection.sendall(_head(status_line, lines) + data)

    def _exchange(self) -> bool:
        """Read one request and answer it; False once the connection
        is done."""
        try:
            request = self._read_request()
        except _Unframeable as exc:
            self.close_connection = True
            if exc.status is not None:
                self._send(exc.status, error_body(exc.code, str(exc)))
            return False
        if request is None:
            return True  # a blank line between requests
        method, path, headers, body = request
        if method == "GET":
            self._get(path)
        elif path != "/minimize":
            self._not_found(path)
        else:
            tier = self.server.tier
            deadline = parse_deadline(headers.get(DEADLINE_HEADER.lower()))
            try:
                status, extra, data = tier.handle_minimize(body or b"{}", deadline)
            except ReproError as exc:
                status, extra, data = error_response(exc)
            self._send(status, data, extra)
        return not self.close_connection

    def _read_request(self):
        """(method, path, headers, body) of the next request, or None
        for a blank line; sets ``close_connection`` from its version
        and ``Connection`` header, and raises :class:`_Unframeable`."""
        line = _read_line(self.rfile, 414, "line-too-long", "request line")
        if not line:
            raise _Unframeable(None, "closed", "connection closed")
        words = line.decode("latin-1").split()
        if not words:
            return None
        if len(words) != 3 or not words[2].startswith("HTTP/"):
            raise _Unframeable(400, "bad-request", f"bad request line {line[:80]!r}")
        method, path, version = words
        try:
            major, minor = map(int, version[5:].split("."))
        except ValueError:
            raise _Unframeable(400, "bad-request", f"bad HTTP version {version!r}") from None
        if major != 1:
            raise _Unframeable(
                505, "version-not-supported", f"unsupported HTTP version {version!r}"
            )
        headers = _read_headers(self.rfile)
        connection = headers.get("connection", "").lower()
        if connection in ("close", "keep-alive"):
            self.close_connection = connection == "close"
        else:
            self.close_connection = minor < 1  # HTTP/1.1 keeps alive
        if method not in ("GET", "POST"):
            raise _Unframeable(501, "not-implemented", f"unsupported method {method!r}")
        if "transfer-encoding" in headers:
            raise _Unframeable(
                411, "length-required",
                "a request body needs Content-Length; Transfer-Encoding is not read",
            )
        length = content_length(headers)
        if length is None:
            raise _Unframeable(
                400, ParseError.code, "Content-Length is not a non-negative integer"
            )
        if length > MAX_BODY_BYTES:
            raise _Unframeable(
                413, "body-too-large",
                f"request body of {length:,} bytes; a request may send at most "
                f"{MAX_BODY_BYTES:,}",
            )
        if headers.get("expect", "").lower() == "100-continue" and minor >= 1:
            self.connection.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        # Read the body before answering anything: left unread, its
        # bytes would be parsed as the next request on this connection.
        body = self.rfile.read(length) if length else b""
        if len(body) < length:
            raise _Unframeable(None, "closed", "connection closed mid-body")
        return method, path, headers, body

    def _not_found(self, path: str) -> None:
        self._send(404, error_body("not-found", f"no such path {path!r}"))

    def _get(self, path: str) -> None:
        tier = self.server.tier
        if path == "/healthz":
            self._send(200, {"status": "ok"})
        elif path == "/readyz":
            reason = tier.unready_reason()
            if reason is None:
                self._send(200, {"status": "ready"})
            else:
                self._send(
                    503, {"status": reason},
                    {"Retry-After": str(tier.retry_after)},
                )
        elif path == "/stats":
            self._send(200, tier.stats())
        elif path == "/metrics":
            self._send(
                200, tier.metrics_text().encode("utf-8"),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        else:
            self._not_found(path)


class _Listener(socketserver.ThreadingTCPServer):
    """One thread per connection; a restarted worker rebinds its port
    at once."""

    allow_reuse_address = True
    daemon_threads = True


class ReplyError(ConnectionError):
    """A reply that is short or malformed.  It is a
    :class:`ConnectionError`, so a caller that treats a dropped
    connection as a failed exchange treats it alike."""


class Connection:
    """One client connection to a tier, kept alive across exchanges.

    :meth:`exchange` sends a request in one ``sendall`` and reads the
    reply's status line and headers with ``readline`` and its body by
    ``Content-Length``; a reply it cannot read raises
    :class:`ReplyError` and a transport failure its ``OSError``.  A
    reply that says ``Connection: close`` closes it (:attr:`open`).
    """

    def __init__(self, host: str, port: int, timeout: float | None) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.open = True
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._rfile = self.sock.makefile("rb")
        self._host = f"{host}:{port}"

    def __enter__(self) -> Connection:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def settimeout(self, timeout: float | None) -> None:
        self.sock.settimeout(timeout)

    def exchange(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        headers: Mapping[str, str] | None = None,
    ) -> tuple[int, dict[str, str], bytes]:
        """One request and its reply: (status, headers keyed by
        lower-cased name, body)."""
        lines = [f"Host: {self._host}"]
        if body is not None:
            lines.append(f"Content-Length: {len(body)}")
        lines += [f"{name}: {value}" for name, value in (headers or {}).items()]
        head = _head(f"{method} {path} HTTP/1.1", lines)
        self.sock.sendall(head + (body or b""))
        try:
            line = _read_line(self._rfile, None, "bad-reply", "status line")
            if not line:
                raise ReplyError("connection closed before a reply")
            words = line.split(None, 2)
            if len(words) < 2 or not words[0].startswith(b"HTTP/") or not (
                len(words[1]) == 3 and words[1].isdigit()
            ):
                raise ReplyError(f"bad status line {line[:80]!r}")
            reply = _read_headers(self._rfile)
        except _Unframeable as exc:
            raise ReplyError(str(exc)) from None
        length = content_length(reply)
        if length is None or "content-length" not in reply:
            raise ReplyError("reply without a usable Content-Length")
        data = self._rfile.read(length)
        if len(data) < length:
            raise ReplyError(f"short reply: {len(data)} of {length} body bytes")
        if reply.get("connection", "").lower() == "close":
            self.close()
        return int(words[1]), reply, data

    def close(self) -> None:
        self.open = False
        self._rfile.close()
        self.sock.close()


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
        self._server: _Listener | None = None
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
        self._server = _Listener((host, port), _Handler)
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
