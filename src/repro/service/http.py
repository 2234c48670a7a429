"""Stdlib-only HTTP/JSON control plane for the switch daemon.

A deliberately small HTTP/1.1 server over ``asyncio`` streams:
persistent connections, JSON bodies in and out (a JSON body that is
not an object is a 400 on every route). No routing framework, and
this module is framing and routing only: what the bytes of a body mean
is :mod:`repro.service.wire`'s business. A control body goes through
its ``json_object``; a ``POST /ingest`` body — records, NDJSON or
columns, the one piece of content negotiation — goes through its
``parse_ingest``, and :meth:`ControlPlane._ingest` counts the queued
batch and its bytes under the wire that carried it in
``ingest_batches`` and ``ingest_bytes``. The
endpoint table in ``docs/service.md`` is the contract, and
:class:`ControlPlane` is a dispatch dict over ``(method, path)`` plus
one pattern route for ``/segments/<i>/results``.

**Connection contract.** :meth:`ControlPlane.handle` answers the
requests of one connection in order and states in each response's
``Connection:`` header whether it stays open. It stays open after a 2xx
and after a request that was understood and refused (400 on a bad body,
404, 405, 409, 429). The server closes:

* on ``Connection: close`` or an HTTP/1.0 request;
* after ``/shutdown`` and after anything answered while the daemon is
  stopping; after any 5xx;
* after **any response where request framing is in doubt** — malformed
  request line, over-long or too many header lines, a non-integer or
  negative ``Content-Length``, a body over :data:`MAX_BODY`, any
  ``Transfer-Encoding`` header — and silently on a short body or a head
  cut off by EOF, so leftover bytes are never parsed as a request;
* when a connection does not deliver its next whole request within
  :data:`IDLE_TIMEOUT` seconds;
* on daemon shutdown: connections waiting for a request are hung up on,
  responses in flight finish (:meth:`ControlPlane.close_connections`).

Two response shapes exist:

* **one-shot** — every JSON route and the two raw routes
  (``/segments/<i>/results`` and the OpenMetrics exposition at
  ``/metrics.prom``): read request, write one response, read the next.
* **streaming** — ``/stream/metrics``, ``/stream/alerts`` and
  ``/stream/health`` hold the connection open and push
  ``text/event-stream`` frames (server-sent events), then close it.
  Each subscriber keeps its own cursor into the same segment/window
  machinery the ``?since=`` polling endpoints read, so an SSE stream
  delivers exactly the rows the equivalent poll loop would. Heartbeat
  comments keep idle connections verifiably alive; on daemon shutdown
  every stream wakes at once, whatever its ``?poll=``, flushes pending
  rows and sends a final ``event: end`` frame. A non-finite ``poll`` or
  ``heartbeat`` is a 400 that names the parameter.

Errors map onto status codes via :class:`~repro.errors.
ServiceError` (client mistakes: 400/404/409/413/429) and
:class:`~repro.errors.ReproError` (400); anything else is a 500 with
the exception text — the daemon itself never dies on a bad request.
Request and header lines are capped at :data:`MAX_LINE` bytes so a
hostile client cannot buffer unbounded memory through ``readline``.
"""

from __future__ import annotations

import asyncio
import json
import math
import re
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..errors import ReproError, ServiceError
from .daemon import SwitchService
from .wire import INGEST_ONLY_CTYPES, WIRES, IngestBody, json_object, parse_ingest

__all__ = ["ControlPlane"]

MAX_BODY = 32 * 1024 * 1024  # JSON ingest batches can be sizeable
MAX_HEADER_LINES = 100
MAX_LINE = 8192  # request line / single header line cap (bytes)
#: Seconds a connection may take to deliver its next whole request
#: before the server closes it. Deliberately not a round scrape period:
#: a poller whose interval equals it would race the close every time.
IDLE_TIMEOUT = 75.0
#: Seconds in-flight responses and SSE streams get to finish on shutdown.
SHUTDOWN_GRACE = 5.0

#: Default/floor pacing for SSE subscriber polls, seconds.
STREAM_POLL = 0.05
STREAM_POLL_MIN = 0.005
#: Default idle interval between ``: keepalive`` comments, seconds.
STREAM_HEARTBEAT = 15.0

OPENMETRICS_CTYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}

_SEGMENT_RESULTS = re.compile(r"/segments/(\d+)/results")


def _qint(query: Dict, key: str, default: int) -> int:
    try:
        return int(query.get(key, [default])[0])
    except (TypeError, ValueError) as exc:
        raise ServiceError(f"query parameter {key!r} must be an integer") from exc


def _qfloat(query: Dict, key: str, default: float) -> float:
    try:
        value = float(query.get(key, [default])[0])
    except (TypeError, ValueError) as exc:
        raise ServiceError(f"query parameter {key!r} must be a number") from exc
    if not math.isfinite(value):
        raise ServiceError(f"query parameter {key!r} must be a finite number")
    return value


def _decode_body(ctype: str, body: bytes) -> Optional[Dict]:
    """A framed control-request body → its payload (``None`` when
    empty)."""
    if not body:
        return None
    if ctype in INGEST_ONLY_CTYPES:
        raise ServiceError(f"{ctype} bodies are only accepted on POST /ingest")
    return json_object(body)


def _sse_frame(event: str, payload: Dict) -> bytes:
    data = json.dumps(payload, sort_keys=True)
    return f"event: {event}\ndata: {data}\n\n".encode()


class _MetricsFeed:
    """Per-subscriber cursor over the engine's window series.

    Mirrors a ``/metrics?since=`` poll loop: after each delivered frame
    the cursor advances to the registry's last rolled tick, so the
    concatenation of frames equals the union of the equivalent polls.
    When a segment closes and a new one opens (fresh registry, ticks
    restart) the cursor resets so no early windows are skipped.
    """

    event = "metrics"
    _UNSET = object()

    def __init__(self, svc: SwitchService, since: int):
        self.svc = svc
        self.cursor = since
        self.segment = self._UNSET

    def poll(self) -> Optional[Dict]:
        snap = self.svc.metrics_snapshot(self.cursor)
        segment = snap.get("segment_index")
        if segment != self.segment:
            if self.segment is not self._UNSET and segment is not None:
                self.cursor = -1
                snap = self.svc.metrics_snapshot(self.cursor)
            self.segment = segment
        engine = snap.get("engine")
        if engine is None:
            return None
        if not any(engine["series"].values()) and not any(
            engine["histograms"].values()
        ):
            return None
        self.cursor = engine["cursor"]
        return snap


class _AlertsFeed:
    """Per-subscriber cursor over the merged alert list (same shape as
    ``/alerts?since=``: the cursor is the list index already seen)."""

    event = "alerts"

    def __init__(self, svc: SwitchService, since: int):
        self.svc = svc
        self.cursor = max(0, since)

    def poll(self) -> Optional[Dict]:
        window = self.svc.alerts_window(self.cursor)
        if not window["alerts"]:
            return None
        self.cursor = window["cursor"]
        return window


class _HealthFeed:
    """Emits the ``/health`` document on change (and once on connect)."""

    event = "health"

    def __init__(self, svc: SwitchService, since: int):
        self.svc = svc
        self.last: Optional[str] = None

    def poll(self) -> Optional[Dict]:
        doc = self.svc.health()
        rendered = json.dumps(doc, sort_keys=True)
        if rendered == self.last:
            return None
        self.last = rendered
        return doc


_STREAM_FEEDS = {
    "/stream/metrics": _MetricsFeed,
    "/stream/alerts": _AlertsFeed,
    "/stream/health": _HealthFeed,
}


class ControlPlane:
    """Routes HTTP requests to :class:`SwitchService` operations."""

    def __init__(self, service: SwitchService):
        self.service = service
        self._conns: set = set()  # live handler tasks, one per connection
        self._reading: set = set()  # writers whose handler awaits a request
        self.connections = 0  # accepted since start
        self.requests = 0  # request heads parsed since start
        # ``POST /ingest`` batches queued and the body bytes they took,
        # by the framing that carried them.
        self.ingest_batches = dict.fromkeys(WIRES, 0)
        self.ingest_bytes = dict.fromkeys(WIRES, 0)

    @property
    def connections_open(self) -> int:
        return len(self._conns)

    async def close_connections(self):
        """Daemon shutdown (``_stopping`` is already set): hang up on
        every connection parked waiting for a request, let responses in
        flight finish and SSE streams flush their final ``event: end``
        frame, then cancel whatever is still open after
        :data:`SHUTDOWN_GRACE`."""
        for writer in self._reading:
            writer.close()
        tasks = [task for task in self._conns if not task.done()]
        if tasks:
            _, pending = await asyncio.wait(tasks, timeout=SHUTDOWN_GRACE)
            for task in pending:
                task.cancel()

    async def handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        """One connection: answer requests in order until either side
        asks to close (see the module docstring for when the server
        does)."""
        task = asyncio.current_task()
        self._conns.add(task)
        self.connections += 1
        try:
            while await self._serve_request(reader, writer):
                pass
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer went away, or sent a short body
        except asyncio.CancelledError:
            # Event-loop teardown beat the connection's own shutdown
            # path. End normally: 3.11's StreamReaderProtocol asks a
            # finished handler task for its exception, and logs an
            # "Exception in callback" traceback if it was cancelled.
            return
        finally:
            self._conns.discard(task)
            writer.close()

    async def _serve_request(self, reader, writer) -> bool:
        """Read one request, write its response; True when the
        connection stays open for the next one."""
        status, body, raw, ctype = 500, {"error": "internal error"}, None, None
        # Stays False until the request is framed: an error before that
        # leaves bytes on the wire that are not a request.
        keep = False
        try:
            framed = await self._read_request(reader, writer)
            if framed is None:
                return False  # the client closed between requests
            method, path, query, sent_ctype, sent, keep = framed
            self.requests += 1
            if (method, path) == ("POST", "/ingest"):
                payload = parse_ingest(sent_ctype, sent)
            else:
                payload = _decode_body(sent_ctype, sent)
            if method == "GET" and path in _STREAM_FEEDS:
                # Validate the subscription before any bytes go out so a
                # bad query still gets a proper 400 JSON response.
                feed = _STREAM_FEEDS[path](self.service, _qint(query, "since", -1))
                poll = max(STREAM_POLL_MIN, _qfloat(query, "poll", STREAM_POLL))
                heartbeat = max(poll, _qfloat(query, "heartbeat", STREAM_HEARTBEAT))
                await self._handle_stream(writer, feed, poll, heartbeat)
                return False
            status, body, raw, ctype = await self._dispatch(
                method, path, query, payload
            )
        except ServiceError as exc:
            status, body, raw, ctype = exc.status, {"error": str(exc)}, None, None
        except ReproError as exc:
            status, body, raw, ctype = 400, {"error": str(exc)}, None, None
        except (ConnectionError, asyncio.IncompleteReadError):
            raise
        except Exception as exc:  # keep the daemon alive on handler bugs
            status = 500
            body = {"error": f"{type(exc).__name__}: {exc}"}
            raw, ctype = None, None
        keep = keep and status < 500 and not self.service._stopping
        data = raw if raw is not None else json.dumps(body, sort_keys=True).encode()
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Status')}\r\n"
            f"Content-Type: {ctype or 'application/json'}\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: {'keep-alive' if keep else 'close'}\r\n\r\n"
        )
        writer.write(head.encode() + data)
        await writer.drain()
        return keep

    async def _handle_stream(
        self,
        writer: asyncio.StreamWriter,
        feed,
        poll: float,
        heartbeat: float,
    ):
        """The long-lived branch: headers once, then frames until the
        client disconnects or the daemon stops. All reads happen on the
        event loop via ``feed.poll()`` — no locks, no extra threads."""
        svc = self.service
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-cache\r\n"
            "Connection: close\r\n\r\n"
        )
        idle = 0.0
        writer.write(head.encode())
        await writer.drain()
        while not svc._stopping:
            payload = feed.poll()
            if payload is not None:
                writer.write(_sse_frame(feed.event, payload))
                await writer.drain()
                idle = 0.0
            else:
                idle += poll
                if idle >= heartbeat:
                    writer.write(b": keepalive\n\n")
                    await writer.drain()
                    idle = 0.0
            if writer.is_closing():
                return
            # Wakes at once on daemon shutdown, however long ``poll`` is.
            try:
                await asyncio.wait_for(svc._shutdown_event.wait(), poll)
            except asyncio.TimeoutError:
                pass
        # Shutdown: flush whatever rolled since the last frame, then
        # tell the subscriber this was a clean end, not a drop.
        payload = feed.poll()
        if payload is not None:
            writer.write(_sse_frame(feed.event, payload))
        writer.write(b"event: end\ndata: {}\n\n")
        await writer.drain()

    async def _read_line(self, reader: asyncio.StreamReader, what: str) -> bytes:
        """One capped ``readline``: oversized lines become a 413 instead
        of buffering whatever a hostile client keeps sending."""
        try:
            line = await reader.readline()
        except ValueError as exc:  # StreamReader limit overrun, no newline
            raise ServiceError(f"{what} line too long", status=413) from exc
        if len(line) > MAX_LINE:
            raise ServiceError(
                f"{what} line exceeds {MAX_LINE} bytes", status=413
            ) from None
        return line

    async def _read_request(self, reader, writer):
        """Frame one request: ``(method, path, query, content type,
        body bytes, keep-alive?)``, or ``None`` when the client closed
        instead of sending another. A connection that does not deliver
        a whole request within :data:`IDLE_TIMEOUT` is closed under the
        read, which then ends as a short read."""
        timer = asyncio.get_running_loop().call_later(IDLE_TIMEOUT, writer.close)
        self._reading.add(writer)
        try:
            raw_line = await self._read_line(reader, "request")
            if not raw_line:
                return None
            request_line = raw_line.decode("latin-1").strip()
            parts = request_line.split()
            if len(parts) != 3:
                raise ServiceError(f"malformed request line {request_line!r}")
            method, target, version = parts
            headers: Dict[str, str] = {}
            for _ in range(MAX_HEADER_LINES):
                line = (await self._read_line(reader, "header")).decode("latin-1")
                if line in ("\r\n", "\n"):
                    break
                if not line:  # EOF inside the head: not a request
                    raise asyncio.IncompleteReadError(b"", None)
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
            else:
                raise ServiceError("too many header lines")
            if "transfer-encoding" in headers:
                raise ServiceError("chunked request bodies are not supported")
            try:
                length = int(headers.get("content-length", 0) or 0)
            except ValueError:
                length = -1
            if length < 0:
                raise ServiceError("content-length must be a non-negative integer")
            if length > MAX_BODY:
                raise ServiceError("request body too large", status=413)
            body = await reader.readexactly(length) if length else b""
        finally:
            timer.cancel()
            self._reading.discard(writer)
        split = urlsplit(target)
        keep = (
            version.upper() == "HTTP/1.1"
            and "close" not in headers.get("connection", "").lower()
        )
        ctype = headers.get("content-type", "").partition(";")[0].strip().lower()
        path = split.path.rstrip("/") or "/"
        return method.upper(), path, parse_qs(split.query), ctype, body, keep

    def _ingest(self, body: IngestBody) -> Dict:
        """``POST /ingest``: queue the batch, then count it and its
        framed bytes under the wire that carried it."""
        queued = self.service.ingest(body)
        self.ingest_batches[body.wire] += 1
        self.ingest_bytes[body.wire] += body.nbytes
        return queued

    async def _dispatch(
        self, method: str, path: str, query: Dict, payload
    ) -> Tuple[int, Dict, Optional[bytes], Optional[str]]:
        """Route one request. ``payload`` is its parsed body: an
        :class:`IngestBody` on ``POST /ingest``, else a dict or None."""
        svc = self.service
        match = _SEGMENT_RESULTS.fullmatch(path)
        if match:
            if method != "GET":
                raise ServiceError("method not allowed", status=405)
            return 200, {}, svc.segment_results(int(match.group(1))).encode(), None

        key = (method, path)
        if key == ("GET", "/health"):
            return 200, svc.health(), None, None
        if key == ("GET", "/status"):
            return 200, svc.status(), None, None
        if key == ("GET", "/metrics"):
            return 200, svc.metrics_snapshot(_qint(query, "since", -1)), None, None
        if key == ("GET", "/metrics.prom"):
            return 200, {}, svc.openmetrics().encode(), OPENMETRICS_CTYPE
        if key == ("GET", "/alerts"):
            return 200, svc.alerts_window(_qint(query, "since", 0)), None, None
        if key == ("GET", "/segments"):
            return 200, svc.segments_view(), None, None
        if key == ("POST", "/program"):
            return 200, await svc.load_program(payload or {}), None, None
        if key == ("POST", "/faults"):
            return 200, await svc.attach_faults(payload or {}), None, None
        if key == ("DELETE", "/faults"):
            return 200, await svc.detach_faults(), None, None
        if key == ("POST", "/monitor"):
            enabled = bool((payload or {}).get("enabled", True))
            return 200, await svc.set_monitor(enabled), None, None
        if key == ("POST", "/config"):
            return 200, await svc.configure(payload or {}), None, None
        if key == ("POST", "/ingest"):
            return 200, self._ingest(payload), None, None
        if key == ("POST", "/replay"):
            return 200, await svc.replay(payload or {}), None, None
        if key == ("POST", "/pause"):
            return 200, await svc.pause(), None, None
        if key == ("POST", "/resume"):
            return 200, await svc.resume(), None, None
        if key == ("POST", "/drain"):
            record = await svc.quiesce()
            return 200, {"closed_segment": record}, None, None
        if key == ("POST", "/shutdown"):
            record = await svc.shutdown()
            return 200, {"stopped": True, "closed_segment": record}, None, None
        raise ServiceError(f"no route for {method} {path}", status=404)
