"""Minimal synchronous client for the switch daemon's control plane.

One method per endpoint, JSON in/out, over a small blocking HTTP/1.1
transport on a plain socket (:class:`_Connection`); the module imports
no HTTP library. Raises :class:`ServiceClientError` (carrying the HTTP
status and the server's one-line diagnostic) on any non-2xx answer::

    from repro.service.client import ServiceClient

    with ServiceClient("127.0.0.1", 8585) as client:
        client.load_program("heavy_hitter")
        client.replay(packets=500)
        client.drain()
        print(client.health()["verdict"])

Every route method runs on one persistent connection, opened on first
use and reopened whenever the server closed it (idle timeout, a
``Connection: close`` answer, a daemon restart). Calls from several
threads are serialized on that connection. A request is re-sent at most
once, and only when a *reused* connection failed before any byte of the
response arrived — the signature of the server having hung up on an
idle connection; a timeout or a partial response is never retried, so
no request is executed twice. Transport failures surface as ``OSError``
(``ConnectionError`` for protocol-level ones: a status line that is not
``HTTP/``, a malformed ``Content-Length``, EOF inside a response), and
the socket is closed after every error. The SSE ``stream_*`` iterators
each hold a connection of their own on the same transport.
:meth:`ServiceClient.close` (or leaving the ``with`` block) drops the
connection; the client stays usable and reconnects on the next call.

``POST /ingest`` has three wire formats and the client speaks all of
them: :meth:`ServiceClient.ingest` sends a record list as ``{"packets":
[...]}`` or a column batch (a :class:`~repro.mp5.packet.PacketColumns`)
as one packed binary frame, and :meth:`ServiceClient.ingest_ndjson`
frames records one per line. :meth:`ServiceClient.replay_trace` chooses
per chunk, before sending: columns when the chunk passes the record
decoder's own column checks (:func:`repro.service.wire.clean_columns`),
NDJSON otherwise — never by retrying a rejected body. The bodies
themselves are built by :mod:`repro.service.wire`, the codec both ends
share; this module imports nothing from the server.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..mp5.packet import PacketColumns
from . import wire

__all__ = ["ServiceClient", "ServiceClientError"]


#: Bytes asked of the socket per ``recv``.
RECV_SIZE = 65536

_STATUS_LINE = re.compile(rb"HTTP/\d\.\d (\d{3})(?: |$)")


class ServiceClientError(Exception):
    """A control-plane request failed; ``status`` is the HTTP code."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


def _raise_for_status(status: int, body: bytes):
    if 200 <= status < 300:
        return
    detail = body.decode(errors="replace")
    try:
        detail = json.loads(detail).get("error", detail)
    except (json.JSONDecodeError, AttributeError):
        pass
    raise ServiceClientError(status, detail)


class _Connection:
    """One blocking HTTP/1.1 connection on a plain socket.

    It speaks the subset of HTTP/1.1 the daemon answers with. A request
    goes out as one ``sendall`` of head and body, on a socket opened on
    demand with ``TCP_NODELAY``. A response head is read from the byte
    buffer up to its blank line; the body by ``Content-Length``, or to
    EOF when that header is absent. Bytes read past a body stay in the
    buffer for the next response. A body read to EOF, a ``Connection:
    close`` answer and :meth:`close` drop the socket. Framing it does not
    speak — a status line that is not ``HTTP/x.y NNN``, a malformed
    ``Content-Length``, a ``Transfer-Encoding`` — and EOF inside a
    response raise ``ConnectionError``; the caller closes the connection
    after any error.
    """

    def __init__(self, host: str, port: int, timeout: float):
        self.address = (host, port)
        self.timeout = timeout
        self.sock: Optional[socket.socket] = None
        self.buffer = bytearray()
        self._host = f"Host: {host}:{port}\r\n"

    def close(self):
        if self.sock is not None:
            self.sock.close()
            self.sock = None
        self.buffer.clear()

    def send(
        self, method: str, path: str, data: Optional[bytes] = None, content_type: str = ""
    ):
        if self.sock is None:
            self.sock = socket.create_connection(self.address, self.timeout)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        data = data or b""
        head = f"{method} {path} HTTP/1.1\r\n{self._host}"
        if data:
            head += f"Content-Type: {content_type}\r\n"
        head += f"Content-Length: {len(data)}\r\n\r\n"
        self.sock.sendall(head.encode("latin-1") + data)

    def fill(self) -> bool:
        """One ``recv`` into the buffer; False at EOF."""
        chunk = self.sock.recv(RECV_SIZE)
        self.buffer += chunk
        return bool(chunk)

    def read_head(self) -> Tuple[int, Dict[str, str]]:
        """The next response's status and headers (names lower-cased)."""
        start = 0
        while True:
            end = self.buffer.find(b"\r\n\r\n", start)
            if end >= 0:
                break
            start = max(0, len(self.buffer) - 3)
            if not self.fill():
                raise ConnectionError("connection closed inside a response head")
        head = bytes(self.buffer[:end])
        del self.buffer[: end + 4]
        status_line, _, header_block = head.partition(b"\r\n")
        match = _STATUS_LINE.match(status_line)
        if match is None:
            raise ConnectionError(f"malformed status line {status_line[:80]!r}")
        headers = {}
        for line in header_block.decode("latin-1").split("\r\n"):
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        return int(match.group(1)), headers

    def read_body(self, headers: Dict[str, str]) -> bytes:
        """The body the head announced; drops the socket when the
        server will not keep it."""
        if "transfer-encoding" in headers:
            raise ConnectionError("chunked responses are not supported")
        length = headers.get("content-length")
        if length is None:
            while self.fill():
                pass
            body = bytes(self.buffer)
            self.close()
            return body
        if not (length.isascii() and length.isdigit()):
            raise ConnectionError(f"malformed Content-Length {length[:40]!r}")
        size = int(length)
        while len(self.buffer) < size:
            if not self.fill():
                raise ConnectionError("connection closed inside a response body")
        body = bytes(self.buffer[:size])
        del self.buffer[:size]
        if "close" in headers.get("connection", "").lower():
            self.close()
        return body

    def readline(self) -> bytes:
        """The next line through its ``\\n``; what is left at EOF."""
        start = 0
        while True:
            end = self.buffer.find(b"\n", start)
            if end >= 0:
                break
            start = len(self.buffer)
            if not self.fill():
                line = bytes(self.buffer)
                self.buffer.clear()
                return line
        line = bytes(self.buffer[: end + 1])
        del self.buffer[: end + 1]
        return line


class ServiceClient:
    """Blocking client for one daemon at ``host:port``.

    Route calls share one keep-alive :class:`_Connection`, serialized by
    a lock; ``timeout`` bounds every connect, send and receive on it and
    on each SSE stream's connection. See the module docstring for when a
    request is re-sent.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8585, timeout: float = 30.0):
        self.base = f"http://{host}:{port}"
        self.timeout = timeout
        # Connects on first use, and again after every ``close()``.
        self._conn = _Connection(host, port, timeout)
        self._lock = threading.Lock()

    def close(self):
        """Drop the persistent connection (the next call reconnects)."""
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # -- transport ------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict] = None,
        raw: bool = False,
        data: Optional[bytes] = None,
        content_type: str = "application/json",
    ):
        if data is None and body is not None:
            data = json.dumps(body).encode()
        conn = self._conn
        with self._lock:
            reused = conn.sock is not None
            try:
                while True:
                    try:
                        conn.send(method, path, data, content_type)
                        if conn.buffer or conn.fill():
                            break
                        raise ConnectionResetError("server closed the connection")
                    except ConnectionError:
                        # Not one response byte arrived. On a reused
                        # connection that is the server having closed it
                        # while idle (the request never ran): re-send
                        # once, on a fresh connection.
                        conn.close()
                        if not reused:
                            raise
                        reused = False
                status, headers = conn.read_head()
                payload = conn.read_body(headers)
            except BaseException:
                # A cut-short exchange leaves the framing in doubt:
                # never read the next response from this socket.
                conn.close()
                raise
        _raise_for_status(status, payload)
        text = payload.decode()
        return text if raw else json.loads(text)

    # -- read-only views ------------------------------------------------

    def health(self) -> Dict:
        return self._request("GET", "/health")

    def status(self) -> Dict:
        return self._request("GET", "/status")

    def metrics(self, since: int = -1) -> Dict:
        return self._request("GET", f"/metrics?since={since}")

    def alerts(self, since: int = 0) -> Dict:
        return self._request("GET", f"/alerts?since={since}")

    def metrics_prom(self) -> str:
        """The OpenMetrics text exposition (``GET /metrics.prom``)."""
        return self._request("GET", "/metrics.prom", raw=True)

    def segments(self) -> Dict:
        return self._request("GET", "/segments")

    def segment_results(self, index: int) -> str:
        """The canonical result payload of a closed segment, as the raw
        JSON string the server rendered (byte-comparable)."""
        return self._request("GET", f"/segments/{index}/results", raw=True)

    # -- control --------------------------------------------------------

    def load_program(
        self,
        program: Optional[str] = None,
        source: Optional[str] = None,
        name: Optional[str] = None,
        validate_only: bool = False,
    ) -> Dict:
        spec: Dict = {"validate_only": validate_only}
        if program:
            spec["program"] = program
        if source:
            spec["source"] = source
        if name:
            spec["name"] = name
        return self._request("POST", "/program", spec)

    def attach_faults(
        self, schedule: Optional[Dict] = None, path: Optional[str] = None
    ) -> Dict:
        spec = {"path": path} if path else {"schedule": schedule or {}}
        return self._request("POST", "/faults", spec)

    def detach_faults(self) -> Dict:
        return self._request("DELETE", "/faults")

    def set_monitor(self, enabled: bool = True) -> Dict:
        return self._request("POST", "/monitor", {"enabled": enabled})

    def configure(self, **knobs) -> Dict:
        return self._request("POST", "/config", knobs)

    def ingest(self, packets: Union[List[Dict], PacketColumns]) -> Dict:
        """One ``POST /ingest``: a list of packet records as a JSON
        document, or one column batch — what :func:`~repro.service.
        wire.clean_columns` builds — as a packed frame, which the
        daemon loads with no per-value work but validates strictly."""
        if isinstance(packets, PacketColumns):
            body, ctype = wire.columns_body(packets), wire.COLUMNS_CTYPE
            return self._request("POST", "/ingest", data=body, content_type=ctype)
        return self._request("POST", "/ingest", wire.records_body(packets))

    def ingest_ndjson(self, packets: List[Dict]) -> Dict:
        """One ``POST /ingest`` framed as NDJSON — one record per line,
        no enclosing array, so the server parses each packet without
        materializing one giant JSON document. This is the fast ingest
        path; semantics are identical to :meth:`ingest`."""
        body, ctype = wire.ndjson_body(packets), wire.NDJSON_CTYPE
        return self._request("POST", "/ingest", data=body, content_type=ctype)

    def replay(self, **spec) -> Dict:
        return self._request("POST", "/replay", spec)

    def replay_trace(
        self,
        packets: List[Dict],
        chunk: int = 512,
        max_wait: float = 30.0,
    ) -> Dict:
        """Client-side replay over the fast ingest path: push ``packets``
        (JSON records, arrival-ordered) chunk by chunk, retrying each
        chunk with backoff while the daemon answers 429 (ingest queue
        full — bounded backpressure doing its job). Returns totals.

        A chunk that transposes cleanly — every record spelt with exact
        JSON types, in range, the same header keys — travels as one
        packed column frame. Any other chunk travels as NDJSON, where the
        daemon's per-record oracle accepts what is coercible and words
        the rejection of what is not."""
        if chunk < 1:
            raise ValueError("replay_trace chunk must be >= 1")
        sent = 0
        retries = 0
        for i in range(0, len(packets), chunk):
            part = packets[i : i + chunk]
            columns = wire.clean_columns(part)
            deadline = time.monotonic() + max_wait
            while True:
                try:
                    if columns is None:
                        self.ingest_ndjson(part)
                    else:
                        self.ingest(columns)
                except ServiceClientError as exc:
                    if exc.status != 429:
                        raise
                    if time.monotonic() >= deadline:
                        raise TimeoutError(
                            f"ingest queue still full after {max_wait}s "
                            f"(sent {sent}/{len(packets)} packets)"
                        ) from exc
                    retries += 1
                    time.sleep(0.02)
                else:
                    sent += len(part)
                    break
        return {
            "sent": sent,
            "chunks": (len(packets) + chunk - 1) // chunk,
            "retries": retries,
        }

    def pause(self) -> Dict:
        return self._request("POST", "/pause")

    def resume(self) -> Dict:
        return self._request("POST", "/resume")

    def drain(self) -> Dict:
        return self._request("POST", "/drain")

    def shutdown(self) -> Dict:
        return self._request("POST", "/shutdown")

    # -- streaming ------------------------------------------------------

    def _stream(
        self, path: str, since: int, poll: Optional[float], heartbeat: Optional[float]
    ) -> Iterator[Tuple[str, Dict]]:
        """Subscribe to an SSE route; yields ``(event, payload)`` pairs.

        The iterator ends when the server sends its final ``event: end``
        frame (daemon shutdown) or closes the connection. Heartbeat
        comment lines are consumed silently.
        """
        query = f"?since={since}"
        if poll is not None:
            query += f"&poll={poll}"
        if heartbeat is not None:
            query += f"&heartbeat={heartbeat}"
        conn = _Connection(*self._conn.address, self.timeout)
        try:
            conn.send("GET", path + query)
            status, headers = conn.read_head()
            if status != 200:
                _raise_for_status(status, conn.read_body(headers))
            event, data_lines = None, []
            while raw := conn.readline():
                line = raw.decode().rstrip("\n").rstrip("\r")
                if line.startswith(":"):
                    continue  # heartbeat comment
                if line.startswith("event:"):
                    event = line[len("event:") :].strip()
                    continue
                if line.startswith("data:"):
                    data_lines.append(line[len("data:") :].strip())
                    continue
                if line == "" and event is not None:
                    payload = json.loads("\n".join(data_lines) or "{}")
                    if event == "end":
                        return
                    yield event, payload
                    event, data_lines = None, []
        finally:
            conn.close()

    def stream_metrics(
        self,
        since: int = -1,
        poll: Optional[float] = None,
        heartbeat: Optional[float] = None,
    ) -> Iterator[Dict]:
        """Push-based ``/metrics?since=`` equivalent: each yielded dict
        is a ``metrics_snapshot`` whose engine section holds only the
        window rows rolled since the previous frame."""
        for _event, payload in self._stream(
            "/stream/metrics", since, poll, heartbeat
        ):
            yield payload

    def stream_alerts(
        self,
        since: int = 0,
        poll: Optional[float] = None,
        heartbeat: Optional[float] = None,
    ) -> Iterator[Dict]:
        """Push-based ``/alerts?since=`` equivalent; each frame carries
        only the alerts raised since the previous one."""
        for _event, payload in self._stream(
            "/stream/alerts", since, poll, heartbeat
        ):
            yield payload

    def stream_health(
        self,
        poll: Optional[float] = None,
        heartbeat: Optional[float] = None,
    ) -> Iterator[Dict]:
        """Health documents, pushed on change (first frame immediate)."""
        for _event, payload in self._stream("/stream/health", -1, poll, heartbeat):
            yield payload

    # -- helpers --------------------------------------------------------

    def wait_ready(self, timeout: float = 15.0, interval: float = 0.1) -> Dict:
        """Poll ``/health`` until the daemon answers (startup helper)."""
        deadline = time.monotonic() + timeout
        last: Exception = RuntimeError("never polled")
        while time.monotonic() < deadline:
            try:
                return self.health()
            except (ServiceClientError, OSError) as exc:
                last = exc
                time.sleep(interval)
        raise TimeoutError(f"service not ready after {timeout}s: {last}")

    def wait_settled(self, timeout: float = 60.0, interval: float = 0.02) -> Dict:
        """Poll ``/status`` until the queue is empty and the engine has
        advanced to its ingest watermark (no runnable work)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status = self.status()
            if status["settled"]:
                return status
            time.sleep(interval)
        raise TimeoutError(f"service still busy after {timeout}s")
