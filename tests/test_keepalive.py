"""The control plane's connection contract (``docs/service.md``).

Server side, on raw sockets: requests on one connection are answered in
order; the server closes exactly when asked to (``Connection: close``,
HTTP/1.0), after a 5xx, after ``/shutdown``, after an idle timeout and
whenever request framing is in doubt — so leftover bytes are never
parsed as a request — and keeps the connection after 404/409/429.
Client side: :class:`ServiceClient` reuses one connection, reconnects
transparently when the server hung up on an idle one, and never sends
a request twice once any response byte arrived. Around both: shutdown
with idle connections open is prompt and silent, and a segment's
results do not depend on how many connections carried it.
"""

import json
import os
import socket
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mp5 import MP5Config
from repro.obs.export import parse_openmetrics
from repro.service import http as http_module
from repro.service.client import ServiceClient, ServiceClientError

from .test_service import (
    PIPELINES,
    _collect,
    _merge_engine,
    _streamed_union,
    client_of,
    make_trace,
    offline_payload,
    records_of,
    serve,
)


def _request(method, path, body=b"", version="HTTP/1.1", headers=()):
    lines = [f"{method} {path} {version}", "Host: test", *headers]
    if body or method == "POST":
        lines.append(f"Content-Length: {len(body)}")
    return "\r\n".join(lines).encode() + b"\r\n\r\n" + body


class RawConnection:
    """One socket that reads framed responses, so a test can tell "the
    server answered and kept the connection" from "it closed"."""

    def __init__(self, address, timeout=5.0):
        self.sock = socket.create_connection(address, timeout=timeout)
        self.buffer = b""

    def send(self, data: bytes):
        self.sock.sendall(data)

    def _fill(self) -> bool:
        chunk = self.sock.recv(65536)
        self.buffer += chunk
        return bool(chunk)

    def response(self):
        """Next ``(status, headers, body)``; ``None`` at a clean EOF."""
        while b"\r\n\r\n" not in self.buffer:
            if not self._fill():
                assert not self.buffer, f"EOF inside a head: {self.buffer!r}"
                return None
        head, _, self.buffer = self.buffer.partition(b"\r\n\r\n")
        status_line, *header_lines = head.decode("latin-1").split("\r\n")
        headers = {}
        for line in header_lines:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers["content-length"])
        while len(self.buffer) < length:
            assert self._fill(), "EOF inside a body"
        body, self.buffer = self.buffer[:length], self.buffer[length:]
        return int(status_line.split()[1]), headers, body

    def closed_by_server(self) -> bool:
        """True when the next thing on the socket is EOF."""
        try:
            return self.response() is None
        except ConnectionResetError:
            return True

    def close(self):
        self.sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _service_counts(service):
    snap = service.metrics_snapshot()["service"]
    return snap["connections_open"], snap["connections"], snap["requests"]


# ----------------------------------------------------------------------
# Server: one connection, many requests, answered in order
# ----------------------------------------------------------------------


def test_mixed_requests_answered_in_order_on_one_socket():
    trace = make_trace("heavy_hitter", 60)
    ingest = json.dumps({"packets": records_of(trace)}).encode()
    service, thread = serve(program="heavy_hitter")
    with thread, RawConnection(thread.address) as conn:
        conn.send(_request("GET", "/health"))
        status, headers, body = conn.response()
        assert status == 200 and headers["connection"] == "keep-alive"
        assert json.loads(body)["verdict"] == "ok"
        # Two requests in one segment: the second must not be lost in
        # the reader's buffer, nor answered before the first.
        conn.send(_request("POST", "/ingest", ingest) + _request("GET", "/status"))
        status, _, body = conn.response()
        assert status == 200 and json.loads(body)["queued"] == 60
        status, _, body = conn.response()
        assert status == 200 and json.loads(body)["program"] == "heavy_hitter"
        conn.send(_request("POST", "/drain"))
        status, _, body = conn.response()
        assert json.loads(body)["closed_segment"]["offered"] == 60
        conn.send(_request("GET", "/segments/0/results"))
        status, headers, body = conn.response()
        assert status == 200 and headers["connection"] == "keep-alive"
        assert body.decode() == offline_payload(
            "fast", "heavy_hitter", trace, MP5Config(num_pipelines=PIPELINES, seed=5)
        )
        assert _service_counts(service) == (1, 1, 5)
        conn.send(_request("POST", "/shutdown"))
        status, headers, _ = conn.response()
        assert status == 200 and headers["connection"] == "close"
        assert conn.closed_by_server()


@pytest.mark.parametrize(
    "request_bytes",
    [
        _request("GET", "/health", headers=("Connection: close",)),
        _request("GET", "/health", version="HTTP/1.0"),
    ],
    ids=["connection_close", "http_1_0"],
)
def test_close_requests_are_honoured(request_bytes):
    service, thread = serve(program="heavy_hitter")
    with thread, RawConnection(thread.address) as conn:
        # Anything after a request that asked to close is not served.
        conn.send(request_bytes + _request("POST", "/pause"))
        status, headers, _ = conn.response()
        assert status == 200 and headers["connection"] == "close"
        assert conn.closed_by_server()
        assert not service._paused


def test_client_errors_keep_the_connection_and_framing_errors_close_it(monkeypatch):
    trace = make_trace("heavy_hitter", 40)
    halves = [
        json.dumps({"packets": records_of(part)}).encode()
        for part in (trace[:20], trace[20:])
    ]
    service, thread = serve(queue_depth=1)  # no program yet
    with thread:
        with RawConnection(thread.address) as conn:
            conn.send(_request("GET", "/nowhere"))
            assert conn.response()[0] == 404
            conn.send(_request("POST", "/ingest", halves[0]))
            assert conn.response()[0] == 409  # no program loaded
            conn.send(_request("POST", "/program", b'{"program": "heavy_hitter"}'))
            assert conn.response()[0] == 200
            conn.send(_request("POST", "/pause"))
            assert conn.response()[0] == 200
            conn.send(_request("POST", "/ingest", halves[0]))
            assert conn.response()[0] == 200
            conn.send(_request("POST", "/ingest", halves[1]))
            status, headers, _ = conn.response()
            assert status == 429 and headers["connection"] == "keep-alive"
            # A well-framed request the route rejects is a client error
            # like any other: the connection survives it.
            conn.send(_request("POST", "/config", b"{not json"))
            status, headers, _ = conn.response()
            assert status == 400 and headers["connection"] == "keep-alive"
            conn.send(_request("GET", "/health"))
            assert conn.response()[0] == 200
            assert _service_counts(service) == (1, 1, 8)

        def boom():
            raise RuntimeError("handler bug")

        monkeypatch.setattr(service, "status", boom)
        closing = [
            (b"GARBAGE\r\n\r\n", 400, b"malformed request line"),
            (_request("GET", "/x", headers=("Content-Length: nope",)), 400, b"content-length"),
            (_request("GET", "/x", headers=("Content-Length: -5",)), 400, b"content-length"),
            (
                _request("GET", "/x", headers=(f"Content-Length: {http_module.MAX_BODY + 1}",)),
                413,
                b"too large",
            ),
            (_request("GET", "/status"), 500, b"RuntimeError: handler bug"),
        ]
        for request_bytes, expected, diagnostic in closing:
            with RawConnection(thread.address) as conn:
                # The follow-up would resume the (still paused) daemon
                # if it were read.
                conn.send(request_bytes + _request("POST", "/resume"))
                status, headers, body = conn.response()
                assert status == expected, request_bytes
                assert diagnostic in body
                assert headers["connection"] == "close"
                assert conn.closed_by_server()
                assert service._paused
        # A body shorter than its Content-Length gets no response at all.
        with RawConnection(thread.address) as conn:
            conn.send(b"POST /shutdown HTTP/1.1\r\nContent-Length: 50\r\n\r\n{}")
            conn.sock.shutdown(socket.SHUT_WR)
            assert conn.closed_by_server()
        monkeypatch.undo()
        client = client_of(thread)
        assert client.health()["verdict"] == "ok"  # the daemon survived all of it
        client.shutdown()


@pytest.mark.parametrize(
    "path", ["/ingest", "/program", "/faults", "/monitor", "/config", "/replay"]
)
def test_non_object_json_body_is_a_400_that_keeps_the_connection(path):
    """These were 500s (``'list' object has no attribute 'get'``), and
    a 5xx hangs up."""
    service, thread = serve(program="heavy_hitter")
    with thread, RawConnection(thread.address) as conn:
        for body in (b"[1,2]", b'"x"', b"5", b"null", b"true"):
            conn.send(_request("POST", path, body))
            status, headers, answer = conn.response()
            assert status == 400 and headers["connection"] == "keep-alive"
            assert json.loads(answer) == {
                "error": "request body must be a JSON object"
            }
        conn.send(_request("GET", "/status"))
        status, _, answer = conn.response()
        assert status == 200 and json.loads(answer)["segments"] == 0
        assert _service_counts(service) == (1, 1, 6)


@pytest.mark.parametrize(
    "path", ["/ingest", "/program", "/faults", "/monitor", "/config", "/replay"]
)
def test_undecodable_json_body_is_a_400_that_keeps_the_connection(path):
    """``json.loads`` raises more than ``JSONDecodeError``: a plain
    ``ValueError`` for an integer past the digit limit, ``RecursionError``
    for deep nesting, ``UnicodeDecodeError`` for bytes that are not
    UTF-8. These were 500s, and a 5xx hangs up."""
    bodies = (
        (b'{"packets": ' + b"9" * 5000 + b"}", "Exceeds the limit"),
        (b"[" * 100_000 + b"]" * 100_000, "recursion"),
        (b'{"program": "\xff"}', "utf-8"),
    )
    framings = [((), "invalid JSON body: ")]
    if path == "/ingest":  # the route that also takes NDJSON lines
        framings.append(
            (("Content-Type: application/x-ndjson",), "invalid NDJSON body: ")
        )
    service, thread = serve(program="heavy_hitter")
    with thread, RawConnection(thread.address) as conn:
        for body, why in bodies:
            for sent_headers, prefix in framings:
                conn.send(_request("POST", path, body, headers=sent_headers))
                status, headers, answer = conn.response()
                assert status == 400 and headers["connection"] == "keep-alive"
                error = json.loads(answer)["error"]
                assert error.startswith(prefix) and why in error
        conn.send(_request("GET", "/status"))
        status, _, answer = conn.response()
        state = json.loads(answer)
        assert status == 200 and state["program"] == "heavy_hitter"
        assert (state["ingested"], state["queue_depth"], state["segments"]) == (
            0, 0, 0
        )
        assert not state["paused"] and not state["monitor"]
        assert _service_counts(service) == (
            1, 1, len(bodies) * len(framings) + 1
        )


def test_chunked_request_is_rejected_and_its_bytes_never_parsed():
    service, thread = serve(program="heavy_hitter")
    with thread, RawConnection(thread.address) as conn:
        # The chunk's payload is itself a well-formed request: a server
        # that ignored Transfer-Encoding would execute both.
        smuggled = _request("POST", "/shutdown")
        chunked = (
            b"POST /pause HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            + f"{len(smuggled):x}\r\n".encode()
            + smuggled
            + b"\r\n0\r\n\r\n"
        )
        conn.send(chunked)
        status, headers, body = conn.response()
        assert status == 400 and headers["connection"] == "close"
        assert b"chunked request bodies are not supported" in body
        assert conn.closed_by_server()
        assert not service._paused and not service._stopping
        with client_of(thread) as client:
            assert client.health()["verdict"] == "ok"


# ----------------------------------------------------------------------
# Idle timeout, and the client's transparent reconnect
# ----------------------------------------------------------------------


def test_idle_timeout_closes_silent_socket_and_client_reconnects(monkeypatch):
    monkeypatch.setattr(http_module, "IDLE_TIMEOUT", 0.2)
    service, thread = serve(program="heavy_hitter")
    with thread:
        with RawConnection(thread.address) as silent, RawConnection(
            thread.address
        ) as stalled:
            stalled.send(b"POST /pause HTTP/1.1\r\nContent-Le")  # never finished
            start = time.monotonic()
            assert silent.closed_by_server() and stalled.closed_by_server()
            assert time.monotonic() - start < 3.0
            assert not service._paused
        with client_of(thread) as client:
            assert client.pause() == {"paused": True}
            time.sleep(0.6)  # the server hangs up on the idle connection
            assert service.metrics_snapshot()["service"]["connections_open"] == 0
            before = service.metrics_snapshot()["service"]["requests"]
            # ... and the next call, a non-idempotent one included, just works,
            # executed exactly once.
            assert client.resume() == {"paused": False}
            assert service.metrics_snapshot()["service"]["requests"] == before + 1
            assert client.health()["verdict"] == "ok"
        _, connections, requests = _service_counts(service)
        assert (connections, requests) == (4, 3)


class _FakeServer:
    """Accepts connections and answers each request by script: the
    retry rules and the client's framing need a server that misbehaves
    on purpose.

    A script step is one of :data:`ACTIONS` by name, or ``(pieces,
    after)``: send each piece of bytes on its own, :data:`PIECE_GAP`
    apart so the client reads them apart, then ``"keep"`` the
    connection for the next request, ``"close"`` it, or ``"hold"`` it
    open and unread (until :meth:`close`) while the next request is
    accepted on a new connection. ``connections[i]`` numbers the
    connection that carried ``requests[i]``, from 1.
    """

    PIECE_GAP = 0.001
    ACTIONS = {
        "ok": (
            [b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\n{}"],
            "keep",
        ),
        "die-mid-body": (
            [b'HTTP/1.1 200 OK\r\nContent-Length: 50\r\n\r\n{"pa'], "close"
        ),
        "die-mid-status": ([b"HTTP/1.1 2"], "close"),
        "die-silent": ([], "close"),
    }

    def __init__(self, script):
        self.script = [
            self.ACTIONS[step] if isinstance(step, str) else step for step in script
        ]
        self.requests = []
        self.connections = []
        self.done = threading.Event()
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = self.listener.getsockname()[:2]
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self):
        conn, accepted, held = None, 0, []
        try:
            for pieces, after in self.script:
                if conn is None:
                    conn, _ = self.listener.accept()
                    accepted, unread = accepted + 1, b""
                # A client answered early may send its next request
                # before this one is read: keep what follows the head.
                while b"\r\n\r\n" not in unread:
                    chunk = conn.recv(65536)
                    if not chunk:
                        break
                    unread += chunk
                head, _, unread = unread.partition(b"\r\n\r\n")
                self.requests.append(head.split(b"\r\n", 1)[0])
                self.connections.append(accepted)
                for i, piece in enumerate(pieces):
                    if i:
                        time.sleep(self.PIECE_GAP)
                    conn.sendall(piece)
                if after == "close":
                    conn.close()
                elif after == "hold":
                    held.append(conn)
                else:
                    assert after == "keep"
                    continue
                conn = None
            # Whatever is still open stays open, unread, until the test
            # is done with it: an early EOF would look like a hang-up.
            self.done.wait(timeout=60)
        finally:
            for sock in held + [conn]:
                if sock is not None:
                    sock.close()

    def close(self):
        self.done.set()
        self.listener.close()
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()


@pytest.mark.parametrize("death", ["die-mid-body", "die-mid-status"])
def test_client_never_resends_after_a_partial_response(death):
    server = _FakeServer(["ok", death])
    try:
        with ServiceClient(*server.address, timeout=5) as client:
            assert client.status() == {}
            with pytest.raises(ConnectionError):
                client.pause()  # reused connection, response cut short
        time.sleep(0.1)
        assert server.requests == [b"GET /status HTTP/1.1", b"POST /pause HTTP/1.1"]
    finally:
        server.close()


def test_client_resends_once_on_a_reused_connection_only():
    # Reused connection, hung up without a byte: one re-send, fresh.
    server = _FakeServer(["ok", "die-silent", "ok"])
    try:
        with ServiceClient(*server.address, timeout=5) as client:
            assert client.status() == {}
            assert client.pause() == {}
        assert server.requests == [
            b"GET /status HTTP/1.1",
            b"POST /pause HTTP/1.1",
            b"POST /pause HTTP/1.1",
        ]
    finally:
        server.close()
    # A fresh connection that dies the same way is an error, not a retry.
    server = _FakeServer(["die-silent"])
    try:
        with ServiceClient(*server.address, timeout=5) as client:
            with pytest.raises(OSError):
                client.pause()
        time.sleep(0.1)
        assert server.requests == [b"POST /pause HTTP/1.1"]
    finally:
        server.close()
    # ... and so is a second failure in a row.
    server = _FakeServer(["ok", "die-silent", "die-silent"])
    try:
        with ServiceClient(*server.address, timeout=5) as client:
            client.status()
            with pytest.raises(ConnectionError):
                client.pause()
        assert len(server.requests) == 3
    finally:
        server.close()


def _scripted(body: bytes, framing: str, length_name: str) -> bytes:
    """One 200 response carrying ``body``: ``"keep"`` and ``"close"``
    frame it by length (and say so in ``Connection:``), ``"eof"`` by
    closing the connection after it."""
    if framing == "eof":
        return b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\n" + body
    connection = "keep-alive" if framing == "keep" else "close"
    head = f"HTTP/1.1 200 OK\r\n{length_name}: {len(body)}\r\nConnection: {connection}"
    return head.encode() + b"\r\n\r\n" + body


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    responses=st.lists(
        st.tuples(
            st.text(max_size=40),
            st.sampled_from(["keep", "close", "eof"]),
            st.sampled_from(["Content-Length", "content-length", "CONTENT-LENGTH"]),
        ),
        min_size=1,
        max_size=5,
    ),
    data=st.data(),
)
def test_client_reads_every_response_however_its_bytes_are_cut(responses, data):
    """Each connection's responses are one byte stream, cut at arbitrary
    points (down to single bytes). After each request the server sends
    the pieces that complete its response, so a piece may carry the head
    of the next response early. A ``Connection: close`` answer is held
    open by the server: a client that reused it would wait forever."""
    # Group the responses into connections: one ends after any response
    # that is not keep-alive. What the server does after each response:
    after_framing = {"keep": "keep", "close": "hold", "eof": "close"}
    connections = [[]]
    for body, framing, length_name in responses:
        reply = _scripted(body.encode(), framing, length_name)
        connections[-1].append((reply, after_framing[framing]))
        if framing != "keep":
            connections.append([])
    script, expected_connections = [], []
    for number, replies in enumerate(filter(None, connections), start=1):
        stream = b"".join(reply for reply, _ in replies)
        cuts = data.draw(st.lists(st.integers(1, len(stream) - 1), max_size=12))
        edges = sorted({0, len(stream), *cuts})
        pieces = [stream[a:b] for a, b in zip(edges, edges[1:])]
        sent = end = 0
        for reply, after in replies:
            end += len(reply)
            step = []
            while sent < end:  # the pieces that complete this response
                step.append(pieces.pop(0))
                sent += len(step[-1])
            script.append((step, after))
            expected_connections.append(number)
    server = _FakeServer(script)
    try:
        with ServiceClient(*server.address, timeout=2) as client:
            for index, (body, _, _) in enumerate(responses):
                assert client.segment_results(index) == body
    finally:
        server.close()  # joins: the last request may be read after its answer
    assert server.requests == [
        f"GET /segments/{index}/results HTTP/1.1".encode()
        for index in range(len(responses))
    ]
    assert server.connections == expected_connections


@pytest.mark.parametrize(
    "reply, error",
    [
        (b"SPDY/3 200 OK\r\nContent-Length: 2\r\n\r\n{}", ConnectionError),
        (b"HTTP/1.1 2OO OK\r\nContent-Length: 2\r\n\r\n{}", ConnectionError),
        (b"HTTP/1.1 200 OK\r\nContent-Length: two\r\n\r\n{}", ConnectionError),
        (
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
            ConnectionError,
        ),
        (None, socket.timeout),  # not one byte, and the socket stays open
    ],
    ids=["not_http", "bad_status_code", "bad_content_length", "chunked", "timeout"],
)
def test_client_never_resends_after_an_error_and_closes_the_socket(reply, error):
    server = _FakeServer(["ok", ([reply] if reply else [], "hold"), "ok"])
    try:
        with ServiceClient(*server.address, timeout=0.5) as client:
            assert client.status() == {}
            with pytest.raises(error):
                client.pause()  # on the reused connection
            assert client._conn.sock is None
            # The held connection is never read again: the next call
            # only succeeds on a new one.
            assert client.health() == {}
        assert server.requests == [
            b"GET /status HTTP/1.1", b"POST /pause HTTP/1.1", b"GET /health HTTP/1.1"
        ]
        assert server.connections == [1, 1, 2]
    finally:
        server.close()


def test_client_reuses_one_connection_and_reopens_after_close():
    service, thread = serve(program="heavy_hitter")
    with thread:
        client = client_of(thread)
        for _ in range(5):
            client.status()
        with pytest.raises(ServiceClientError) as err:
            client.segment_results(7)
        assert err.value.status == 404 and "no such segment" in err.value.message
        client.health()
        families = parse_openmetrics(client.metrics_prom())
        assert families["mp5_service_connections"]["samples"][0][2] == 1
        assert families["mp5_service_requests"]["samples"][0][2] == 8
        assert families["mp5_service_connections_open"]["type"] == "gauge"
        assert families["mp5_service_connections_open"]["samples"][0][2] == 1
        client.close()
        deadline = time.monotonic() + 5
        while service.metrics_snapshot()["service"]["connections_open"]:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert client.metrics()["service"]["connections"] == 2
        client.shutdown()


def test_two_threads_share_one_client():
    service, thread = serve(program="heavy_hitter")
    with thread, client_of(thread) as client:
        errors = []

        def poll(route, expect_key):
            try:
                for _ in range(150):
                    assert expect_key in route()
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [
                threading.Thread(target=poll, args=(client.status, "settled")),
                threading.Thread(target=poll, args=(client.health, "verdict")),
                threading.Thread(target=poll, args=(client.segments, "segments")),
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(switch)
        assert not errors, errors
        _, connections, requests = _service_counts(service)
        assert (connections, requests) == (1, 450)


# ----------------------------------------------------------------------
# SSE beside a keep-alive poller
# ----------------------------------------------------------------------


def test_sse_subscriber_beside_keepalive_poller_equals_cursor_polls():
    trace = make_trace("heavy_hitter", 900, seed=7)
    service, thread = serve(program="heavy_hitter", metrics_window=50)
    with thread:
        client = client_of(thread)
        frames = []
        subscriber = threading.Thread(
            target=_collect,
            args=(client.stream_metrics(poll=0.01), frames),
            daemon=True,
        )
        subscriber.start()
        polled, cursor = {}, -1
        for start in range(0, len(trace), 300):
            client.ingest(records_of(trace[start : start + 300]))
            client.wait_settled()
            snap = client.metrics(cursor)
            _merge_engine(polled, snap)
            if snap.get("engine") is not None:
                cursor = snap["engine"]["cursor"]
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and _streamed_union(frames) != polled:
            time.sleep(0.02)
        # Every poll above rode one connection; the stream held its own.
        service_block = client.metrics()["service"]
        assert service_block["connections"] == 2
        assert service_block["connections_open"] == 2
        assert service_block["requests"] > 8
        client.shutdown()
        subscriber.join(timeout=10)
        assert not subscriber.is_alive(), "stream did not end on shutdown"
    assert polled["series"], "workload must roll metrics windows"
    assert _streamed_union(frames) == polled


def test_a_stream_with_a_huge_poll_ends_cleanly_and_promptly_on_shutdown():
    """A subscriber's ``?poll=`` bounds how often it is fed, not how
    long shutdown waits for it: the stream still gets its ``event: end``
    frame, well inside :data:`SHUTDOWN_GRACE`."""
    service, thread = serve(program="heavy_hitter")
    thread.start()
    with RawConnection(thread.address) as stream:
        stream.send(_request("GET", "/stream/health?poll=1e9"))
        while b"\n\n" not in stream.buffer:  # the first, immediate frame
            assert stream._fill()
        assert stream.buffer.startswith(b"HTTP/1.1 200 OK\r\n")
        start = time.monotonic()
        with client_of(thread) as client:
            assert client.shutdown()["stopped"] is True
        thread.stop()
        elapsed = time.monotonic() - start
        while stream._fill():
            pass
    assert not thread._thread.is_alive()
    assert elapsed < http_module.SHUTDOWN_GRACE / 2, f"shutdown took {elapsed:.2f}s"
    assert stream.buffer.endswith(b"event: end\ndata: {}\n\n")


@pytest.mark.parametrize(
    "query, name",
    [
        ("poll=inf", "poll"),
        ("poll=nan", "poll"),
        ("heartbeat=1e999", "heartbeat"),
        ("poll=0.01&heartbeat=-inf", "heartbeat"),
    ],
)
def test_non_finite_stream_pacing_is_a_400_that_keeps_the_connection(query, name):
    service, thread = serve(program="heavy_hitter")
    with thread, RawConnection(thread.address) as conn:
        conn.send(_request("GET", f"/stream/metrics?{query}"))
        status, headers, body = conn.response()
        assert status == 400 and headers["connection"] == "keep-alive"
        assert json.loads(body) == {
            "error": f"query parameter {name!r} must be a finite number"
        }
        conn.send(_request("GET", "/health"))
        assert conn.response()[0] == 200
        with client_of(thread) as client:
            with pytest.raises(ServiceClientError) as err:
                next(client.stream_alerts(**{name: float("nan")}))
        assert err.value.status == 400 and repr(name) in err.value.message


# ----------------------------------------------------------------------
# Shutdown with idle connections open
# ----------------------------------------------------------------------


def test_thread_stop_with_idle_connections_is_fast_and_silent(caplog, capfd):
    service, thread = serve(program="heavy_hitter")
    thread.start()
    client = client_of(thread)
    client.status()  # now idle, and stays open on the client side
    silent = socket.create_connection(thread.address)
    stalled = socket.create_connection(thread.address)
    stalled.sendall(b"POST /pause HTTP/1.1\r\nContent-Le")
    deadline = time.monotonic() + 5
    while service.metrics_snapshot()["service"]["connections_open"] < 3:
        assert time.monotonic() < deadline
        time.sleep(0.01)
    start = time.monotonic()
    thread.stop()
    elapsed = time.monotonic() - start
    assert not thread._thread.is_alive()
    assert elapsed < 2.0, f"stop() took {elapsed:.2f}s with idle connections"
    assert service.metrics_snapshot()["service"]["connections_open"] == 0
    silent.close()
    stalled.close()
    client.close()
    captured = capfd.readouterr()
    assert captured.err == ""
    assert [r for r in caplog.records if r.name == "asyncio"] == []


def test_daemon_process_exits_promptly_and_silently_with_idle_connections():
    """What ``benchmarks/e2e`` does at reap: a fresh client posts
    ``/shutdown`` while the long-lived client's connection sits idle."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "heavy_hitter", "--port", "0"],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        banner = proc.stdout.readline().decode()
        port = int(banner.split("http://")[1].split()[0].rsplit(":", 1)[1])
        idle = ServiceClient("127.0.0.1", port)
        idle.wait_ready()
        silent = socket.create_connection(("127.0.0.1", port))
        deadline = time.monotonic() + 5
        while idle.metrics()["service"]["connections_open"] < 2:
            assert time.monotonic() < deadline
        start = time.monotonic()
        with ServiceClient("127.0.0.1", port) as fresh:
            assert fresh.shutdown()["stopped"] is True
        assert proc.wait(timeout=10) == 0
        assert time.monotonic() - start < 2.0
        assert proc.stderr.read().decode() == ""
        silent.close()
        idle.close()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()


# ----------------------------------------------------------------------
# Results do not depend on the connections that carried the segment
# ----------------------------------------------------------------------


@pytest.mark.parametrize("engine", ["fast", "vector"])
def test_segment_is_byte_identical_over_one_connection_or_many(engine):
    trace = make_trace("heavy_hitter", 600, seed=3)
    chunks = [records_of(trace[i : i + 100]) for i in range(0, 600, 100)]
    service, thread = serve(program="heavy_hitter", engine=engine)
    with thread:
        with client_of(thread) as client:
            for chunk in chunks[:3]:
                client.ingest(chunk)
            for chunk in chunks[3:]:
                client.ingest_ndjson(chunk)
            record = client.drain()["closed_segment"]
            reused = client.segment_results(record["index"])
            assert client.metrics()["service"]["connections"] == 1
        # The same segment again, one connection per request.
        bodies = [json.dumps({"packets": chunk}).encode() for chunk in chunks]
        for body in bodies:
            with RawConnection(thread.address) as conn:
                conn.send(_request("POST", "/ingest", body, headers=("Connection: close",)))
                status, headers, _ = conn.response()
                assert status == 200 and headers["connection"] == "close"
                assert conn.closed_by_server()
        with RawConnection(thread.address) as conn:
            conn.send(_request("POST", "/drain", headers=("Connection: close",)))
            second = json.loads(conn.response()[2])["closed_segment"]
        with RawConnection(thread.address) as conn:
            conn.send(
                _request(
                    "GET",
                    f"/segments/{second['index']}/results",
                    headers=("Connection: close",),
                )
            )
            per_request = conn.response()[2].decode()
    assert record["engine"] == second["engine"] == engine
    assert reused == per_request
    assert reused == offline_payload(
        engine, "heavy_hitter", trace, MP5Config(num_pipelines=PIPELINES, seed=5)
    )
