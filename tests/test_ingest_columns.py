"""The column ingest path: HTTP body → records → ``PacketColumns`` →
queue → ``feed``.

Three layers of contract:

* **decode** — :func:`columns_from_records` equals gathering
  :func:`packet_from_json` of every record, column for column, or
  raises that function's ``ServiceError`` (same status, same text);
* **served** — a segment fed through JSON or NDJSON at any chunking is
  byte-identical to the offline run, on all three engines, and the
  vector daemon builds no per-packet object on the way;
* **edges** — what ingest rejects is rejected atomically (nothing
  queued, horizon untouched) and the daemon keeps answering and shuts
  down cleanly afterwards;
* **column wire** — a packed column frame decodes to the same batch as
  the records it was transposed from, serves the same bytes, is
  rejected strictly (a 400 naming what is wrong with the header, the
  payload length or the first bad arrival, atomically), hands the
  engines read-only columns at any byte offset, and ``replay_trace``
  sends it only for chunks the record path would accept without its
  per-record oracle — every other chunk leaves as the NDJSON bytes it
  always was.
"""

import json
import random
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compiler import compile_program
from repro.mp5 import ENGINES, MP5Config, MP5Switch, PacketColumns, ReferenceSwitch
from repro.mp5.packet import DataPacket
from repro.mp5.vector import VectorSwitch
from repro.service import (
    ServiceError,
    ServiceThread,
    SwitchService,
    columns_from_records,
    packet_from_json,
    render_payload,
    segment_payload,
)
from repro.service import daemon as daemon_module
from repro.service import wire as wire_module
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.wire import (
    COLUMNS_CTYPE,
    NDJSON_CTYPE,
    _parse_ndjson,
    clean_columns,
    columns_body,
    decode_ingest,
)
from repro.workloads.traffic import line_rate_trace, random_headers

PIPELINES = 4
CONFIG = MP5Config(num_pipelines=PIPELINES, seed=5)
PROGRAM = "heavy_hitter"
FIELDS = sorted(compile_program(PROGRAM).packet_fields)


def assert_columns_equal(got: PacketColumns, want: PacketColumns):
    assert got.arrival.dtype == want.arrival.dtype == np.float64
    assert got.arrival.tolist() == want.arrival.tolist()
    assert [type(t) for t in got.ticks()] == [type(t) for t in want.ticks()]
    assert got.ticks() == want.ticks()
    for name in ("port", "size"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == np.int64
        assert a.tolist() == b.tolist()
    assert got.flow == want.flow
    assert set(got.headers) == set(want.headers)
    for field, col in want.headers.items():
        assert got.headers[field].dtype == np.int64
        assert got.headers[field].tolist() == col.tolist()


def per_record(records) -> PacketColumns:
    return PacketColumns.from_packets(
        [packet_from_json(r, i) for i, r in enumerate(records)]
    )


def check_against_oracle(records):
    """Either both decode to equal columns or both raise alike."""
    try:
        want = per_record(records)
    except ServiceError as exc:
        with pytest.raises(ServiceError) as err:
            columns_from_records(records)
        assert err.value.status == exc.status
        assert str(err.value) == str(exc)
        return None
    got = columns_from_records(records)
    assert_columns_equal(got, want)
    return got


# ----------------------------------------------------------------------
# Decode layer
# ----------------------------------------------------------------------

_clean_value = st.integers(-(2**63), 2**63 - 1)
_any_value = st.one_of(
    _clean_value,
    st.sampled_from(["5", "-7", 5.7, -0.5, True, False, 2**70, -(2**63) - 1]),
    st.sampled_from([None, "x", "5.7", [1], float("inf"), float("nan")]),
)
_clean_arrival = st.one_of(
    st.integers(0, 10_000),
    st.floats(0, 10_000, allow_nan=False),
    st.sampled_from([0, 0.0, 3, 3.0, 3.5, 2**53 - 1]),  # ties, fractions
)
_any_arrival = st.one_of(
    _clean_arrival,
    st.sampled_from(["3.5", True, 2**53, -1, -0.0, 1e300, 10**400]),
    st.sampled_from([float("nan"), float("inf"), None, "soon", [1]]),
)
_flow = st.one_of(st.none(), st.integers(-5, 2**70), st.text(max_size=3))
_any_flow = st.one_of(_flow, st.sampled_from([[1, 2], {}, 1.5, True]))


@st.composite
def record_batches(draw):
    clean = draw(st.booleans())
    size = draw(st.sampled_from([1, 2, 3, 5, 17, 40]))
    keys = draw(st.lists(st.sampled_from("abcdz"), unique=True, max_size=4))
    value = _clean_value if clean else _any_value
    arrival = _clean_arrival if clean else _any_arrival
    flow = _flow if clean else _any_flow
    records = []
    for _ in range(size):
        own = keys
        if not clean and draw(st.booleans()):  # sparse and extra keys
            own = draw(st.lists(st.sampled_from("abcdzq"), unique=True))
        rec = {
            "arrival": draw(arrival),
            "headers": {k: draw(value) for k in own},
        }
        if draw(st.booleans()):
            rec["port"] = draw(st.integers(0, 63) if clean else value)
        if draw(st.booleans()):
            rec["size"] = draw(st.integers(64, 1500) if clean else value)
        if draw(st.booleans()):
            rec["flow"] = draw(flow)
        if not clean and draw(st.integers(0, 30)) == 0:
            rec = draw(st.sampled_from([[1, 2], 7, {"headers": {}}, {}]))
        records.append(rec)
    return records


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(records=record_batches())
def test_columns_from_records_equals_per_record_path(records):
    check_against_oracle(records)


def clean_records(n: int, seed: int = 3):
    trace = line_rate_trace(
        n, PIPELINES, random_headers(compile_program(PROGRAM)),
        seed=seed, utilization=0.7,
    )
    records = []
    for i, pkt in enumerate(trace):
        rec = {"arrival": pkt.arrival, "port": pkt.port, "headers": pkt.headers}
        if i % 3 == 0:
            rec["flow"] = i % 11 if i % 2 else f"f{i % 5}"
        if i % 4 == 0:
            rec["size"] = 64 + i % 7
        records.append(rec)
    return records


@pytest.mark.parametrize("n", [1, 100, 512])
def test_clean_batches_take_the_vectorised_path(n, monkeypatch):
    """Exact JSON types and shared header keys never reach the
    per-record walk — and still equal it."""
    records = clean_records(n)
    want = per_record(records)

    def boom(record, idx=0):
        raise AssertionError("per-record oracle called on the happy path")

    monkeypatch.setattr(wire_module, "packet_from_json", boom)
    assert_columns_equal(columns_from_records(records), want)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda r: r["headers"].update({FIELDS[0]: "5"}),
        lambda r: r["headers"].update({FIELDS[0]: 5.7}),
        lambda r: r["headers"].update({FIELDS[0]: True}),
        lambda r: r["headers"].pop(FIELDS[0]),
        lambda r: r["headers"].update(extra=9),
        lambda r: r.update(arrival=str(r["arrival"])),
        lambda r: r.update(port=True),
    ],
    ids=["str", "float", "bool", "sparse", "extra", "str_arrival", "bool_port"],
)
def test_coercible_spellings_yield_the_oracle_columns(mutate):
    records = clean_records(40)
    mutate(records[17])
    assert check_against_oracle(records) is not None


@pytest.mark.parametrize(
    "mutate, text",
    [
        (lambda r: r.update(arrival=float("nan")), "finite"),
        (lambda r: r.update(arrival=float("inf")), "finite"),
        (lambda r: r.update(arrival=1e300), "below 2**53"),
        (lambda r: r.update(arrival=10**400), "too large"),
        (lambda r: r.update(arrival=-1), ">= 0"),
        (lambda r: r["headers"].update({FIELDS[0]: 2**70}), "int64"),
        (lambda r: r["headers"].update({FIELDS[0]: float("inf")}), "infinity"),
        (lambda r: r.update(port=2**63), "int64"),
        (lambda r: r.update(size=-(2**63) - 1), "int64"),
        (lambda r: r.update(flow=[1, 2]), "flow must be"),
        (lambda r: r.update(flow={}), "flow must be"),
        (lambda r: r.pop("headers"), "'headers'"),
        (lambda r: r.update(headers=[1]), "items"),
    ],
)
def test_rejections_name_the_record(mutate, text):
    records = clean_records(30)
    mutate(records[11])
    with pytest.raises(ServiceError) as err:
        columns_from_records(records)
    assert err.value.status == 400
    assert text in str(err.value)
    assert repr(records[11]) in str(err.value)
    assert check_against_oracle(records) is None


def test_from_packets_orders_ties_by_packet_id_and_keeps_int_arrivals():
    packets = [
        DataPacket(pkt_id=pid, arrival=a, port=0, headers={"a": pid})
        for pid, a in ((4, 2), (1, 2), (3, 0.5), (2, 2))
    ]
    cols = PacketColumns.from_packets(packets)
    assert cols.headers["a"].tolist() == [1, 2, 3, 4]
    assert cols.ticks() == [2, 2, 0.5, 2]
    assert [type(t) for t in cols.ticks()] == [int, int, float, int]
    assert cols.span() == ((0.5, 0), (2.0, 0))
    back = cols.to_packets()
    assert [(p.arrival, p.headers) for p in back] == [
        (2, {"a": 1}), (2, {"a": 2}), (0.5, {"a": 3}), (2, {"a": 4}),
    ]
    only = PacketColumns.from_packets(packets, fields=["b"])
    assert only.headers["b"].tolist() == [0, 0, 0, 0]
    assert len(PacketColumns.from_packets([])) == 0


def test_ndjson_lines_are_validated_one_by_one():
    """Two broken lines that would join into two valid records."""
    with pytest.raises(ServiceError) as err:
        _parse_ndjson(b'{"h":[1\n2]},{"k":1}\n')
    assert err.value.status == 400
    assert "line 1" in str(err.value)
    good = b'{"arrival":1,"headers":{}}'
    with pytest.raises(ServiceError) as err:
        _parse_ndjson(good + b"\n" + good + b" trailing\n")
    assert "line 2" in str(err.value) and "Extra data" in str(err.value)
    assert _parse_ndjson(b"\n " + good + b" \r\n\n")["packets"] == [
        {"arrival": 1, "headers": {}}
    ]


def test_ingest_ndjson_body_is_byte_identical_to_per_record_dumps(monkeypatch):
    records = clean_records(50) + [
        {"arrival": float("nan"), "headers": {"é": 1}, "flow": "a\nb"}
    ]
    sent = {}
    client = ServiceClient()
    monkeypatch.setattr(
        client, "_request", lambda *a, **kw: sent.update(kw) or {}
    )
    for batch in (records, records[:1], []):
        client.ingest_ndjson(batch)
        assert sent["data"] == b"".join(
            json.dumps(r, separators=(",", ":")).encode() + b"\n"
            for r in batch
        )


# ----------------------------------------------------------------------
# Served layer
# ----------------------------------------------------------------------


def served_records(n: int, chunk: int):
    """Fractional arrivals, (arrival, port) ties, flows, and every
    chunk shuffled (batches sort themselves; only chunks are ordered)."""
    records = clean_records(n)
    for i in range(5, n - 1, 9):  # a tie with the next record
        records[i + 1]["arrival"] = records[i]["arrival"]
        records[i + 1]["port"] = records[i]["port"]
    rng = random.Random(chunk)
    out = []
    for i in range(0, n, chunk):
        part = records[i : i + chunk]
        rng.shuffle(part)
        out.extend(part)
    return out


def offline(engine: str, records) -> str:
    packets = [packet_from_json(r, i) for i, r in enumerate(records)]
    stats, registers = ENGINES[engine](compile_program(PROGRAM), packets, CONFIG)
    return render_payload(segment_payload(stats, registers))


def client_of(thread: ServiceThread) -> ServiceClient:
    return ServiceClient(*thread.address, timeout=30)


@pytest.mark.parametrize("engine", ["fast", "dense", "vector"])
@pytest.mark.parametrize("chunk, n", [(1, 60), (7, 200), (100, 600), (512, 600)])
def test_served_json_and_ndjson_equal_offline(engine, chunk, n):
    records = served_records(n, chunk)
    want = offline(engine, records)
    service = SwitchService(program=PROGRAM, engine=engine, config=CONFIG)
    with ServiceThread(service) as thread:
        client = client_of(thread)
        for send in (client.ingest, client.ingest_ndjson):
            for i in range(0, n, chunk):
                send(records[i : i + chunk])
            record = client.drain()["closed_segment"]
            assert record["engine"] == engine and record["offered"] == n
        assert client.status()["errors"] == []
        assert client.segment_results(0) == want
        assert client.segment_results(1) == want
        client.shutdown()


def test_served_vector_segment_builds_no_packet_objects(monkeypatch):
    """Between the socket and ``EpochStreamer.ingest`` there are only
    records and columns."""
    records = served_records(400, 64)
    want = offline("vector", records)
    service = SwitchService(program=PROGRAM, engine="vector", config=CONFIG)

    def boom(self, *args, **kwargs):
        raise AssertionError("DataPacket constructed on the column path")

    with ServiceThread(service) as thread:
        client = client_of(thread)
        monkeypatch.setattr(DataPacket, "__init__", boom)
        client.ingest(records[:64])
        client.replay_trace(records[64:], chunk=64)
        record = client.drain()["closed_segment"]
        monkeypatch.undo()
        assert record["engine"] == "vector" and record["offered"] == 400
        assert client.status()["errors"] == []
        assert client.segment_results(0) == want
        client.shutdown()


# ----------------------------------------------------------------------
# Edges: atomic rejection, and a daemon that survives it
# ----------------------------------------------------------------------


def test_409_and_429_leave_no_trace():
    records = clean_records(120)
    a, b, c = records[:40], records[40:80], records[80:]
    service = SwitchService(
        program=PROGRAM, engine="vector", config=CONFIG, queue_depth=1
    )
    with ServiceThread(service) as thread:
        client = client_of(thread)
        client.pause()  # nothing leaves the queue
        client.ingest(a)
        horizon = service._feed_horizon
        with pytest.raises(ServiceClientError) as err:
            client.ingest_ndjson(b)  # queue of one is full
        assert err.value.status == 429
        assert service._feed_horizon == horizon
        assert client.status()["ingested"] == 0
        assert client.status()["rejected"] == 40
        client.resume()
        client.wait_settled()
        assert client.status()["ingested"] == 40
        client.ingest_ndjson(c)
        client.wait_settled()
        horizon = service._feed_horizon
        with pytest.raises(ServiceClientError) as err:
            client.ingest(b)  # behind the horizon now
        assert err.value.status == 409 and "monotone" in err.value.message
        assert service._feed_horizon == horizon
        assert client.status()["ingested"] == 80
        later = [dict(r, arrival=r["arrival"] + 1000) for r in b]
        client.ingest(later)
        record = client.drain()["closed_segment"]
        assert record["offered"] == 120
        assert client.segment_results(0) == offline("vector", a + c + later)
        client.shutdown()


BAD_RECORDS = [
    '{"arrival": NaN, "headers": {}}',
    '{"arrival": Infinity, "headers": {}}',
    '{"arrival": 1e300, "headers": {}}',
    '{"arrival": -5, "headers": {}}',
    '{"arrival": 1, "headers": {"%s": %d}}' % (FIELDS[0], 2**70),
    '{"arrival": 1, "port": %d, "headers": {}}' % 2**70,
    '{"arrival": 1, "flow": [1, 2], "headers": {}}',
    '{"arrival": 1, "flow": {}, "headers": {}}',
]


@pytest.mark.parametrize("engine", ["fast", "vector"])
def test_wedging_records_are_rejected_at_ingest(engine):
    """Each of these was a 200 followed by a drain that never returned
    (or lost the segment); now a 400, atomically, on both routes."""
    good = clean_records(20)
    service = SwitchService(program=PROGRAM, engine=engine, config=CONFIG)
    with ServiceThread(service) as thread:
        client = ServiceClient(*thread.address, timeout=10)
        line = json.dumps(good[0])
        for bad in BAD_RECORDS:
            bodies = (
                ('{"packets": [%s, %s]}' % (line, bad), "application/json"),
                (f"{line}\n{bad}\n", "application/x-ndjson"),
            )
            for body, ctype in bodies:
                with pytest.raises(ServiceClientError) as err:
                    client._request(
                        "POST", "/ingest", data=body.encode(), content_type=ctype
                    )
                assert err.value.status == 400
                assert "malformed packet record" in err.value.message
        status = client.status()
        assert status["queue_depth"] == 0 and not status["segment_open"]
        assert service._feed_horizon is None
        assert client.health()["verdict"] == "ok"
        client.ingest(good)
        assert client.drain()["closed_segment"]["offered"] == 20
        assert client.segment_results(0) == offline(engine, good)
        client.shutdown()
    assert not thread._thread.is_alive()


def test_a_failed_feed_loses_the_batch_not_the_pump(monkeypatch):
    """A validation gap must be a loud 500 at drain, not a hang."""
    records = clean_records(60)
    service = SwitchService(program=PROGRAM, engine="vector", config=CONFIG)
    real_feed = daemon_module._EngineAdapter.feed

    def flaky(self, batch):
        if len(batch) == 7:
            raise OverflowError("int too big to convert")
        return real_feed(self, batch)

    monkeypatch.setattr(daemon_module._EngineAdapter, "feed", flaky)
    with ServiceThread(service) as thread:
        client = ServiceClient(*thread.address, timeout=10)
        client.ingest(records[:20])
        client.ingest(records[20:27])  # 200: the gap is past ingest
        client.ingest(records[27:])
        with pytest.raises(ServiceClientError) as err:
            client.drain()
        assert err.value.status == 500
        assert "OverflowError" in err.value.message
        status = client.status()
        assert status["rejected"] == 7 and status["ingested"] == 53
        assert any("feed failed" in e for e in status["errors"])
        assert client.health()["verdict"] == "ok"
        assert client.segment_results(0) == offline(
            "vector", records[:20] + records[27:]
        )
        client.ingest(records[:20])  # the next segment is clean
        assert client.drain()["closed_segment"]["offered"] == 20
        client.shutdown()
    assert not thread._thread.is_alive()


# ----------------------------------------------------------------------
# The column wire: a packed frame on POST /ingest
# ----------------------------------------------------------------------


def frame(header, payload: bytes, offset: int = 0) -> bytes:
    """A column frame put together by hand: any JSON value as the
    header line, padded with spaces so that the payload starts
    ``offset`` bytes past a multiple of 8, then the payload as given."""
    line = json.dumps(header).encode()
    return line + b" " * ((offset - len(line) - 1) % 8) + b"\n" + payload


def unframe(body: bytes):
    """``(header, payload)`` of a frame ``columns_body`` packed."""
    line, _, payload = body.partition(b"\n")
    return json.loads(line), payload


def via_wire(batch: PacketColumns, offset=None) -> PacketColumns:
    """What the daemon sees of a column batch the client sent — as
    sent, or re-framed with its payload at ``offset``."""
    body = columns_body(batch)
    if offset is not None:
        body = frame(*unframe(body), offset=offset)
    return decode_ingest(COLUMNS_CTYPE, body)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(records=record_batches())
def test_column_body_equals_columns_from_records(records):
    """A batch is a clean column batch exactly when the record path
    would not consult the per-record oracle, and then the frame decodes
    column for column to what the records decode to."""
    batch = clean_columns(records)
    try:
        wire_module._checked_columns(**wire_module._gather(records))
    except wire_module._DECLINED:
        assert batch is None
        return
    header, payload = unframe(columns_body(batch))
    assert ("flow" in header) == any(r.get("flow") is not None for r in records)
    assert len(payload) == 8 * len(records) * len(header["columns"])
    want = columns_from_records(records)
    assert_columns_equal(batch, want)
    assert_columns_equal(via_wire(batch), want)


def test_optional_columns_default_as_record_fields_do():
    records = [{"arrival": i, "headers": {"a": i}} for i in range(5)]
    payload = struct.pack("<5d5q", *range(5), *range(5))
    got = decode_ingest(
        COLUMNS_CTYPE, frame({"rows": 5, "columns": ["arrival", "headers.a"]}, payload)
    )
    assert_columns_equal(got, columns_from_records(records))
    assert got.port.tolist() == [0] * 5 and got.size.tolist() == [64] * 5
    assert got.flow == [None] * 5


def fed(engine: str, *batches: PacketColumns) -> str:
    """The segment a streaming switch closes over ``batches`` fed as
    they are — what the daemon's pump does with a queued batch."""
    cls = {"fast": MP5Switch, "dense": ReferenceSwitch, "vector": VectorSwitch}[engine]
    switch = cls(compile_program(PROGRAM), CONFIG)
    switch.start()
    for batch in batches:
        switch.feed(batch)
    switch.pump()
    return render_payload(segment_payload(switch.finish(), switch.public_registers()))


def test_a_frame_decodes_alike_at_every_payload_offset():
    """The header line's length sets where the payload starts: all
    eight residues mod 8 give equal batches, read-only views of the
    body whether or not the words ended up aligned."""
    batch = clean_columns(clean_records(50))
    aligned = []
    for offset in range(8):
        got = via_wire(batch, offset)
        assert_columns_equal(got, batch)
        for col in (got.arrival, got.port, got.size, *got.headers.values()):
            assert not col.flags.writeable and not col.flags.owndata
        aligned.append(bool(got.arrival.flags.aligned))
    assert aligned == [True] + [False] * 7


@pytest.mark.parametrize("engine", ["fast", "dense", "vector"])
@pytest.mark.parametrize("flows", [True, False], ids=["flows", "no_flows"])
@pytest.mark.parametrize("shuffled", [False, True], ids=["sorted", "unsorted"])
def test_engines_take_read_only_unaligned_columns(engine, flows, shuffled):
    """No engine writes into, or needs alignment of, what the socket
    handed it: two decoded frames — read-only, one off the 8-byte grid
    — feed straight in and close the offline segment."""
    records = clean_records(120)
    if not flows:
        for rec in records:
            rec.pop("flow", None)
    parts = [records[:70], records[70:]]
    if shuffled:
        for part in parts:
            random.Random(7).shuffle(part)
    batches = [via_wire(clean_columns(part), i) for i, part in enumerate(parts)]
    assert [bool(b.arrival.flags.aligned) for b in batches] == [True, False]
    assert not any(b.arrival.flags.writeable for b in batches)
    assert fed(engine, *batches) == offline(engine, records)


def test_clean_column_batch_touches_no_record_code(monkeypatch):
    """No ``packet_from_json``, no record gather, no ``DataPacket``
    between the socket and the engine."""
    records = served_records(400, 64)
    want = offline("vector", records)
    bodies = [clean_columns(records[i : i + 64]) for i in range(0, 400, 64)]
    service = SwitchService(program=PROGRAM, engine="vector", config=CONFIG)

    def boom(*args, **kwargs):
        raise AssertionError("per-record code ran for a column batch")

    with ServiceThread(service) as thread:
        client = client_of(thread)
        for name in ("packet_from_json", "_gather", "columns_from_records"):
            monkeypatch.setattr(wire_module, name, boom)
        monkeypatch.setattr(DataPacket, "__init__", boom)
        for body in bodies:
            client.ingest(body)
        record = client.drain()["closed_segment"]
        monkeypatch.undo()
        assert record["engine"] == "vector" and record["offered"] == 400
        assert client.status()["errors"] == []
        assert client.segment_results(0) == want
        client.shutdown()


@pytest.mark.parametrize("engine", ["fast", "dense", "vector"])
@pytest.mark.parametrize(
    "chunk, n", [(1, 60), (7, 200), (64, 400), (100, 600), (512, 600)]
)
def test_served_columns_equal_records_ndjson_and_offline(engine, chunk, n):
    records = served_records(n, chunk)
    want = offline(engine, records)
    chunks = -(-n // chunk)
    service = SwitchService(program=PROGRAM, engine=engine, config=CONFIG)
    with ServiceThread(service) as thread:
        client = client_of(thread)
        for i in range(0, n, chunk):
            client.ingest(clean_columns(records[i : i + chunk]))
        client.drain()
        assert client.replay_trace(records, chunk=chunk)["chunks"] == chunks
        client.drain()
        for send in (client.ingest, client.ingest_ndjson):
            for i in range(0, n, chunk):
                send(records[i : i + chunk])
            client.drain()
        assert client.status()["errors"] == []
        assert [client.segment_results(i) for i in range(4)] == [want] * 4
        wires = client.metrics()["service"]["ingest_batches"]
        assert wires == {"columns": 2 * chunks, "records": chunks, "ndjson": chunks}
        client.shutdown()


N_GOOD = 8
NAMES = ["arrival", "port", "size", *(f"headers.{f}" for f in FIELDS)]


def _good_batch(start: int = 0) -> PacketColumns:
    rows = range(start, start + N_GOOD)
    return PacketColumns(
        np.array(rows, dtype=np.float64),
        np.array([i % PIPELINES for i in rows]),
        np.full(N_GOOD, 64),
        [None, 3, "f"] + [None] * (N_GOOD - 3),
        {f: np.array([i % 7 for i in rows]) for f in FIELDS},
    )


GOOD_HEADER, GOOD_PAYLOAD = unframe(columns_body(_good_batch(100)))


def _with(**changes):
    """The good frame's header with some keys replaced."""
    return {**GOOD_HEADER, **changes}, GOOD_PAYLOAD


def _arrival(row: int, value: float):
    """The good frame with one word of its arrival column (the first)
    replaced, and the rejection that names it."""
    payload = GOOD_PAYLOAD[: row * 8] + struct.pack("<d", value) + GOOD_PAYLOAD[row * 8 + 8 :]
    return (GOOD_HEADER, payload), (
        f"column 'arrival' row {row}: expected a number that is finite, "
        f">= 0 and below 2**53, got {value!r}"
    )


def _flow_row(row: int, value):
    return _with(flow=[value if i == row else f for i, f in enumerate(GOOD_HEADER["flow"])])


H0 = f"headers.{FIELDS[0]}"
BYTES = N_GOOD * 8 * len(NAMES)
TAKE = f"{N_GOOD} rows of {len(NAMES)} columns take {BYTES} payload bytes, "
FLOW_WANT = f"'flow' must be {N_GOOD} values, each null, an integer or a string"
BAD_COLUMN_FRAMES = [
    (([1, 2], GOOD_PAYLOAD), "header must be an object of 'rows', 'columns' and"),
    ((None, GOOD_PAYLOAD), "header must be an object of 'rows', 'columns' and"),
    (_with(headers={}), "header must be an object of 'rows', 'columns' and"),
    (({"columns": NAMES}, GOOD_PAYLOAD), "'rows' must be a positive integer, got None"),
    (_with(rows=0), "'rows' must be a positive integer, got 0"),
    (_with(rows=-N_GOOD), f"'rows' must be a positive integer, got -{N_GOOD}"),
    (_with(rows=float(N_GOOD)), "'rows' must be a positive integer, got 8.0"),
    (_with(rows=True), "'rows' must be a positive integer, got True"),
    (_with(rows=str(N_GOOD)), "'rows' must be a positive integer, got '8'"),
    (({"rows": N_GOOD}, GOOD_PAYLOAD), "'columns' must be a list of column names"),
    (_with(columns="arrival"), "'columns' must be a list of column names"),
    (_with(columns=["ports", *NAMES[1:]]), "unknown column 'ports'"),
    (_with(columns=[*NAMES[:-1], "headers"]), "unknown column 'headers'"),
    (_with(columns=[*NAMES[:-1], 7]), "unknown column 7"),
    (_with(columns=[*NAMES[:-1], ["arrival"]]), "unknown column ['arrival']"),
    (_with(columns=[*NAMES[:-1], "port"]), "duplicate column 'port'"),
    (_with(columns=[*NAMES[:-1], H0]), f"duplicate column {H0!r}"),
    (_with(columns=["headers.zz", *NAMES[1:]]), "no column 'arrival'"),
    (_with(columns=[]), "no column 'arrival'"),
    (_with(rows=2**62), f"{2**62} rows of {len(NAMES)} columns take {2**62 // N_GOOD * BYTES}"),
    (_with(rows=N_GOOD - 1), f"{N_GOOD - 1} rows of {len(NAMES)} columns take"),
    (_with(columns=NAMES[:-1]), f"{N_GOOD} rows of {len(NAMES) - 1} columns take"),
    (_with(columns=[*NAMES, "headers.zz"]), f"{N_GOOD} rows of {len(NAMES) + 1} columns take"),
    ((GOOD_HEADER, GOOD_PAYLOAD[:-1]), TAKE + f"got {BYTES - 1}"),
    ((GOOD_HEADER, GOOD_PAYLOAD + b"\0"), TAKE + f"got {BYTES + 1}"),
    ((GOOD_HEADER, b""), TAKE + "got 0"),
    (_with(flow=[None]), FLOW_WANT),
    (_with(flow=[None] * (N_GOOD + 1)), FLOW_WANT),
    (_with(flow="f" * N_GOOD), FLOW_WANT),
    (_with(flow={"0": 1}), FLOW_WANT),
    (_flow_row(3, [1, 2]), FLOW_WANT),
    (_flow_row(0, 1.5), FLOW_WANT),
    (_flow_row(7, True), FLOW_WANT),
    _arrival(4, float("nan")),
    _arrival(7, float("inf")),
    _arrival(2, float("-inf")),
    _arrival(0, -0.5),
    _arrival(6, 2.0**53),
    _arrival(1, 1e300),
]


def test_bad_column_bodies_are_400s_naming_column_and_row():
    """Strict and atomic: every rejection is a 400 that names what is
    wrong — a header key, a column name, the payload length, the first
    offending arrival row — and leaves the counters, the horizon and
    the next accepted batch exactly as they were. The JSON spelling of
    a column batch, which this wire replaced, is one of them."""
    service = SwitchService(program=PROGRAM, engine="vector", config=CONFIG)
    with ServiceThread(service) as thread:
        client = ServiceClient(*thread.address, timeout=10)

        def refused(body, ctype=COLUMNS_CTYPE) -> str:
            with pytest.raises(ServiceClientError) as err:
                client._request("POST", "/ingest", data=body, content_type=ctype)
            assert err.value.status == 400, body
            assert service._feed_horizon == horizon
            return err.value.message

        client.ingest(_good_batch())
        client.wait_settled()
        before = client.status()
        horizon = service._feed_horizon
        assert before["ingested"] == N_GOOD and horizon == (N_GOOD - 1.0, 3)
        for bad, text in BAD_COLUMN_FRAMES:
            assert refused(frame(*bad)).startswith("malformed column batch: " + text)
        assert refused(b'{"rows": 1') == "invalid column frame: no header line"
        assert refused(b"{rows\n").startswith("invalid column frame: header line: ")
        connections = client.metrics()["service"]["connections"]
        for old in (
            b'{"columns": {"arrival": [200.0], "headers": {}}}',
            b'{"packets": [], "columns": {}}',
        ):
            assert COLUMNS_CTYPE in refused(old, "application/json")
        assert client.metrics()["service"]["connections"] == connections
        assert client.status() == before
        assert client.health()["verdict"] == "ok"
        client.ingest(_good_batch(100))
        record = client.drain()["closed_segment"]
        assert record["offered"] == 2 * N_GOOD
        assert client.metrics()["service"]["ingest_batches"]["columns"] == 2
        want = _good_batch().to_packets() + _good_batch(100).to_packets()
        stats, registers = ENGINES["vector"](compile_program(PROGRAM), want, CONFIG)
        assert client.segment_results(0) == render_payload(
            segment_payload(stats, registers)
        )
        client.shutdown()
    assert not thread._thread.is_alive()


def test_column_frames_are_refused_off_the_ingest_route():
    """Like NDJSON: the packed content type on any other route is a
    400 that says so, not a JSON decode error, and keeps the connection."""
    service = SwitchService(program=PROGRAM, engine="vector", config=CONFIG)
    with ServiceThread(service) as thread:
        client = client_of(thread)
        connections = client.metrics()["service"]["connections"]
        body = columns_body(_good_batch())
        for ctype in (COLUMNS_CTYPE, NDJSON_CTYPE):
            with pytest.raises(ServiceClientError) as err:
                client._request("POST", "/replay", data=body, content_type=ctype)
            assert err.value.status == 400
            assert err.value.message == f"{ctype} bodies are only accepted on POST /ingest"
        assert client.metrics()["service"]["connections"] == connections
        client.shutdown()


def test_three_wires_report_three_byte_counts_and_equal_results():
    """The cost side of the wire choice: one trace sent three ways
    closes three identical segments and counts three different body
    sizes — in ``/metrics``, ``/metrics.prom`` and ``repro top``."""
    from repro.obs.export import parse_openmetrics
    from repro.obs.top import TopModel, render_top_frame

    records = clean_records(300)
    service = SwitchService(program=PROGRAM, engine="vector", config=CONFIG)
    assert service.metrics_snapshot()["service"]["ingest_bytes"] == {}
    with ServiceThread(service) as thread:
        client = client_of(thread)
        parts = [records[i : i + 100] for i in range(0, 300, 100)]
        for send in (
            client.ingest,
            client.ingest_ndjson,
            lambda part: client.ingest(clean_columns(part)),
        ):
            for part in parts:
                send(part)
            client.drain()
        sizes = client.metrics()["service"]["ingest_bytes"]
        assert sizes == {
            "records": sum(len(json.dumps({"packets": part})) for part in parts),
            "ndjson": len(parent_ndjson(records)),
            "columns": sum(len(columns_body(clean_columns(part))) for part in parts),
        }
        assert len(set(sizes.values())) == 3
        assert len({client.segment_results(i) for i in range(3)}) == 1
        with pytest.raises(ServiceClientError):
            client.ingest_ndjson([{"arrival": float("nan"), "headers": {}}])
        snap = client.metrics()
        assert snap["service"]["ingest_bytes"] == sizes  # a refused body is not counted
        family = parse_openmetrics(client.metrics_prom())["mp5_service_ingest_bytes"]
        assert family["type"] == "counter"
        assert family["samples"] == [
            ("_total", (("wire", wire),), float(sizes[wire]))
            for wire in ("records", "ndjson", "columns")
        ]
        model = TopModel()
        model.apply_metrics(snap)
        assert (
            "  wire=columns:3/ndjson:3/records:3  bytes="
            + "/".join(f"{wire}:{sizes[wire]}" for wire in sorted(sizes))
            in render_top_frame(model)
        )
        client.shutdown()


def test_409_and_429_on_a_column_batch_leave_no_trace():
    records = clean_records(120)
    a, b, c = (clean_columns(records[i : i + 40]) for i in (0, 40, 80))
    service = SwitchService(
        program=PROGRAM, engine="vector", config=CONFIG, queue_depth=1
    )
    with ServiceThread(service) as thread:
        client = client_of(thread)
        client.pause()  # nothing leaves the queue
        client.ingest(a)
        horizon = service._feed_horizon
        with pytest.raises(ServiceClientError) as err:
            client.ingest(b)  # queue of one is full
        assert err.value.status == 429
        assert service._feed_horizon == horizon
        status = client.status()
        assert status["ingested"] == 0 and status["rejected"] == 40
        client.resume()
        client.wait_settled()
        client.ingest(c)
        client.wait_settled()
        horizon = service._feed_horizon
        with pytest.raises(ServiceClientError) as err:
            client.ingest(b)  # behind the horizon now
        assert err.value.status == 409 and "monotone" in err.value.message
        assert service._feed_horizon == horizon
        assert client.status()["ingested"] == 80
        wires = client.metrics()["service"]["ingest_batches"]
        assert wires == {"columns": 2, "records": 0, "ndjson": 0}
        record = client.drain()["closed_segment"]
        assert record["offered"] == 80
        assert client.segment_results(0) == offline(
            "vector", records[:40] + records[80:]
        )
        client.shutdown()


# ----------------------------------------------------------------------
# The client picks the wire from the batch
# ----------------------------------------------------------------------


def parent_ndjson(records) -> bytes:
    return b"".join(
        json.dumps(r, separators=(",", ":")).encode() + b"\n" for r in records
    )


@pytest.fixture
def captured(monkeypatch):
    """A client whose requests are recorded instead of sent."""
    sent = []
    client = ServiceClient()

    def record(method, path, body=None, data=None, content_type="application/json"):
        sent.append((body, data, content_type))
        return {}

    monkeypatch.setattr(client, "_request", record)
    return client, sent


def test_ingest_records_body_is_the_parents(captured):
    client, sent = captured
    records = clean_records(50)
    client.ingest(records)
    assert sent == [({"packets": records}, None, "application/json")]


def test_replay_trace_sends_clean_chunks_as_columns(captured):
    client, sent = captured
    records = clean_records(100)
    assert client.replay_trace(records, chunk=40) == {
        "sent": 100, "chunks": 3, "retries": 0
    }
    assert [ctype for _, _, ctype in sent] == [COLUMNS_CTYPE] * 3
    for (_, data, _), i in zip(sent, (0, 40, 80)):
        header, payload = unframe(data)
        assert header["rows"] == len(records[i : i + 40])
        assert sorted(header["columns"]) == sorted(NAMES)
        assert len(payload) == 8 * header["rows"] * len(NAMES)
        assert_columns_equal(
            decode_ingest(COLUMNS_CTYPE, data),
            columns_from_records(records[i : i + 40]),
        )


@pytest.mark.parametrize(
    "mutate",
    [
        lambda r: r["headers"].update({FIELDS[0]: "5"}),
        lambda r: r["headers"].update({FIELDS[0]: 5.7}),
        lambda r: r["headers"].update({FIELDS[0]: True}),
        lambda r: r["headers"].pop(FIELDS[0]),
        lambda r: r["headers"].update(extra=9),
        lambda r: r.update(arrival=str(r["arrival"])),
        lambda r: r.update(flow=True),
        lambda r: r.pop("headers"),
        lambda r: r.pop("arrival"),
        lambda r: r.update(arrival=float("nan")),
        lambda r: r.update(port=2**63),
    ],
    ids=[
        "str", "float", "bool", "sparse", "extra", "str_arrival", "bool_flow",
        "no_headers", "no_arrival", "nan", "past_int64",
    ],
)
def test_replay_trace_sends_other_chunks_as_todays_ndjson(mutate, captured):
    """One unclean record makes its chunk — and only its chunk — travel
    as NDJSON, byte for byte what the parent sent."""
    client, sent = captured
    records = clean_records(90)
    mutate(records[47])
    client.replay_trace(records, chunk=30)
    assert [ctype for _, _, ctype in sent] == [COLUMNS_CTYPE, NDJSON_CTYPE, COLUMNS_CTYPE]
    assert sent[1][1] == parent_ndjson(records[30:60])


def test_replay_trace_keeps_todays_diagnostics():
    """What the per-record oracle accepts still lands, and what it
    rejects is still rejected in its words, whichever wire the clean
    chunks around it took."""
    coercible = clean_records(60)
    coercible[20]["headers"][FIELDS[0]] = "5"
    coercible[45]["headers"].pop(FIELDS[1])
    rejected = clean_records(60)
    rejected[45]["arrival"] = float("nan")
    service = SwitchService(program=PROGRAM, engine="vector", config=CONFIG)
    with ServiceThread(service) as thread:
        client = client_of(thread)
        client.replay_trace(coercible, chunk=16)
        assert client.drain()["closed_segment"]["offered"] == 60
        assert client.segment_results(0) == offline("vector", coercible)
        wires = client.metrics()["service"]["ingest_batches"]
        assert wires == {"columns": 2, "ndjson": 2, "records": 0}
        with pytest.raises(ServiceClientError) as via_replay:
            client.replay_trace(rejected, chunk=16)
        client.drain()
        with pytest.raises(ServiceClientError) as via_ndjson:
            client.ingest_ndjson(rejected[32:48])
        assert via_replay.value.status == via_ndjson.value.status == 400
        assert via_replay.value.message == via_ndjson.value.message
        assert "malformed packet record" in via_replay.value.message
        client.shutdown()
