"""The ingest wire codec, ``repro.service.wire``, as one pure surface.

* **bytes-level fuzz** — whatever the bytes and whatever the content
  type, :func:`decode_ingest` returns a validated ``PacketColumns`` or
  raises ``ServiceError`` with status 400. Any other exception is a 500
  on the served path, and fails the property. The packed column frame
  is fuzzed as bytes: truncations, header mutations, a payload a byte
  off, arrival words no JSON number could spell;
* **wire agreement** — one record list sent by each of the three
  ``ServiceClient`` encoders decodes to column-for-column equal batches
  (or, for an unclean list, to the same rejection);
* **order of answers** — parse error, then "no program loaded", then
  batch validation, then monotonicity / backpressure;
* **layering** — the codec imports nothing from the daemon, the HTTP
  layer, the client or asyncio, the client nothing from the server and
  no HTTP library (``http.client``, ``email``), and no wire name is
  defined outside ``wire.py``.
"""

import ast
import copy
import json
import os
import random
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.service
from repro.errors import ServiceError
from repro.mp5 import PacketColumns
from repro.service import ServiceThread, SwitchService
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.wire import (
    ARRIVAL_LIMIT,
    COLUMNS_CTYPE,
    INT64_MAX,
    INT64_MIN,
    NDJSON_CTYPE,
    WIRES,
    clean_columns,
    columns_body,
    columns_from_records,
    decode_ingest,
    parse_ingest,
)

from .test_ingest_columns import assert_columns_equal, frame, record_batches, unframe

JSON_CTYPE = "application/json"
CTYPES = [
    JSON_CTYPE, NDJSON_CTYPE, COLUMNS_CTYPE, "", "text/plain", "application/octet-stream"
]


class CapturingClient(ServiceClient):
    """A client whose requests are kept, as the bytes and content type
    ``ServiceClient._request`` would put on the socket, not sent."""

    def __init__(self):
        super().__init__()
        self.sent = []

    def _request(self, method, path, body=None, data=None, content_type=JSON_CTYPE):
        assert (method, path) == ("POST", "/ingest")
        self.sent.append(
            (content_type, json.dumps(body).encode() if data is None else data)
        )
        return {}


def client_encodings(records):
    """``{wire: (content type, body)}`` for every way the client sends
    ``records``; the column wire only when ``replay_trace`` picks it."""
    client = CapturingClient()
    client.ingest(records)
    client.ingest_ndjson(records)
    client.replay_trace(records, chunk=len(records))
    out = dict(zip(("records", "ndjson"), client.sent))
    if client.sent[2] != client.sent[1]:
        out["columns"] = client.sent[2]
    return out


def outcome(ctype, body):
    """The batch, or the rejection's text — never anything else."""
    try:
        return decode_ingest(ctype, body)
    except ServiceError as exc:
        assert exc.status == 400
        return str(exc)


# ----------------------------------------------------------------------
# Bytes-level fuzz
# ----------------------------------------------------------------------

_JUNK = st.sampled_from(
    [
        None, True, False, 0, -1, 1.5, -0.0, "5", "x", "", [], [1], [[]], {},
        {"a": 1}, 2**62, 2**63, -(2**63) - 1, 2**70, 10**400, 1e300,
        float("nan"), float("inf"), "arrival", "port", "headers.a", "ports",
    ]
)
# Words for an arrival column that no JSON number could have spelt, or
# that are out of range.
_WORDS = st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), -0.5, -0.0, 2.0**53, 1e300, 5e-324]
)
_DROP = object()

# Bodies no encoder builds: nesting at, near and far past the recursion
# limit, an integer past the int-digits limit, encodings and BOMs.
_HOSTILE = st.one_of(
    st.binary(max_size=120),
    st.builds(
        lambda n, tail: b"[" * n + tail,
        st.sampled_from([1, 50, 900, 1_000, 5_000, 100_000]),
        st.sampled_from([b"", b"1", b"]", b"\n", b"]\n" + b"\0" * 8]),
    ),
    st.sampled_from(
        [
            b'{"packets": ' + b"9" * 5000 + b"}",
            b"9" * 5000 + b"\n",
            '{"packets": []}'.encode("utf-16"),
            b"\xef\xbb\xbf" + b'{"arrival": 1, "headers": {}}\n',
            b'{"packets": [], "columns": {}}',
            b'{"columns": null}',
            b'{"rows": 1, "columns": ["arrival"]}\n',
            b'{"rows": 1, "columns": ["arrival"]}\r\n' + b"\0" * 8,
            b'{"rows": 1, "columns": ["arrival"]}\n\n' + b"\0" * 8,
            b"\xef\xbb\xbf" + b'{"rows": 1, "columns": ["arrival"]}\n' + b"\0" * 8,
            '{"rows": 1, "columns": ["arrival"]}'.encode("utf-16") + b"\n" + b"\0" * 8,
            b'{"rows": 1e0, "columns": ["arrival"]}\n' + b"\0" * 8,
            b'{"rows": ' + b"9" * 5000 + b', "columns": ["arrival"]}\n',
            b"\n",
            b"null",
            b"[]\n{}",
            b"\n \r\n",
        ]
    ),
)


def valid_records(seed: int):
    """A small clean record list, a different one per seed — one draw,
    where a drawn ``record_batches()`` costs hundreds."""
    rng = random.Random(seed)
    keys = rng.sample("abc", rng.randint(0, 3))
    records = []
    for i in range(rng.choice([1, 2, 3, 5])):
        rec = {
            "arrival": rng.choice([i, i + 0.5, float(i)]),
            "headers": {k: rng.choice([0, 7, -3, INT64_MAX, INT64_MIN]) for k in keys},
        }
        if rng.random() < 0.5:
            rec["port"] = rng.randrange(64)
        if rng.random() < 0.5:
            rec["size"] = rng.randrange(64, 1500)
        if rng.random() < 0.5:
            rec["flow"] = rng.choice([None, 3, "f"])
        records.append(rec)
    return records


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield from _paths(value, prefix + (key,))


def _mutated(doc, path, value):
    """``doc`` with the node at ``path`` replaced (or dropped)."""
    if not path:
        return None if value is _DROP else value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is _DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


@st.composite
def fuzz_cases(draw):
    kind = draw(st.sampled_from(["hostile", "valid", "truncated", "mutated"]))
    if kind == "hostile":
        return draw(st.sampled_from(CTYPES)), draw(_HOSTILE)
    encodings = client_encodings(valid_records(draw(st.integers(0, 10**6))))
    ctype, body = encodings[draw(st.sampled_from(WIRES))]
    if kind == "truncated":
        body = body[: draw(st.integers(0, len(body)))]
    elif kind == "mutated" and ctype == COLUMNS_CTYPE:
        header, payload = unframe(body)
        how = draw(st.sampled_from(["header", "short", "long", "word"]))
        if how == "header":
            path = draw(st.sampled_from(list(_paths(header))))
            header = _mutated(header, path, draw(st.one_of(_JUNK, st.just(_DROP))))
        elif how == "short":
            payload = payload[:-1]
        elif how == "long":
            payload += b"\0"
        else:  # one word of the first column, which is ``arrival``
            at = 8 * draw(st.integers(0, header["rows"] - 1))
            payload = payload[:at] + struct.pack("<d", draw(_WORDS)) + payload[at + 8 :]
        body = frame(header, payload, offset=draw(st.integers(0, 7)))
    elif kind == "mutated":
        lines = body.split(b"\n") if ctype == NDJSON_CTYPE else [body]
        at = draw(st.integers(0, len(lines) - 1))
        if lines[at]:
            doc = json.loads(lines[at])
            path = draw(st.sampled_from(list(_paths(doc))))
            value = draw(st.one_of(_JUNK, st.just(_DROP)))
            lines[at] = json.dumps(_mutated(doc, path, value)).encode()
        body = b"\n".join(lines)
    if draw(st.integers(0, 3)) == 0:  # the right bytes, any content type
        ctype = draw(st.sampled_from(CTYPES))
    return ctype, body


@settings(
    max_examples=500,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=fuzz_cases())
def test_any_bytes_decode_to_a_batch_or_a_400(case):
    ctype, body = case
    got = outcome(ctype, body)
    if isinstance(got, str):
        assert got
        return
    # A batch the daemon can queue as is: typed, in range, spannable.
    assert isinstance(got, PacketColumns) and len(got) > 0
    assert len(got.port) == len(got.size) == len(got)
    assert got.arrival.dtype == np.float64
    assert got.port.dtype == got.size.dtype == np.int64
    assert {col.dtype for col in got.headers.values()} <= {np.dtype(np.int64)}
    assert {len(col) for col in got.headers.values()} <= {len(got)}
    assert len(got.flow) == len(got)
    (lo, _), (hi, _) = got.span()
    assert 0 <= lo <= hi < ARRIVAL_LIMIT


@pytest.mark.parametrize("seed", range(6))
def test_every_truncation_of_a_frame_is_a_400(seed):
    """No prefix of a frame is a frame: a cut inside the header line
    leaves no header, a cut inside the payload the wrong length —
    ``rows`` words per column is checked before a byte is read."""
    batch = clean_columns(valid_records(seed))
    body = columns_body(batch)
    assert_columns_equal(outcome(COLUMNS_CTYPE, body), batch)
    for cut in range(len(body)):
        got = outcome(COLUMNS_CTYPE, body[:cut])
        assert isinstance(got, str), cut
        assert got.startswith(("invalid column frame: ", "malformed column batch: "))


def test_a_frame_claiming_2_to_the_62_rows_allocates_nothing(monkeypatch):
    """The payload length is compared with what the header claims
    before any column, default or flow list is built."""
    def boom(*args, **kwargs):
        raise AssertionError("allocated for a frame that cannot be right")

    for name in ("frombuffer", "zeros", "full"):
        monkeypatch.setattr(np, name, boom)
    for header in (
        {"rows": 2**62, "columns": ["arrival"]},
        {"rows": 2**62, "columns": ["arrival", "headers.a"], "flow": [None]},
        {"rows": 2**31, "columns": ["arrival"]},
    ):
        got = outcome(COLUMNS_CTYPE, frame(header, b"\0" * 64))
        assert got.startswith(f"malformed column batch: {header['rows']} rows of")


@pytest.mark.parametrize(
    "template, ctype",
    [
        (b'{"packets": [%s]}', JSON_CTYPE),
        (b'{"packets": [{"arrival": 1, "headers": {"a": %s}}]}', JSON_CTYPE),
        (b'{"arrival": 1, "headers": {"a": %s}}\n', NDJSON_CTYPE),
        (b'{"arrival": 1, "flow": %s, "headers": {}}\n', NDJSON_CTYPE),
        (b'{"rows": 1, "columns": ["arrival", %s]}\n' + b"\0" * 16, COLUMNS_CTYPE),
        (
            b'{"rows": 1, "columns": ["arrival"], "flow": [%s]}\n' + b"\0" * 8,
            COLUMNS_CTYPE,
        ),
    ],
    ids=["record", "header", "ndjson_header", "ndjson_flow", "column", "flow_column"],
)
def test_nesting_around_the_recursion_limit_is_a_400(template, ctype):
    """A value can parse a frame short of the limit and then fail to be
    quoted in its own rejection, a few frames deeper: every depth near
    the limit is a 400, whichever side of it the parse fell."""
    limit = sys.getrecursionlimit()
    rejections = set()
    for depth in range(limit - 120, limit + 2):
        got = outcome(ctype, template % (b"[" * depth + b"]" * depth))
        assert isinstance(got, str)
        rejections.add(got[:20])
    assert len(rejections) > 1  # the scan crossed the limit


# ----------------------------------------------------------------------
# Wire agreement
# ----------------------------------------------------------------------


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(records=record_batches())
def test_three_client_encodings_decode_to_one_batch(records):
    """Clean lists travel all three ways and land column for column
    equal — the packed frame on exactly what ``columns_from_records``
    makes of the records. An unclean list has no column form, and its
    two record forms are accepted alike or rejected alike — in the same
    words when every line is a record (a line that is no object at all
    is refused by the NDJSON parse, before the per-record oracle sees
    it)."""
    encodings = client_encodings(records)
    assert ("columns" in encodings) == (clean_columns(records) is not None)
    decoded = {wire: outcome(*sent) for wire, sent in encodings.items()}
    want = decoded.pop("records")
    if "columns" in encodings:
        assert encodings["columns"][0] == COLUMNS_CTYPE
        assert encodings["columns"][1] == columns_body(clean_columns(records))
        assert_columns_equal(want, columns_from_records(records))
    for wire, got in decoded.items():
        if isinstance(want, PacketColumns):
            assert parse_ingest(*encodings[wire]).wire == wire and wire in WIRES
            assert_columns_equal(got, want)
        elif all(type(r) is dict for r in records):
            assert got == want
        else:
            assert isinstance(got, str)


# ----------------------------------------------------------------------
# Order of answers on POST /ingest
# ----------------------------------------------------------------------


def test_ingest_answers_parse_then_program_then_batch_then_queue():
    good = {"arrival": 5, "port": 1, "headers": {"sport": 1, "dport": 2}}
    bad = dict(good, arrival=float("nan"))
    service = SwitchService(queue_depth=1)  # no program yet
    with ServiceThread(service) as thread:
        client = ServiceClient(*thread.address, timeout=10)

        def post(body: bytes, ctype: str = JSON_CTYPE):
            try:
                client._request("POST", "/ingest", data=body, content_type=ctype)
            except ServiceClientError as exc:
                return exc.status, exc.message
            return 200, ""

        def records(*recs):
            return json.dumps({"packets": list(recs)}).encode()

        def packed(rec):
            names = ["arrival", "port", *(f"headers.{f}" for f in rec["headers"])]
            values = rec["arrival"], rec["port"], *rec["headers"].values()
            return frame({"rows": 1, "columns": names}, struct.pack("<d3q", *values))

        # 1. A body that does not parse is a 400 with or without a program.
        status, text = post(b"{not json")
        assert status == 400 and text.startswith("invalid JSON body")
        assert post(b"[1]") == (400, "request body must be a JSON object")
        assert post(b"{}\nnope\n", NDJSON_CTYPE)[1].startswith(
            "invalid NDJSON body: line 2"
        )
        for old_wire in (
            b'{"columns": {"arrival": [5], "headers": {}}}',
            b'{"packets": [], "columns": 7}',
        ):
            status, text = post(old_wire)
            assert status == 400 and COLUMNS_CTYPE in text
        status, text = post(b'{"rows": 1, "columns": ["arrival"]}', COLUMNS_CTYPE)
        assert (status, text) == (400, "invalid column frame: no header line")
        status, text = post(b"{rows\n" + b"\0" * 8, COLUMNS_CTYPE)
        assert status == 400 and text.startswith("invalid column frame: header line: ")
        # 2. Anything that parses meets "no program loaded" before its
        #    batch is looked at.
        for body, ctype in (
            (records(good), JSON_CTYPE),
            (records(bad), JSON_CTYPE),
            (b"", JSON_CTYPE),
            (b"", NDJSON_CTYPE),
            (json.dumps(bad).encode() + b"\n", NDJSON_CTYPE),
            (packed(good), COLUMNS_CTYPE),
            (packed(bad), COLUMNS_CTYPE),
            (b"7\n", COLUMNS_CTYPE),
        ):
            assert post(body, ctype) == (409, "no program loaded")
        client.load_program("heavy_hitter")
        # 3. Then batch validation.
        assert post(b"") == (400, "ingest expects a non-empty packet list")
        assert post(b'{"packets": {}}')[1] == "ingest expects a non-empty packet list"
        assert post(records(good, bad))[1].startswith("malformed packet record")
        assert post(b"7\n", COLUMNS_CTYPE)[1].startswith("malformed column batch: header")
        assert post(packed(bad), COLUMNS_CTYPE)[1].startswith(
            "malformed column batch: column 'arrival' row 0"
        )
        # 4. Then monotonicity and backpressure — a malformed batch is a
        #    400 even where a good one would be a 409 or a 429.
        client.pause()
        assert post(records(good))[0] == 200
        assert post(records(dict(good, arrival=9)))[0] == 429
        assert post(records(dict(good, arrival=1)))[0] == 409
        assert post(packed(dict(good, arrival=9)), COLUMNS_CTYPE)[0] == 429
        assert post(packed(dict(good, arrival=1)), COLUMNS_CTYPE)[0] == 409
        assert post(records(bad))[0] == 400
        assert post(packed(bad), COLUMNS_CTYPE)[0] == 400
        counts = client.metrics()["service"]["ingest_batches"]
        assert counts == {"records": 1, "ndjson": 0, "columns": 0}
        client.shutdown()


# ----------------------------------------------------------------------
# Layering
# ----------------------------------------------------------------------

SERVICE_DIR = Path(repro.service.__file__).parent
WIRE_NAMES = {
    "ARRIVAL_LIMIT", "INT64_MIN", "INT64_MAX", "NDJSON_CTYPE", "packet_from_json",
    "COLUMNS_CTYPE", "INGEST_ONLY_CTYPES", "_in_range", "_int64_column",
    "_checked_columns",
    "_gather", "columns_from_records", "_columns_from_frame", "clean_columns",
    "_parse_ndjson", "_parse_frame", "_scan_record", "_BAD_JSON", "_encode_compact",
    "records_body", "ndjson_body", "columns_body", "parse_ingest",
}


def _imports(module: str, *forbidden: str):
    """Which of the ``forbidden`` modules ``module``.py imports
    (relative ones spelt as written: ``.daemon``)."""
    found = set()
    for node in ast.walk(ast.parse((SERVICE_DIR / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            found.add(base)
            if node.module is None:  # ``from . import daemon``
                found.update(base + alias.name for alias in node.names)
    return {
        name
        for name in found
        for bad in forbidden
        if name == bad or name.startswith(bad + ".")
    }


def _defined(module: str):
    """Every name ``module``.py binds with def, class or assignment."""
    found = set()
    for node in ast.walk(ast.parse((SERVICE_DIR / f"{module}.py").read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            found.add(node.id)
    return found


def test_the_wire_has_one_owner():
    assert not _imports("wire", ".daemon", ".http", ".client", "asyncio")
    assert not _imports("client", ".daemon", ".http")
    assert _imports("http", ".wire") and _imports("client", ".wire")
    assert WIRE_NAMES <= _defined("wire")
    for module in ("daemon", "http", "client"):
        assert not WIRE_NAMES & _defined(module), module


def test_the_client_loads_no_http_library():
    """The client frames HTTP/1.1 itself: a fresh interpreter that
    imports it has neither ``http.client`` nor the ``email`` package
    that parses its headers, so no second transport creeps back."""
    probe = (
        "import sys, repro.service.client; "
        "print(sorted(m for m in sys.modules "
        "if m == 'http.client' or m.partition('.')[0] == 'email'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(SERVICE_DIR.parents[1])),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "[]"
