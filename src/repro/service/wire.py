"""The ingest wire codec: what bytes mean a batch, in both directions.

``POST /ingest`` speaks three wire formats, and only this module knows
them — pure code, importing nothing of the daemon, the HTTP layer, the
client or asyncio:

========= =============================== ==============================
wire      content type                    body
========= =============================== ==============================
records   ``application/json``            ``{"packets": [record, ...]}``
ndjson    ``application/x-ndjson``        one record per line
columns   ``application/vnd.mp5.columns`` a packed frame: one JSON header
                                          line, then 8-byte words
========= =============================== ==============================

A record is :func:`packet_from_json`'s schema. A column frame is the
same facts transposed and packed: the header line ``{"rows": n,
"columns": ["arrival", "port", "size", "headers.<field>", ...],
"flow"?: [...]}``, a newline, then each named column's ``rows`` values
back to back, little-endian — float64 for ``arrival``, int64 for the
rest (``port``, ``size`` and ``flow`` may be left out: 0, 64 and null
per packet, as in a record). Whatever carried it, a batch ends as one
validated :class:`~repro.mp5.packet.PacketColumns` or is rejected whole
with a :class:`~repro.errors.ServiceError` of status 400 — nothing else
leaves this module, which ``tests/test_wire.py`` holds it to by fuzz.
A frame's columns are ``np.frombuffer`` views of the request body:
read-only, at whatever byte offset the header line left them.

**Decoding** is two steps because the daemon answers between them:
:func:`parse_ingest` (400 for a body that is not JSON / NDJSON / a
header line and a payload), the daemon's 409 when no program is loaded,
then :meth:`IngestBody.batch` (400 for a malformed batch).
:func:`decode_ingest` is both as one function; :func:`json_object`
parses every other route's body. **Encoding** is the client's half:
:func:`records_body`, :func:`ndjson_body`, :func:`columns_body`, and
:func:`clean_columns`, which decides with the record decoder's own
checks whether records may travel as columns.
"""

from __future__ import annotations

import json
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..errors import ServiceError
from ..mp5.packet import DataPacket, PacketColumns

__all__ = [
    "COLUMNS_CTYPE",
    "INGEST_ONLY_CTYPES",
    "IngestBody",
    "NDJSON_CTYPE",
    "WIRES",
    "clean_columns",
    "columns_body",
    "columns_from_records",
    "decode_ingest",
    "json_object",
    "ndjson_body",
    "packet_from_json",
    "parse_ingest",
    "records_body",
]

NDJSON_CTYPE = "application/x-ndjson"
COLUMNS_CTYPE = "application/vnd.mp5.columns"
#: The content types that mean something on ``POST /ingest`` alone.
INGEST_ONLY_CTYPES = (NDJSON_CTYPE, COLUMNS_CTYPE)
#: The wire names, as :attr:`IngestBody.wire` and ``ingest_batches`` spell them.
WIRES = RECORDS, NDJSON, COLUMNS = ("records", "ndjson", "columns")

#: Arrivals are float64 ticks: past 2**53 consecutive ticks collide.
ARRIVAL_LIMIT = 2**53
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


# ----------------------------------------------------------------------
# Validation: records and columns → one checked batch
# ----------------------------------------------------------------------


def packet_from_json(record: Dict, idx: int = 0) -> DataPacket:
    """One ``/ingest`` packet record → :class:`DataPacket`.

    Schema: ``{"arrival": float, "port": int, "headers": {str: int},
    "size": int = 64, "flow": optional int or str}``. Ids are assigned
    by the engine in arrival order, so the record carries none. The
    arrival must be finite, ``>= 0`` and below 2**53; ``port``, ``size``
    and header values must fit int64 (the engines' column type).

    This is the per-record oracle of :func:`columns_from_records`: the
    daemon calls it only for a batch the vectorised checks turned down,
    so its diagnostics are the ingest route's diagnostics."""
    try:
        arrival = float(record["arrival"])
        port = int(record.get("port", 0))
        size = int(record.get("size", 64))
        headers = {str(k): int(v) for k, v in record["headers"].items()}
        flow = record.get("flow")
        if not 0 <= arrival < ARRIVAL_LIMIT:  # NaN fails both bounds
            raise ValueError(
                f"arrival {arrival} must be finite, >= 0 and below 2**53"
            )
        lo = min(port, size, *headers.values())
        hi = max(port, size, *headers.values())
        if lo < INT64_MIN or hi > INT64_MAX:
            raise ValueError(
                "port, size and header values must fit int64, "
                f"{lo if lo < INT64_MIN else hi} does not"
            )
        if flow is not None and not isinstance(flow, (int, str)):
            raise TypeError(
                "flow must be null, an integer or a string, not "
                + type(flow).__name__
            )
        return DataPacket(idx, arrival, port, headers, size, flow)
    except (
        KeyError, TypeError, ValueError, AttributeError, OverflowError
    ) as exc:
        raise ServiceError(f"malformed packet record {record!r}: {exc}") from exc


_NUMBERS = {int, float}
_FLOWS = {type(None), int, str}
# What a batch that does not transpose cleanly raises on the way.
_DECLINED = (
    KeyError, TypeError, ValueError, AttributeError, OverflowError, IndexError
)


def _in_range(arrival: np.ndarray) -> bool:
    """Every arrival finite, ``>= 0`` and below 2**53 (NaN fails both
    bounds)."""
    return bool(0 <= arrival.min() <= arrival.max() < ARRIVAL_LIMIT)


def _int64_column(values: List) -> np.ndarray:
    """``values`` as an int64 column when every one is spelt as a JSON
    integer that fits; any other spelling (``"5"``, ``5.7``, ``true``)
    is declined."""
    if set(map(type, values)) != {int}:
        raise TypeError("not spelt as JSON integers")
    return np.array(values, dtype=np.int64)  # OverflowError past int64


def _checked_columns(
    arrival: List, port: List, size: List, flow: List, headers: Dict[str, List]
) -> PacketColumns:
    """The per-column checks that let a record batch skip the per-record
    oracle: equal-length value lists in, one validated batch out, one of
    ``_DECLINED`` for the first column that fails."""
    if not (set(map(type, arrival)) <= _NUMBERS and set(map(type, flow)) <= _FLOWS):
        raise TypeError("arrival or flow not spelt with its JSON type")
    ticks = np.array(arrival, dtype=np.float64)  # OverflowError past float64
    if not _in_range(ticks):
        raise ValueError("arrival out of range")
    return PacketColumns(
        ticks,
        _int64_column(port),
        _int64_column(size),
        flow,
        {f: _int64_column(col) for f, col in headers.items()},
    )


def _gather(records: List[Dict]) -> Dict:
    """``records`` transposed, one list per column. Raises whatever the
    gather raised for records that do not all carry the same header
    keys (or are not records at all)."""
    hdrs = [r["headers"] for r in records]
    fields = tuple(hdrs[0])
    if not (
        set(map(type, hdrs)) == {dict}
        and set(map(type, fields)) <= {str}
        and set(map(len, hdrs)) == {len(fields)}
    ):
        raise ValueError("headers differ from record to record")
    return {
        "arrival": [r["arrival"] for r in records],
        "port": [r.get("port", 0) for r in records],
        "size": [r.get("size", 64) for r in records],
        "flow": [r.get("flow") for r in records],
        "headers": {f: [h[f] for h in hdrs] for f in fields},
    }


def clean_columns(records: List[Dict]) -> Optional[PacketColumns]:
    """``records`` as the validated batch the column wire carries
    (:func:`columns_body` packs it), or None when
    :func:`columns_from_records` would hand them to the per-record
    oracle — those must travel as records, where a coercible spelling
    is still accepted and a rejection still names the record."""
    try:
        return _checked_columns(**_gather(records))
    except _DECLINED:
        return None


def columns_from_records(records: List[Dict]) -> PacketColumns:
    """The record decode entry: ``/ingest`` packet records (the schema
    of :func:`packet_from_json`) → one validated
    :class:`~repro.mp5.packet.PacketColumns` batch.

    Equal, column for column, to gathering ``packet_from_json`` of
    every record — which is what runs whenever the gather or the
    column checks decline a batch (a coercible spelling such as ``"5"``
    or ``5.7`` for a header value, sparse header keys, anything
    malformed or out of range), so every rejection carries that
    function's status and message and names the offending record."""
    batch = clean_columns(records)
    if batch is None:
        batch = PacketColumns.from_packets(
            [packet_from_json(r, i) for i, r in enumerate(records)]
        )
    return batch


def _columns_from_frame(header: object, payload: memoryview) -> PacketColumns:
    """The column decode entry: a packed frame's header line (parsed)
    and payload → one validated batch whose columns are read-only
    ``np.frombuffer`` views of the payload, wherever it starts.

    Strict — there are no records to fall back on — and the dtype does
    the per-value work: what is left to refuse is a header that is not
    ``{"rows", "columns", "flow"?}``, an unknown or repeated column
    name, a payload that is not exactly ``rows`` 8-byte words per
    column (compared before anything is allocated), an arrival out of
    range (naming the first offending row) and a bad ``flow``."""
    try:
        if type(header) is not dict or not header.keys() <= {"rows", "columns", "flow"}:
            raise ValueError("header must be an object of 'rows', 'columns' and 'flow'")
        rows, names, flow = (header.get(key) for key in ("rows", "columns", "flow"))
        if type(rows) is not int or rows < 1:
            raise ValueError(f"'rows' must be a positive integer, got {rows!r}")
        if type(names) is not list:
            raise ValueError("'columns' must be a list of column names")
        seen = set()
        for name in names:
            if type(name) is not str or not (
                name in ("arrival", "port", "size") or name.startswith("headers.")
            ):
                raise ValueError(f"unknown column {name!r}")
            if name in seen:
                raise ValueError(f"duplicate column {name!r}")
            seen.add(name)
        if "arrival" not in seen:
            raise ValueError("no column 'arrival'")
        want = rows * 8 * len(names)
        if len(payload) != want:
            raise ValueError(
                f"{rows} rows of {len(names)} columns take {want} payload "
                f"bytes, got {len(payload)}"
            )
        if flow is None:
            flow = [None] * rows
        elif not (
            type(flow) is list and len(flow) == rows and set(map(type, flow)) <= _FLOWS
        ):
            raise ValueError(
                f"'flow' must be {rows} values, each null, an integer or a string"
            )
        cols = {
            name: np.frombuffer(
                payload, "<f8" if name == "arrival" else "<i8", rows, i * rows * 8
            )
            for i, name in enumerate(names)
        }
        arrival = cols.pop("arrival")
        if not _in_range(arrival):
            row = int(np.argmin((arrival >= 0) & (arrival < ARRIVAL_LIMIT)))
            raise ValueError(
                f"column 'arrival' row {row}: expected a number that is finite, "
                f">= 0 and below 2**53, got {float(arrival[row])!r}"
            )
        port, size = cols.pop("port", None), cols.pop("size", None)
        return PacketColumns(
            arrival,
            np.zeros(rows, np.int64) if port is None else port,
            np.full(rows, 64, np.int64) if size is None else size,
            flow,
            {name[len("headers.") :]: col for name, col in cols.items()},
        )
    except ValueError as exc:
        raise ServiceError(f"malformed column batch: {exc}") from exc


# ----------------------------------------------------------------------
# Decoding: bytes → payload → batch
# ----------------------------------------------------------------------

# One record per line: the C scanner ``json.loads`` itself runs, minus
# its per-call whitespace matching and decoder dispatch.
_scan_record = json.JSONDecoder().scan_once
_ASCII_SPACE = " \t\n\r\x0b\x0c"  # what ``bytes.strip`` strips
#: Everything a JSON parse of untrusted bytes raises: ``ValueError``
#: covers ``JSONDecodeError``, ``UnicodeDecodeError`` and the plain
#: ``ValueError`` of an integer past ``sys.get_int_max_str_digits()``;
#: nesting past the recursion limit is a ``RecursionError``.
_BAD_JSON = (ValueError, RecursionError)


def json_object(body: bytes) -> Dict:
    """A JSON request body → the object it spells (every route's body
    but an NDJSON or column-frame ingest)."""
    try:
        payload = json.loads(body)
    except _BAD_JSON as exc:
        raise ServiceError(f"invalid JSON body: {exc}") from exc
    if type(payload) is not dict:
        raise ServiceError("request body must be a JSON object")
    return payload


def _parse_ndjson(body: bytes) -> Dict:
    """NDJSON ingest body → the same payload shape the JSON route
    builds: one packet record per non-blank line, diagnostics carry the
    1-based line number so a client can fix the exact frame. Lines are
    validated one by one — two broken lines can join into valid JSON,
    so the body is never parsed as one document."""
    try:
        text = body.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ServiceError(f"invalid NDJSON body: {exc}") from exc
    records = []
    append = records.append
    for ln, line in enumerate(text.split("\n"), start=1):
        try:
            record, end = _scan_record(line, 0)
        except (StopIteration, *_BAD_JSON):
            end = -1
        if end != len(line):
            # Blank, padded or broken: the strict parse decides, and
            # words the diagnostic.
            if not line.strip(_ASCII_SPACE):
                continue
            try:
                record = json.loads(line)
            except _BAD_JSON as exc:
                raise ServiceError(
                    f"invalid NDJSON body: line {ln}: {exc}"
                ) from exc
        if type(record) is not dict:
            raise ServiceError(
                f"invalid NDJSON body: line {ln}: expected a packet "
                f"object, got {type(record).__name__}"
            )
        append(record)
    if not records:
        raise ServiceError("invalid NDJSON body: no packet records")
    return {"packets": records}


def _parse_frame(body: bytes) -> Tuple[object, memoryview]:
    """A packed column frame → its header line, parsed (any JSON value:
    :meth:`IngestBody.batch` judges it), and a view of the words after
    it — no byte of the payload is copied or looked at here."""
    end = body.find(b"\n")
    if end < 0:
        raise ServiceError("invalid column frame: no header line")
    try:
        header = json.loads(body[:end])
    except _BAD_JSON as exc:
        raise ServiceError(f"invalid column frame: header line: {exc}") from exc
    return header, memoryview(body)[end + 1 :]


class IngestBody(NamedTuple):
    """A ``POST /ingest`` body parsed but not yet validated: ``wire``
    names the format that carried it (the ``ingest_batches`` key),
    ``payload`` is its record list or its column frame's ``(header,
    words)`` and ``nbytes`` is the length of the framed body."""

    wire: str
    payload: object
    nbytes: int

    def batch(self) -> PacketColumns:
        """The validated batch, or the 400 that rejects it whole."""
        try:
            if self.wire == COLUMNS:
                return _columns_from_frame(*self.payload)
            if not isinstance(self.payload, list) or not self.payload:
                raise ServiceError("ingest expects a non-empty packet list")
            return columns_from_records(self.payload)
        except RecursionError as exc:
            # A value that parsed a frame or two short of the recursion
            # limit cannot be quoted (``repr``) in its own rejection.
            raise ServiceError("malformed ingest batch: nested too deeply") from exc


def parse_ingest(ctype: str, body: bytes) -> IngestBody:
    """The framed body of one ``POST /ingest`` → its wire and payload.
    The content type alone picks the wire: a column frame, NDJSON, or
    (anything else) a JSON document of records."""
    if ctype == COLUMNS_CTYPE:
        return IngestBody(COLUMNS, _parse_frame(body), len(body))
    ndjson = ctype == NDJSON_CTYPE
    if not body:
        payload: Dict = {}
    elif ndjson:
        payload = _parse_ndjson(body)
    else:
        payload = json_object(body)
        if "columns" in payload:
            raise ServiceError(
                "a JSON ingest body carries 'packets'; column batches "
                f"travel as packed frames, Content-Type: {COLUMNS_CTYPE}"
            )
    wire = NDJSON if ndjson else RECORDS
    return IngestBody(wire, payload.get("packets", []), len(body))


def decode_ingest(ctype: str, body: bytes) -> PacketColumns:
    """Bytes → batch: the whole ingest decode as one pure function. A
    :class:`~repro.mp5.packet.PacketColumns` comes back or a
    :class:`~repro.errors.ServiceError` with status 400 is raised."""
    return parse_ingest(ctype, body).batch()


# ----------------------------------------------------------------------
# Encoding: what the client sends
# ----------------------------------------------------------------------

# One compact encoder for every NDJSON line and column header:
# ``json.dumps`` with non-default separators would construct one per call.
_encode_compact = json.JSONEncoder(separators=(",", ":")).encode


def records_body(records: List[Dict]) -> Dict:
    """The records wire: a JSON document, serialised the way every
    control body is (``json.dumps``, default separators)."""
    return {"packets": records}


def ndjson_body(records: List[Dict]) -> bytes:
    """The NDJSON wire (:data:`NDJSON_CTYPE`): one compact record per
    line, each line newline-terminated, no enclosing array."""
    return "\n".join([*map(_encode_compact, records), ""]).encode()


def columns_body(batch: PacketColumns) -> bytes:
    """The column wire (:data:`COLUMNS_CTYPE`): ``batch`` (what
    :func:`clean_columns` builds) as one packed frame — the header
    line, then each column's words, little-endian on any host."""
    header = {
        "rows": len(batch),
        "columns": ["arrival", "port", "size", *(f"headers.{f}" for f in batch.headers)],
    }
    if any(f is not None for f in batch.flow):
        header["flow"] = batch.flow
    return b"".join(
        [
            _encode_compact(header).encode(),
            b"\n",
            batch.arrival.astype("<f8", copy=False).tobytes(),
            *(
                col.astype("<i8", copy=False).tobytes()
                for col in (batch.port, batch.size, *batch.headers.values())
            ),
        ]
    )
