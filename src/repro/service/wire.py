"""The ingest wire codec: what bytes mean a batch, in both directions.

``POST /ingest`` speaks three wire formats, and only this module knows
them — pure code, importing nothing of the daemon, the HTTP layer, the
client or asyncio:

========= ======================== =====================================
wire      content type             body
========= ======================== =====================================
records   ``application/json``     ``{"packets": [record, ...]}``
ndjson    ``application/x-ndjson`` one record per line
columns   ``application/json``     ``{"columns": {"arrival": [...],
                                   "headers": {field: [...]}, ...}}``
========= ======================== =====================================

A record is :func:`packet_from_json`'s schema; a column batch is the
same facts already transposed. Whatever carried it, a batch ends as one
:class:`~repro.mp5.packet.PacketColumns` through the same per-column
checks (:func:`_checked_columns`) or is rejected whole with a
:class:`~repro.errors.ServiceError` of status 400 — nothing else leaves
this module, which ``tests/test_wire.py`` holds it to by fuzz.

**Decoding** is two steps because the daemon answers between them:
:func:`parse_ingest` (400 for a body that is not JSON / NDJSON), the
daemon's 409 when no program is loaded, then :meth:`IngestBody.batch`
(400 for a malformed batch). :func:`decode_ingest` is both as one
function; :func:`json_object` parses every other route's body.
**Encoding** is the client's half: :func:`records_body`,
:func:`ndjson_body`, :func:`columns_body`, and :func:`clean_columns`,
which decides with the decoder's own checks whether records may travel
as columns.
"""

from __future__ import annotations

import contextlib
import json
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from ..errors import ServiceError
from ..mp5.packet import DataPacket, PacketColumns

__all__ = [
    "IngestBody",
    "NDJSON_CTYPE",
    "WIRES",
    "clean_columns",
    "columns_body",
    "columns_from_body",
    "columns_from_records",
    "decode_ingest",
    "json_object",
    "ndjson_body",
    "packet_from_json",
    "parse_ingest",
    "records_body",
]

NDJSON_CTYPE = "application/x-ndjson"
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


class _BadColumn(ValueError):
    """A column failed a check both wire shapes share. The record path
    only needs to know that it did (the per-record oracle words the
    rejection); a column body names the first row that fails ``ok``."""

    def __init__(self, column: str, values: List, want: str, ok):
        super().__init__(column)
        self.column, self.values, self.want, self.ok = column, values, want, ok

    def __str__(self) -> str:
        row = next(i for i, v in enumerate(self.values) if not self.ok(v))
        return (
            f"column {self.column!r} row {row}: expected {self.want}, "
            f"got {self.values[row]!r}"
        )


def _arrival_column(values: List) -> np.ndarray:
    """``values`` as the float64 arrival column: JSON numbers, finite,
    ``>= 0`` and below 2**53 (NaN fails both bounds)."""
    if set(map(type, values)) <= _NUMBERS:
        with contextlib.suppress(OverflowError):  # an int past float64
            col = np.array(values, dtype=np.float64)
            if 0 <= col.min() <= col.max() < ARRIVAL_LIMIT:
                return col
    raise _BadColumn(
        "arrival", values, "a number that is finite, >= 0 and below 2**53",
        lambda v: type(v) in _NUMBERS and 0 <= v < ARRIVAL_LIMIT,
    )


def _int64_column(name: str, values: List) -> np.ndarray:
    """``values`` as an int64 column when every one is spelt as a JSON
    integer that fits; any other spelling (``"5"``, ``5.7``, ``true``)
    is a :class:`_BadColumn`."""
    if set(map(type, values)) == {int}:
        with contextlib.suppress(OverflowError):  # an int past int64
            return np.array(values, dtype=np.int64)
    raise _BadColumn(
        name, values, "an integer that fits int64",
        lambda v: type(v) is int and INT64_MIN <= v <= INT64_MAX,
    )


def _checked_columns(
    arrival: List, port: List, size: List, flow: List, headers: Dict[str, List]
) -> PacketColumns:
    """The per-column checks every ingest batch passes, whichever wire
    shape carried it: equal-length value lists in, one validated batch
    out, :class:`_BadColumn` for the first column that fails."""
    if not set(map(type, flow)) <= _FLOWS:
        raise _BadColumn(
            "flow", flow, "null, an integer or a string",
            lambda v: type(v) in _FLOWS,
        )
    return PacketColumns(
        _arrival_column(arrival),
        _int64_column("port", port),
        _int64_column("size", size),
        flow,
        {f: _int64_column(f"headers.{f}", col) for f, col in headers.items()},
    )


def _gather(records: List[Dict]) -> Dict:
    """``records`` transposed into the column body's shape, one list per
    column. Raises whatever the gather raised for records that do not
    all carry the same header keys (or are not records at all)."""
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


def columns_from_records(records: List[Dict]) -> PacketColumns:
    """The record decode entry: ``/ingest`` packet records (the schema
    of :func:`packet_from_json`) → one validated
    :class:`~repro.mp5.packet.PacketColumns` batch.

    Equal, column for column, to gathering ``packet_from_json`` of
    every record — which is what runs whenever the gather or the shared
    column checks decline a batch (a coercible spelling such as ``"5"``
    or ``5.7`` for a header value, sparse header keys, anything
    malformed or out of range), so every rejection carries that
    function's status and message and names the offending record."""
    try:
        return _checked_columns(**_gather(records))
    except _DECLINED:
        return PacketColumns.from_packets(
            [packet_from_json(r, i) for i, r in enumerate(records)]
        )


def clean_columns(records: List[Dict]) -> Optional[Dict]:
    """``records`` as the column body of ``POST /ingest``, or None when
    :func:`columns_from_records` would hand them to the per-record
    oracle — those must travel as records, where a coercible spelling
    is still accepted and a rejection still names the record."""
    try:
        body = _gather(records)
        _checked_columns(**body)
    except _DECLINED:
        return None
    if not any(f is not None for f in body["flow"]):
        del body["flow"]
    return body


def columns_from_body(body: Dict) -> PacketColumns:
    """The column decode entry: the ``"columns"`` object of a
    ``POST /ingest`` body — ``{"arrival": [...], "headers": {field:
    [...]}, "port": [...], "size": [...], "flow": [...]}``, the last
    three optional (0, 64 and null per packet, as in a record) — → one
    validated batch, through the same column checks as records.

    Strict, because there are no records to fall back on: a value not
    spelt with its exact JSON type, an arrival out of range, an integer
    past int64, a column that is not a list or not as long as
    ``arrival``, an unknown column or an empty batch is a 400 naming
    the column and the first offending row."""
    try:
        if type(body) is not dict or type(body.get("headers", {})) is not dict:
            raise ValueError("'columns' and its 'headers' must be objects")
        unknown = set(body) - {"arrival", "port", "size", "flow", "headers"}
        if unknown:
            raise ValueError(f"unknown column {min(unknown)!r}")
        arrival, headers = body["arrival"], body["headers"]
        named = {"arrival": arrival, **body}  # arrival first: it sets the length
        del named["headers"]
        named.update((f"headers.{f}", col) for f, col in headers.items())
        for name, col in named.items():
            if type(col) is not list:
                raise ValueError(
                    f"column {name!r} must be a list, got {type(col).__name__}"
                )
            if len(col) != len(arrival):
                raise ValueError(
                    f"column {name!r} row {min(len(col), len(arrival))}: column "
                    f"has {len(col)} rows, 'arrival' has {len(arrival)}"
                )
        rows = len(arrival)
        if not rows:
            raise ValueError("column 'arrival' has no rows")
        return _checked_columns(
            arrival,
            body.get("port", [0] * rows),
            body.get("size", [64] * rows),
            body.get("flow", [None] * rows),
            headers,
        )
    except KeyError as exc:
        raise ServiceError(f"malformed column batch: no column {exc}") from exc
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
    but an NDJSON ingest)."""
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


class IngestBody(NamedTuple):
    """A ``POST /ingest`` body parsed but not yet validated: ``wire``
    names the format that carried it (the ``ingest_batches`` key) and
    ``payload`` is its record list or its ``"columns"`` object."""

    wire: str
    payload: object

    def batch(self) -> PacketColumns:
        """The validated batch, or the 400 that rejects it whole."""
        try:
            if self.wire == COLUMNS:
                return columns_from_body(self.payload)
            if not isinstance(self.payload, list) or not self.payload:
                raise ServiceError("ingest expects a non-empty packet list")
            return columns_from_records(self.payload)
        except RecursionError as exc:
            # A value that parsed a frame or two short of the recursion
            # limit cannot be quoted (``repr``) in its own rejection.
            raise ServiceError("malformed ingest batch: nested too deeply") from exc


def parse_ingest(ctype: str, body: bytes) -> IngestBody:
    """The framed body of one ``POST /ingest`` → its wire and payload.
    The content type picks NDJSON or a JSON document, and the
    document's key picks records or columns."""
    ndjson = ctype == NDJSON_CTYPE
    if not body:
        payload: Dict = {}
    elif ndjson:
        payload = _parse_ndjson(body)
    else:
        payload = json_object(body)
    if "columns" in payload:
        if "packets" in payload:
            raise ServiceError("ingest takes 'packets' or 'columns', not both")
        return IngestBody(COLUMNS, payload["columns"])
    return IngestBody(NDJSON if ndjson else RECORDS, payload.get("packets", []))


def decode_ingest(ctype: str, body: bytes) -> PacketColumns:
    """Bytes → batch: the whole ingest decode as one pure function. A
    :class:`~repro.mp5.packet.PacketColumns` comes back or a
    :class:`~repro.errors.ServiceError` with status 400 is raised."""
    return parse_ingest(ctype, body).batch()


# ----------------------------------------------------------------------
# Encoding: what the client sends
# ----------------------------------------------------------------------

# One compact encoder for every NDJSON line and column body:
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


def columns_body(columns: Dict) -> bytes:
    """The column wire: ``columns`` (what :func:`clean_columns` builds)
    as one compact JSON document."""
    return _encode_compact({"columns": columns}).encode()
