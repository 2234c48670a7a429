"""Per-packet lifecycle trace recorder and its two export formats.

A :class:`TraceRecorder` is attached to a switch with
``MP5Switch.attach_observability(recorder=...)``. The scalar engines
call one emitter method per lifecycle event, which appends one row (a
tuple in the type's field order, see :data:`repro.obs.events.KINDS`);
the vector engine appends whole column blocks per event type from its
epoch schedule (:meth:`TraceRecorder.extend`). Either way the recorder
stores rows, one store per event type, and builds the event dicts once,
in the within-tick order :mod:`repro.obs.events` defines, when
:attr:`TraceRecorder.events` is first read — so every engine's trace of
one run is the same list. When no recorder is attached the engine's hot
paths skip the calls behind a single attribute check, so recording
costs nothing disabled.

Exports:

* **JSONL** (``write_jsonl``/``read_jsonl``) — a header line followed by
  one JSON object per event; the format ``repro trace-summary`` and the
  differential tests consume.
* **Chrome trace_event JSON** (``write_chrome``/``chrome_trace``) — a
  ``traceEvents`` array that loads directly in Perfetto or
  ``chrome://tracing``: one *process* per pipeline, one *thread* (lane)
  per stage, one extra "switch" process for laneless events (remap,
  drop, egress). One tick maps to one microsecond on the timeline.
  Every original record rides along in ``args`` so a Chrome trace can
  be summarized too.
"""

from __future__ import annotations

import json
from itertools import repeat
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from .events import (
    EVENT_DROP,
    EVENT_ECN,
    EVENT_EGRESS,
    EVENT_EMERGENCY_REMAP,
    EVENT_FAULT_END,
    EVENT_FAULT_START,
    EVENT_FIFO_BLOCK,
    EVENT_FIFO_POP,
    EVENT_FIFO_UNBLOCK,
    EVENT_INGRESS,
    EVENT_PHANTOM_EMIT,
    EVENT_PHANTOM_LOSS,
    EVENT_PHANTOM_MATCH,
    EVENT_REMAP,
    EVENT_SERVICE,
    EVENT_STEER,
    KINDS,
    row_order,
)

TRACE_EVENTS_VERSION = 1
JSONL_FORMAT = "mp5-trace-events"
TICK_US = 1.0  # one tick renders as one microsecond in Perfetto

PathLike = Union[str, Path]

_JSONL_CHUNK = 4096  # events per encoder call and write

#: The types with a row store. A row is ``tick``, then the record
#: fields; a ``fifo_pop`` row also carries the length of the blocking
#: episode its pop ends (-1: none), the ``fifo_unblock`` after it.
_STORED = [kind for kind in KINDS if kind != EVENT_FIFO_UNBLOCK]


def _builder(kind: str) -> Callable[[List[Tuple]], List[Dict]]:
    """A function from ``kind``'s rows to its event dicts, generated
    from its schema: a dict display per row builds in about half the
    time of ``dict(zip(names, row))``, and the build is most of what
    reading a trace costs."""
    fields = ("tick",) + KINDS[kind].fields
    names = [f"v{i}" for i in range(len(fields) + (kind == EVENT_FIFO_POP))]
    items = "".join(f", {field!r}: {name}" for field, name in zip(fields, names))
    return eval(
        f"lambda rows: [{{'type': {kind!r}{items}}} for {', '.join(names)} in rows]"
    )


_RECORDS = {kind: _builder(kind) for kind in KINDS}


class TraceRecorder:
    """Collects lifecycle events from one simulation run.

    The emitter methods are the scalar engines' surface; each appends
    one row to its type's store. The recorder also derives the FIFO
    block/unblock *episodes* from the per-tick block signals the engine
    raises, and the queueing ``wait`` of every popped packet from its
    phantom-match (or steer) tick. :meth:`extend` is the vector engine's
    surface: a block of rows as columns, derivations included.
    """

    __slots__ = ("_rows", "_unblocks", "_queued", "_blocked", "_built")

    def __init__(self) -> None:
        # type -> its rows, in append order
        self._rows: Dict[str, List[Tuple]] = {kind: [] for kind in _STORED}
        self._unblocks = 0
        # pkt id -> tick it entered a stage FIFO (match/steer time)
        self._queued: Dict[int, int] = {}
        # (pipe, stage) -> tick the current blocking episode began
        self._blocked: Dict[Tuple[int, int], int] = {}
        # (len(self), events) of the last build
        self._built: Tuple[int, List[Dict]] = (0, [])

    # ------------------------------------------------------------------
    # Engine-facing emitters (one per lifecycle event)
    # ------------------------------------------------------------------

    def ingress(
        self, tick: int, pkt: int, pipe: int, port: int, flow: Optional[int]
    ) -> None:
        self._rows[EVENT_INGRESS].append((tick, pkt, pipe, 0, port, flow))

    def phantom_emit(
        self,
        tick: int,
        pkt: int,
        pipe: int,
        stage: int,
        array: str,
        index: Optional[int],
    ) -> None:
        self._rows[EVENT_PHANTOM_EMIT].append((tick, pkt, pipe, stage, array, index))

    def phantom_loss(
        self, tick: int, pkt: int, pipe: int, stage: int, array: str
    ) -> None:
        self._rows[EVENT_PHANTOM_LOSS].append((tick, pkt, pipe, stage, array))

    def phantom_match(self, tick: int, pkt: int, pipe: int, stage: int) -> None:
        self._queued[pkt] = tick
        self._rows[EVENT_PHANTOM_MATCH].append((tick, pkt, pipe, stage))

    def steer(self, tick: int, pkt: int, src: int, pipe: int, stage: int) -> None:
        # With phantoms disabled the steer push *is* the FIFO entry.
        self._queued.setdefault(pkt, tick)
        self._rows[EVENT_STEER].append((tick, pkt, pipe, stage, src))

    def fifo_block(self, tick: int, pipe: int, stage: int) -> None:
        """The engine raises this every tick a FIFO pop is blocked by a
        phantom head; only the first tick of an episode emits a record."""
        key = (pipe, stage)
        if key in self._blocked:
            return
        self._blocked[key] = tick
        self._rows[EVENT_FIFO_BLOCK].append((tick, pipe, stage))

    def fifo_pop(self, tick: int, pkt: int, pipe: int, stage: int) -> None:
        entered = self._queued.pop(pkt, tick)
        start = self._blocked.pop((pipe, stage), None)
        blocked = -1 if start is None else tick - start
        self._unblocks += start is not None
        self._rows[EVENT_FIFO_POP].append(
            (tick, pkt, pipe, stage, tick - entered, blocked)
        )

    def service(self, tick: int, pkt: int, pipe: int, stage: int) -> None:
        self._rows[EVENT_SERVICE].append((tick, pkt, pipe, stage))

    def ecn_mark(self, tick: int, pkt: int, pipe: int, stage: int) -> None:
        self._rows[EVENT_ECN].append((tick, pkt, pipe, stage))

    def remap(self, tick: int, moves: int) -> None:
        self._rows[EVENT_REMAP].append((tick, moves))

    def egress(self, tick: int, pkt: int, latency: float) -> None:
        self._rows[EVENT_EGRESS].append((tick, pkt, latency))

    def drop(self, tick: int, pkt: int, reason: str) -> None:
        self._rows[EVENT_DROP].append((tick, pkt, reason))

    def fault_start(
        self, tick: int, kind: str, pipe: Optional[int], stage: Optional[int]
    ) -> None:
        self._rows[EVENT_FAULT_START].append((tick, kind, pipe, stage))

    def fault_end(
        self, tick: int, kind: str, pipe: Optional[int], stage: Optional[int]
    ) -> None:
        self._rows[EVENT_FAULT_END].append((tick, kind, pipe, stage))

    def emergency_remap(
        self, tick: int, pipe: int, moved: int, deferred: int, attempt: int
    ) -> None:
        self._rows[EVENT_EMERGENCY_REMAP].append((tick, pipe, moved, deferred, attempt))

    # ------------------------------------------------------------------
    # Column blocks and the built stream
    # ------------------------------------------------------------------

    def extend(self, kind: str, *columns) -> None:
        """Append a block of ``kind`` rows given as columns laid out like
        its stored rows — ``tick``, the record fields, and a
        ``fifo_pop``'s episode length — each an int array, a list, or
        one value for every row; ``tick`` sets the length."""
        rows = list(zip(*(
            column.tolist() if isinstance(column, np.ndarray)
            else column if isinstance(column, list) else repeat(column)
            for column in columns
        )))
        if kind == EVENT_FIFO_POP:
            self._unblocks += sum(row[-1] >= 0 for row in rows)
        self._rows[kind] += rows

    @property
    def events(self) -> List[Dict]:
        """Every recorded event as a dict, in the within-tick order of
        :mod:`repro.obs.events`; built once per recorded length."""
        if self._built[0] != len(self):
            self._built = (len(self), self._build())
        return self._built[1]

    def _build(self) -> List[Dict]:
        parts, records = [], []  # (ticks, phase, seqs) of each run of records
        for kind, rows in self._rows.items():
            if not rows:
                continue
            tick = np.array([row[0] for row in rows], dtype=np.int64)
            order = row_order(kind, tick, rows)
            rows = [rows[i] for i in order.tolist()]
            tick, seq = tick[order], np.arange(0, 2 * len(rows), 2)
            parts.append((tick, KINDS[kind].phase, seq))
            records += _RECORDS[kind](rows)
            if kind == EVENT_FIFO_POP:
                # Each unblock directly after the pop that ends it.
                ended = [i for i, row in enumerate(rows) if row[-1] >= 0]
                parts.append((tick[ended], KINDS[kind].phase, seq[ended] + 1))
                records += _RECORDS[EVENT_FIFO_UNBLOCK]([
                    (at, pipe, stage, blocked)
                    for at, _, pipe, stage, _, blocked in map(rows.__getitem__, ended)
                ])
        if not records:
            return []
        ticks, phases, seqs = zip(*parts)
        merged = np.lexsort((
            np.concatenate(seqs),
            np.repeat(phases, [len(tick) for tick in ticks]),
            np.concatenate(ticks),
        ))
        return [records[i] for i in merged.tolist()]

    def __len__(self) -> int:
        return self._unblocks + sum(map(len, self._rows.values()))


# ---------------------------------------------------------------------------
# JSONL export
# ---------------------------------------------------------------------------


def write_jsonl(
    events: List[Dict], path: PathLike, meta: Optional[Dict] = None
) -> None:
    header = {"format": JSONL_FORMAT, "version": TRACE_EVENTS_VERSION}
    header.update(meta or {})
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for start in range(0, len(events), _JSONL_CHUNK):
            chunk = events[start : start + _JSONL_CHUNK]
            # One encoder call per chunk: the array's item separator is
            # the line break, unless some value holds a "}, {" too.
            body = json.dumps(chunk)[1:-1]
            if body.count("}, {") == len(chunk) - 1:
                fh.write(body.replace("}, {", "}\n{") + "\n")
            else:
                fh.write("".join(json.dumps(e) + "\n" for e in chunk))


def _event(record, where: str) -> Dict:
    """``record`` if it is an event — an object with a string ``type``
    and an int ``tick`` — else a ValueError naming ``where``."""
    if isinstance(record, dict) and isinstance(record.get("type"), str):
        if type(record.get("tick")) is int:
            return record
    raise ValueError(
        f"{where}: not an event (an object with a string 'type' and an int 'tick')"
    )


def read_jsonl(path: PathLike) -> Tuple[Dict, List[Dict]]:
    with open(path) as fh:
        header = json.loads(fh.readline())
        if not isinstance(header, dict) or header.get("format") != JSONL_FORMAT:
            raise ValueError(f"{path}: not an {JSONL_FORMAT} file")
        events = []
        for number, line in enumerate(fh, 2):
            if not line.strip():
                continue
            where = f"line {number}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{where}: {exc}") from None
            events.append(_event(record, where))
    return header, events


# ---------------------------------------------------------------------------
# Chrome trace_event export
# ---------------------------------------------------------------------------

# Process id for events without a (pipeline, stage) lane.
SWITCH_PID = 0


def _lane(event: Dict) -> Tuple[int, int]:
    pipe = event.get("pipe")
    stage = event.get("stage")
    if pipe is None:
        return SWITCH_PID, 0
    return pipe + 1, stage if stage is not None else 0


def chrome_trace(events: List[Dict], meta: Optional[Dict] = None) -> Dict:
    """Render an event stream as a Chrome trace_event document."""
    trace_events: List[Dict] = []
    lanes: Dict[Tuple[int, int], None] = {}
    for event in events:
        pid, tid = _lane(event)
        lanes[(pid, tid)] = None
        record = {
            "name": event["type"],
            "cat": event["type"],
            "pid": pid,
            "tid": tid,
            "args": dict(event),
        }
        if event["type"] == EVENT_SERVICE:
            record.update(ph="X", ts=event["tick"] * TICK_US, dur=TICK_US)
        elif event["type"] == EVENT_FIFO_UNBLOCK:
            # Paint the whole blocking episode as a duration slice.
            blocked = event.get("blocked", 0)
            record.update(
                ph="X",
                ts=(event["tick"] - blocked) * TICK_US,
                dur=max(blocked, 1) * TICK_US,
            )
        else:
            record.update(ph="i", ts=event["tick"] * TICK_US, s="t")
        trace_events.append(record)

    metadata: List[Dict] = []
    for pid in sorted({pid for pid, _tid in lanes}):
        name = "switch" if pid == SWITCH_PID else f"pipeline {pid - 1}"
        metadata.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "args": {"name": name},
            }
        )
        metadata.append(
            {"ph": "M", "name": "process_sort_index", "pid": pid,
             "args": {"sort_index": pid}}
        )
    for pid, tid in sorted(lanes):
        metadata.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": pid,
                "tid": tid,
                "args": {"name": f"stage {tid}"},
            }
        )
        metadata.append(
            {"ph": "M", "name": "thread_sort_index", "pid": pid, "tid": tid,
             "args": {"sort_index": tid}}
        )

    return {
        "traceEvents": metadata + trace_events,
        "displayTimeUnit": "ms",
        "otherData": dict(
            meta or {}, format=JSONL_FORMAT, version=TRACE_EVENTS_VERSION
        ),
    }


def write_chrome(
    events: List[Dict], path: PathLike, meta: Optional[Dict] = None
) -> None:
    Path(path).write_text(json.dumps(chrome_trace(events, meta)))


def events_from_chrome(document: Dict) -> List[Dict]:
    """Recover the original event stream from a Chrome export (every
    record is carried verbatim in ``args``)."""
    records = document.get("traceEvents", [])
    if not isinstance(records, list):
        raise ValueError("traceEvents: not a list")
    events = []
    for i, record in enumerate(records):
        if not isinstance(record, dict):
            raise ValueError(f"traceEvents[{i}]: not an object")
        if record.get("ph") == "M":
            continue
        args = record.get("args")
        if isinstance(args, dict) and "type" in args and "tick" in args:
            events.append(_event(args, f"traceEvents[{i}].args"))
    return events


def load_trace(path: PathLike) -> Tuple[Dict, List[Dict]]:
    """Load a trace file in either format (JSONL or Chrome JSON)."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        first_line = stripped.splitlines()[0].strip()
        try:
            header = json.loads(first_line)
        except json.JSONDecodeError:
            header = None
        if isinstance(header, dict) and header.get("format") == JSONL_FORMAT:
            return read_jsonl(path)
        document = json.loads(text)
        if isinstance(document, dict) and "traceEvents" in document:
            return document.get("otherData", {}), events_from_chrome(document)
    raise ValueError(f"{path}: neither an mp5 JSONL trace nor a Chrome trace")
