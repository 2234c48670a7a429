"""Packet-lifecycle event schema for the MP5 observability layer.

Every event is a plain dict with at least ``type`` and ``tick``; packet
events carry ``pkt`` and the (pipeline, stage) lane they happened in.
Keeping records as dicts (instead of classes) makes JSONL export a
``json.dumps`` per line and lets the Chrome exporter round-trip them
losslessly through the ``args`` field.

Event types
-----------

========== ============================================================
type        meaning
========== ============================================================
ingress     packet entered the switch at a pipeline front (stage 0)
phantom_emit   a phantom was generated toward (pipe, stage) for an array
phantom_match  a data packet replaced its phantom in the stage FIFO
phantom_loss   fault injection lost the phantom in flight (§3.5.1)
steer       movement into a stateful stage (src pipeline recorded;
            src != pipe is a crossbar crossing)
fifo_block  a stage FIFO began a head-of-line blocking episode (a
            phantom at the logical head stalls every queued packet)
fifo_pop    a data packet won the pop; ``wait`` = ticks spent queued
fifo_unblock  the blocking episode ended; ``blocked`` = its length
service     a stage executed its atom for the packet
ecn         the packet was ECN-marked at a congested queue (§3.4)
remap       the background sharding remap ran; ``moves`` arrays changed
egress      the packet left the last stage; ``latency`` in ticks
drop        the packet was dropped; ``reason`` as in SwitchStats
fault_start a fault window opened (:mod:`repro.faults`); ``kind`` plus
            the targeted pipe/stage (null = switch-wide)
fault_end   the fault window closed
emergency_remap  the degradation protocol remapped a failed pipeline's
            indices; ``moved``/``deferred`` counts and the ``attempt``
            number of the drain/retry protocol
========== ============================================================

:data:`KINDS` is each type's schema — its record fields and its place in
the tick — and so the one within-tick order every engine's trace is
written in: by ``tick``, then by the type's ``phase`` (the scalar
engines' step order: fault windows and emergency remaps at the tick
boundary, then injection, movement, pops, service and the background
remap), then by the type's ``key`` fields. Each ``fifo_unblock`` sits
directly after the ``fifo_pop`` that ends its episode; append order
breaks any tie left.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np

EVENT_INGRESS = "ingress"
EVENT_PHANTOM_EMIT = "phantom_emit"
EVENT_PHANTOM_MATCH = "phantom_match"
EVENT_PHANTOM_LOSS = "phantom_loss"
EVENT_STEER = "steer"
EVENT_FIFO_BLOCK = "fifo_block"
EVENT_FIFO_POP = "fifo_pop"
EVENT_FIFO_UNBLOCK = "fifo_unblock"
EVENT_SERVICE = "service"
EVENT_ECN = "ecn"
EVENT_REMAP = "remap"
EVENT_EGRESS = "egress"
EVENT_DROP = "drop"
EVENT_FAULT_START = "fault_start"
EVENT_FAULT_END = "fault_end"
EVENT_EMERGENCY_REMAP = "emergency_remap"


class EventKind(NamedTuple):
    """One event type's row layout and its place in the tick."""

    phase: int
    #: record fields after ``type`` and ``tick``, in record order
    fields: Tuple[str, ...]
    #: the fields that order it within its phase, most significant first
    key: Tuple[str, ...]


def _kind(phase: int, fields: Tuple[str, ...], key=None) -> EventKind:
    return EventKind(phase, fields, fields if key is None else key)


_LANE = ("pkt", "pipe", "stage")
_FAULT = ("kind", "pipe", "stage")

KINDS: Dict[str, EventKind] = {
    EVENT_FAULT_END: _kind(0, _FAULT),
    EVENT_FAULT_START: _kind(1, _FAULT),
    EVENT_EMERGENCY_REMAP: _kind(2, ("pipe", "moved", "deferred", "attempt")),
    EVENT_INGRESS: _kind(
        3, ("pkt", "pipe", "stage", "port", "flow"),
        ("pkt", "pipe", "port", "flow"),
    ),
    EVENT_PHANTOM_EMIT: _kind(
        4, ("pkt", "pipe", "stage", "array", "index"),
        ("pkt", "stage", "pipe", "array", "index"),
    ),
    EVENT_PHANTOM_LOSS: _kind(5, ("pkt", "pipe", "stage", "array")),
    EVENT_STEER: _kind(
        6, ("pkt", "pipe", "stage", "src"), ("pkt", "stage", "src", "pipe")
    ),
    EVENT_ECN: _kind(7, _LANE),
    EVENT_PHANTOM_MATCH: _kind(8, _LANE, ("pkt", "stage", "pipe")),
    EVENT_EGRESS: _kind(9, ("pkt", "latency")),
    EVENT_DROP: _kind(10, ("pkt", "reason")),
    EVENT_FIFO_BLOCK: _kind(11, ("pipe", "stage")),
    EVENT_FIFO_POP: _kind(12, _LANE + ("wait",), _LANE),
    # Ordered by the fifo_pop it follows, not by fields of its own.
    EVENT_FIFO_UNBLOCK: _kind(12, ("pipe", "stage", "blocked"), ()),
    EVENT_SERVICE: _kind(13, _LANE, ("pkt", "stage", "pipe")),
    EVENT_REMAP: _kind(14, ("moves",)),
}

#: Every event type, in within-tick order.
EVENT_TYPES = tuple(KINDS)

#: One past the last phase: what comes after every event of its tick.
NUM_PHASES = 1 + max(kind.phase for kind in KINDS.values())


def _sortable(column) -> np.ndarray:
    """``column`` as an array that sorts like its values, None first."""
    values = np.asarray(column)
    if values.dtype.kind in "iuf":
        return values
    present = sorted({v for v in column if v is not None})
    rank = {v: i for i, v in enumerate(present, 1)}
    return np.fromiter(
        (rank.get(v, 0) for v in column), np.int64, len(column)
    )


def row_order(kind: str, ticks: np.ndarray, rows: Sequence[Tuple]) -> np.ndarray:
    """The stable permutation that puts one type's rows — ``tick``, then
    the record fields; ``ticks`` is their first column — in the
    within-tick order: by tick, then by the type's key fields. A key
    field is read only while some rows still tie on every earlier one:
    most types are ordered by ``(tick, pkt)`` alone, and reading a
    field costs a pass over every row."""
    spec = KINDS[kind]
    keys = [ticks]
    order = np.argsort(ticks, kind="stable")
    for name in spec.key:
        ranked = [key[order] for key in keys]
        if not np.logical_and.reduce([k[1:] == k[:-1] for k in ranked]).any():
            break
        at = 1 + spec.fields.index(name)
        keys.append(_sortable([row[at] for row in rows]))
        order = np.lexsort(keys[::-1])
    return order


def events_by_tick(events: Iterable[Dict]) -> Dict[int, List[Dict]]:
    """Group an event stream by tick, preserving intra-tick order."""
    grouped: Dict[int, List[Dict]] = {}
    for event in events:
        grouped.setdefault(event["tick"], []).append(event)
    return grouped


def canonical_form(events: Iterable[Dict]) -> Dict[int, List[str]]:
    """Tick-grouped, intra-tick-order-free view of an event stream.

    Every recorder writes the within-tick order of :data:`KINDS`; this
    view forgets it, so streams from any source compare by content.
    """
    return {
        tick: sorted(repr(sorted(e.items())) for e in group)
        for tick, group in events_by_tick(events).items()
    }
