"""Packet types flowing through an MP5 switch.

Two kinds of traffic exist (§3.2): **data packets** on the data channel,
and **phantom packets** on the physically separate phantom channel. A
phantom is a small (48-bit in the paper) placeholder carrying
``<pkt id, register, index, pipeline, stage>`` that reserves its data
packet's position in the destination stage's FIFO.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..compiler.tac import Temp


@dataclass(slots=True)
class StateAccess:
    """One planned register access, resolved at the address-resolution
    stage and carried in the packet's metadata (§3.3).

    ``index`` is None for arrays whose index computation is stateful —
    ordering then falls back to array-level phantoms. ``pipeline`` is the
    destination pipeline at resolution time (the index-to-pipeline map
    lookup). ``conservative`` marks accesses whose guard could not be
    evaluated preemptively: the phantom is always generated and a false
    guard wastes the slot.
    """

    array: str
    stage: int
    pipeline: int
    index: Optional[int] = None
    conservative: bool = False
    completed: bool = False


@dataclass(slots=True)
class DataPacket:
    """A data packet and its PHV (headers + carried temporaries)."""

    pkt_id: int
    arrival: float
    port: int
    headers: Dict[str, int]
    size_bytes: int = 64
    flow_id: Optional[int] = None
    # Run state: None on a trace packet; an engine's private copy
    # (private_packet, PacketColumns.to_packets) gets its own.
    env: Optional[Dict[Temp, int]] = None
    accesses: Optional[List[StateAccess]] = None
    entry_pipeline: int = -1
    entry_tick: int = -1
    egress_tick: Optional[int] = None
    dropped: bool = False
    drop_reason: str = ""
    ecn_marked: bool = False
    # Stage -> access lookup table, built by index_accesses() once the
    # resolution stage finalizes the access plan. At most one access per
    # stage exists after the MP5 transform, so a dict is exact.
    _by_stage: Optional[Dict[int, StateAccess]] = field(
        default=None, repr=False, compare=False
    )

    def index_accesses(self) -> None:
        """Freeze the access plan into a per-stage lookup table."""
        self._by_stage = {a.stage: a for a in self.accesses}

    def access_at_stage(self, stage: int) -> Optional[StateAccess]:
        table = self._by_stage
        if table is not None:
            access = table.get(stage)
            if access is not None and not access.completed:
                return access
            return None
        for access in self.accesses:
            if access.stage == stage and not access.completed:
                return access
        return None


def private_packet(i: int, e) -> DataPacket:
    """A run-owned packet for trace entry ``i`` — a :class:`DataPacket`
    (its trace facts copied) or an ``(arrival, port, headers)`` tuple —
    with fresh run state. The scalar engines run these, so a trace is
    only ever read and replays through any engine unchanged."""
    if isinstance(e, DataPacket):
        return DataPacket(
            e.pkt_id, e.arrival, e.port, dict(e.headers), e.size_bytes, e.flow_id,
            env={}, accesses=[],
        )
    arrival, port, headers = e
    return DataPacket(i, arrival, port, dict(headers), env={}, accesses=[])


class PacketColumns:
    """One arrival batch, column-wise: the currency between the ingest
    socket and the engines.

    ``arrival`` is float64, ``port`` and ``size`` are int64, ``flow`` is
    a list (``None``, int or str per packet) and ``headers`` maps each
    field to an int64 column — a field a packet does not carry reads 0,
    exactly as every engine reads a missing header. Row order is the
    tie-break order: equal ``(arrival, port)`` rows keep their position,
    which is what the packet-id tie-break of a packet list amounts to.
    """

    __slots__ = ("arrival", "port", "size", "flow", "headers", "_ticks")

    def __init__(
        self,
        arrival: np.ndarray,
        port: np.ndarray,
        size: np.ndarray,
        flow: List,
        headers: Dict[str, np.ndarray],
        ticks: Optional[List] = None,
    ):
        self.arrival = arrival
        self.port = port
        self.size = size
        self.flow = flow
        self.headers = headers
        self._ticks = ticks

    def __len__(self) -> int:
        return self.arrival.shape[0]

    @classmethod
    def from_packets(
        cls,
        packets: Sequence["DataPacket"],
        fields: Optional[Sequence[str]] = None,
    ) -> "PacketColumns":
        """The one gather from a packet list. ``fields`` restricts the
        header columns to the ones a caller will read (default: every
        field any packet carries)."""
        # One list per fact: a comprehension over existing objects
        # allocates nothing the cycle collector would have to chase
        # through the packets (a row tuple per packet would).
        ticks = [p.arrival for p in packets]
        cols = cls(
            np.array(ticks, dtype=np.float64),
            np.array([p.port for p in packets], dtype=np.int64),
            np.array([p.size_bytes for p in packets], dtype=np.int64),
            [p.flow_id for p in packets],
            _header_columns([p.headers for p in packets], fields),
            # An int arrival stays an int: the scalar engines' latency
            # arithmetic keeps the caller's type, and so must ours.
            ticks=ticks,
        )
        pid = np.array([p.pkt_id for p in packets], dtype=np.int64)
        if (pid[1:] < pid[:-1]).any():
            cols = cols.take(np.argsort(pid, kind="stable"))
        return cols

    def ticks(self) -> List:
        """The arrivals as Python numbers (the caller's own objects for
        a batch gathered from packets, floats otherwise)."""
        if self._ticks is None:
            self._ticks = self.arrival.tolist()
        return self._ticks

    def take(self, order: np.ndarray) -> "PacketColumns":
        """The batch with its rows in ``order``."""
        rows = order.tolist()
        ticks, flow = self._ticks, self.flow
        return PacketColumns(
            self.arrival[order],
            self.port[order],
            self.size[order],
            [flow[i] for i in rows],
            {f: col[order] for f, col in self.headers.items()},
            ticks=None if ticks is None else [ticks[i] for i in rows],
        )

    def span(self) -> Tuple[Tuple[float, int], Tuple[float, int]]:
        """Smallest and largest ``(arrival, port)`` of the batch."""
        arrival, port = self.arrival, self.port
        lo, hi = arrival.min(), arrival.max()
        return (
            (float(lo), int(port[arrival == lo].min())),
            (float(hi), int(port[arrival == hi].max())),
        )

    def to_packets(self) -> List["DataPacket"]:
        """Materialise the batch for the per-packet engines, each row
        with its own run state; ids are positions (``feed`` renumbers in
        arrival order anyway)."""
        names = list(self.headers)
        values = [self.headers[f].tolist() for f in names]
        rows = zip(*values) if values else repeat(())
        facts = zip(
            self.ticks(), self.port.tolist(), rows, self.size.tolist(), self.flow
        )
        return [
            DataPacket(
                i, arrival, port, dict(zip(names, row)), size, flow,
                env={}, accesses=[],
            )
            for i, (arrival, port, row, size, flow) in enumerate(facts)
        ]


def _header_columns(
    hdrs: Sequence[Dict], fields: Optional[Sequence[str]]
) -> Dict[str, np.ndarray]:
    """One int64 column per field (None: every field any packet
    carries) from the header dicts. Plain indexing first — real
    workloads populate every field of every packet — and ``.get(f, 0)``
    only when a header turns out sparse."""
    if fields is None:
        fields = tuple(dict.fromkeys(chain.from_iterable(hdrs)))
    n = len(hdrs)
    try:
        return {
            f: np.fromiter(map(itemgetter(f), hdrs), np.int64, count=n)
            for f in fields
        }
    except KeyError:
        return {
            f: np.array([h.get(f, 0) for h in hdrs], dtype=np.int64)
            for f in fields
        }


@dataclass(slots=True)
class PhantomPacket:
    """Placeholder traveling the phantom channel (48 bits of content in
    hardware: packet id, register, index, destination pipeline+stage)."""

    pkt_id: int
    array: str
    index: Optional[int]
    pipeline: int
    stage: int
    created_tick: int
