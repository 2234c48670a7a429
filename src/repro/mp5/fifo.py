"""Per-stage FIFOs implementing MP5's three queue operations (§3.2).

Each stateful stage input has *k* FIFOs, one per source pipeline, so that
up to *k* packets can enter the stage in the same clock cycle without
contention. Physically each FIFO is a ring buffer; logically the k FIFOs
behave as a single FIFO offering:

* ``push(pkt, fifo_id)``  — append (data or phantom) to a ring buffer's
  tail, timestamping it; full buffer => drop. Phantom positions are
  recorded in a directory keyed by packet id.
* ``insert(pkt, fifo_id)`` — replace the packet's phantom, *in place*,
  with the data packet (the data packet inherits the phantom's position
  and timestamp, i.e. its order). Missing directory entry => drop.
* ``pop()`` — look at the k ring-buffer heads, take the entry with the
  smallest timestamp. A phantom head blocks the pop entirely: packets
  that arrived later must wait for the placeholder's data packet — this
  is the D4 ordering enforcement (and the head-of-line blocking noted as
  practical limitation (2) in §3.5.2).

An :class:`IdealOrderBuffer` variant keeps one virtual FIFO per register
index, removing head-of-line blocking across indexes; it is the queue
model of the "ideal MP5" baseline in §4.3.3.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple, Union

from ..errors import ConfigError
from .packet import DataPacket, PhantomPacket

_seq_counter = itertools.count()

Timestamp = Tuple[int, int]  # (tick, global sequence) — unique and ordered


class Slot:
    """One ring-buffer entry. ``payload`` flips from phantom to data when
    ``insert`` replaces the placeholder.

    A plain ``__slots__`` class rather than a dataclass: one is created
    per queued packet. ``is_phantom`` is cached at construction (and
    flipped by ``insert``) rather than recomputed with ``isinstance`` on
    every head inspection — pop scans every ring-buffer head each tick.
    """

    __slots__ = ("timestamp", "payload", "consumed", "is_phantom")

    def __init__(
        self,
        timestamp: Timestamp,
        payload: Union[DataPacket, PhantomPacket],
        consumed: bool = False,
    ):
        self.timestamp = timestamp
        self.payload = payload
        self.consumed = consumed
        self.is_phantom = isinstance(payload, PhantomPacket)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Slot(timestamp={self.timestamp!r}, payload={self.payload!r}, "
            f"consumed={self.consumed!r})"
        )


class StageFifoGroup:
    """The k ring buffers at one (pipeline, stage) input.

    The D4 queue structure (§3.2): one ring buffer per source pipeline,
    popped as a single logical FIFO by minimum timestamp. ``push``
    enqueues a phantom placeholder at the tail; ``insert`` lets the data
    packet claim its phantom's position *and timestamp* in place;
    ``pop`` returns the logical head, blocking the stage while that head
    is still a phantom — this is what enforces C1. Also tracks a phantom
    pkt-id high-water mark so a faulted, late-delivered phantom that
    would invert the survivor order is detected as stale
    (:meth:`stale_phantom`, see :mod:`repro.faults`).
    """

    def __init__(self, num_pipelines: int, capacity: Optional[int] = None):
        if num_pipelines < 1:
            raise ConfigError("need at least one pipeline FIFO")
        if capacity is not None and capacity < 1:
            raise ConfigError("FIFO capacity must be positive (or None)")
        self.num_pipelines = num_pipelines
        self.capacity = capacity
        self.buffers: List[Deque[Slot]] = [deque() for _ in range(num_pipelines)]
        # Directory: packet id -> slot holding its phantom. The paper's
        # directory is indexed by packet id; one outstanding phantom per
        # (packet, stage) holds because a packet accesses at most one
        # array per stage after the MP5 transform.
        self.directory: Dict[int, Slot] = {}
        self.drops_full = 0
        self.drops_no_phantom = 0
        self.peak_occupancy = 0
        # Occupancy counters maintained incrementally on push/insert/pop
        # so telemetry reads are O(1) instead of a per-tick slot sweep.
        # Consumed slots are always phantoms (only expire_phantom marks a
        # slot consumed), so _data never has to track consumption.
        self._total = 0
        self._data = 0
        # Highest phantom pkt_id ever pushed. Injection is arrival-
        # ordered, so phantom pushes normally arrive in ascending pkt_id
        # order; a *fault-delayed* phantom (repro.faults) can show up
        # behind a younger one — stale_phantom detects that, and the
        # channel treats the latecomer as lost rather than let it invert
        # the per-state service order among surviving packets (C1).
        self._max_phantom_pkt_id = -1

    # ------------------------------------------------------------------

    def _stamp(self, tick: int) -> Timestamp:
        return (tick, next(_seq_counter))

    def _note_occupancy(self) -> None:
        if self._total > self.peak_occupancy:
            self.peak_occupancy = self._total

    def occupancy(self) -> int:
        return self._total

    def data_occupancy(self) -> int:
        return self._data

    def stale_phantom(self, pkt_id: int) -> bool:
        """True when a phantom for ``pkt_id`` would queue behind one of a
        younger (later-arrived) packet — delivering it late would break
        arrival-order service."""
        return pkt_id < self._max_phantom_pkt_id

    # ------------------------------------------------------------------
    # The three §3.2 operations
    # ------------------------------------------------------------------

    def push(
        self, pkt: Union[DataPacket, PhantomPacket], fifo_id: int, tick: int
    ) -> bool:
        """Append to the tail of ring buffer ``fifo_id``. Returns False
        (packet dropped) when the buffer is full."""
        buffer = self.buffers[fifo_id]
        if self.capacity is not None and len(buffer) >= self.capacity:
            self.drops_full += 1
            return False
        slot = Slot((tick, next(_seq_counter)), pkt)
        buffer.append(slot)
        total = self._total = self._total + 1
        if slot.is_phantom:
            self.directory[pkt.pkt_id] = slot
            if pkt.pkt_id > self._max_phantom_pkt_id:
                self._max_phantom_pkt_id = pkt.pkt_id
        else:
            self._data += 1
        if total > self.peak_occupancy:
            self.peak_occupancy = total
        return True

    def insert(self, pkt: DataPacket, tick: int) -> bool:
        """Replace the packet's phantom with the data packet, in place.

        Returns False when no phantom is present (it was dropped on a
        full FIFO), in which case the data packet must be dropped too.
        """
        slot = self.directory.pop(pkt.pkt_id, None)
        if slot is None or slot.consumed:
            self.drops_no_phantom += 1
            return False
        slot.payload = pkt
        slot.is_phantom = False
        self._data += 1
        return True

    def pop(self) -> Optional[DataPacket]:
        """Remove and return the oldest head if it is a data packet.

        A phantom at the oldest head blocks the whole logical FIFO (no
        action taken), enforcing arrival-order state access.
        """
        # Consumed (expired-phantom) heads are purged during the same
        # scan that finds the oldest head — one pass over the buffers.
        best: Optional[Deque[Slot]] = None
        best_slot: Optional[Slot] = None
        for buffer in self.buffers:
            while buffer:
                head = buffer[0]
                if head.consumed:
                    buffer.popleft()
                    self._total -= 1
                    continue
                if best_slot is None or head.timestamp < best_slot.timestamp:
                    best_slot = head
                    best = buffer
                break
        if best_slot is None or best_slot.is_phantom:
            return None  # empty, or a placeholder awaits its data packet
        best.popleft()
        self._total -= 1
        self._data -= 1
        return best_slot.payload  # type: ignore[return-value]

    # ------------------------------------------------------------------

    def expire_phantom(self, pkt_id: int) -> bool:
        """Retire a phantom whose data packet will never come (used when a
        data packet is dropped upstream). Marks the slot consumed so it
        no longer blocks the queue."""
        slot = self.directory.pop(pkt_id, None)
        if slot is None:
            return False
        slot.consumed = True
        return True


class IdealOrderBuffer:
    """Queue model of the ideal MP5 baseline: one virtual FIFO per
    register index, so a blocked index never blocks others.

    Exposes the same push/insert/pop surface as :class:`StageFifoGroup`
    (capacity is unbounded — the ideal design has no practical limits).

    ``pop`` reads a heap of ready heads (data slots at a queue's front)
    keyed by timestamp instead of scanning every queue. ``insert``,
    ``expire_phantom`` and ``pop`` only mark the queue they change as
    touched; the next ``pop`` drops consumed slots from the front of
    the touched queues — the only ones that can have any — and enters
    each one's head if it is data. A heap entry whose slot no longer
    heads its queue is stale and skipped when it surfaces.
    """

    def __init__(self, num_pipelines: int, capacity: Optional[int] = None):
        self.num_pipelines = num_pipelines
        self.capacity = capacity  # accepted for interface parity; unused
        self.queues: Dict[Tuple[str, Optional[int]], Deque[Slot]] = {}
        self.directory: Dict[int, Tuple[Slot, Tuple[str, Optional[int]]]] = {}
        self._ready: List[Tuple[Timestamp, Tuple[str, Optional[int]]]] = []
        self._touched: Set[Tuple[str, Optional[int]]] = set()
        self.drops_full = 0
        self.drops_no_phantom = 0
        self.peak_occupancy = 0
        # Incrementally maintained (see StageFifoGroup): O(1) telemetry.
        self._total = 0
        self._data = 0
        # Group-level high-water mark (see StageFifoGroup). Per-index
        # queues would only need a per-key mark; the group-level check is
        # conservative (may over-drop late phantoms) but deterministic.
        self._max_phantom_pkt_id = -1

    def _stamp(self, tick: int) -> Timestamp:
        return (tick, next(_seq_counter))

    def _note_occupancy(self) -> None:
        if self._total > self.peak_occupancy:
            self.peak_occupancy = self._total

    def occupancy(self) -> int:
        return self._total

    def data_occupancy(self) -> int:
        return self._data

    def stale_phantom(self, pkt_id: int) -> bool:
        """See :meth:`StageFifoGroup.stale_phantom`."""
        return pkt_id < self._max_phantom_pkt_id

    def push(
        self, pkt: Union[DataPacket, PhantomPacket], fifo_id: int, tick: int
    ) -> bool:
        if not isinstance(pkt, PhantomPacket):
            raise ConfigError("IdealOrderBuffer queues via phantoms only")
        key = (pkt.array, pkt.index)
        slot = Slot((tick, next(_seq_counter)), pkt)
        self.queues.setdefault(key, deque()).append(slot)
        self.directory[pkt.pkt_id] = (slot, key)
        if pkt.pkt_id > self._max_phantom_pkt_id:
            self._max_phantom_pkt_id = pkt.pkt_id
        self._total += 1
        self._note_occupancy()
        return True

    def insert(self, pkt: DataPacket, tick: int) -> bool:
        entry = self.directory.pop(pkt.pkt_id, None)
        if entry is None or entry[0].consumed:
            self.drops_no_phantom += 1
            return False
        entry[0].payload = pkt
        entry[0].is_phantom = False
        self._touched.add(entry[1])
        self._data += 1
        return True

    def pop(self) -> Optional[DataPacket]:
        queues, ready = self.queues, self._ready
        for key in self._touched:
            queue = queues[key]
            while queue and queue[0].consumed:
                queue.popleft()
                self._total -= 1
            if queue and not queue[0].is_phantom:
                heapq.heappush(ready, (queue[0].timestamp, key))
        self._touched.clear()
        while ready:  # timestamps are unique: keys are never compared
            stamp, key = heapq.heappop(ready)
            queue = queues.get(key)
            if queue and queue[0].timestamp == stamp:
                break
        else:
            return None
        slot = queue.popleft()
        if queue:
            self._touched.add(key)
        else:
            del queues[key]
        self._total -= 1
        self._data -= 1
        return slot.payload  # type: ignore[return-value]

    def expire_phantom(self, pkt_id: int) -> bool:
        entry = self.directory.pop(pkt_id, None)
        if entry is None:
            return False
        entry[0].consumed = True
        self._touched.add(entry[1])
        return True
