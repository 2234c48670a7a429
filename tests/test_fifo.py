"""Tests for the per-stage FIFO groups (push/insert/pop, §3.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.mp5 import DataPacket, IdealOrderBuffer, PhantomPacket, StageFifoGroup


def data(pkt_id):
    return DataPacket(pkt_id=pkt_id, arrival=0.0, port=0, headers={})


def phantom(pkt_id, array="r", index=0):
    return PhantomPacket(
        pkt_id=pkt_id, array=array, index=index, pipeline=0, stage=1, created_tick=0
    )


class TestPush:
    def test_push_and_pop_data(self):
        fifo = StageFifoGroup(num_pipelines=2)
        fifo.push(data(1), fifo_id=0, tick=0)
        popped = fifo.pop()
        assert popped.pkt_id == 1

    def test_pop_empty_returns_none(self):
        fifo = StageFifoGroup(num_pipelines=2)
        assert fifo.pop() is None

    def test_capacity_drop(self):
        fifo = StageFifoGroup(num_pipelines=1, capacity=2)
        assert fifo.push(data(1), 0, 0)
        assert fifo.push(data(2), 0, 0)
        assert not fifo.push(data(3), 0, 0)
        assert fifo.drops_full == 1

    def test_capacity_per_ring_buffer(self):
        fifo = StageFifoGroup(num_pipelines=2, capacity=1)
        assert fifo.push(data(1), 0, 0)
        assert fifo.push(data(2), 1, 0)  # different ring buffer
        assert not fifo.push(data(3), 0, 0)

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            StageFifoGroup(num_pipelines=0)
        with pytest.raises(ConfigError):
            StageFifoGroup(num_pipelines=1, capacity=0)

    def test_occupancy_tracking(self):
        fifo = StageFifoGroup(num_pipelines=2)
        fifo.push(data(1), 0, 0)
        fifo.push(data(2), 1, 0)
        assert fifo.occupancy() == 2
        assert fifo.peak_occupancy == 2
        fifo.pop()
        assert fifo.occupancy() == 1
        assert fifo.peak_occupancy == 2


class TestLogicalFifoOrder:
    def test_pop_takes_oldest_across_buffers(self):
        fifo = StageFifoGroup(num_pipelines=2)
        fifo.push(data(1), 1, 0)  # pushed first -> older timestamp
        fifo.push(data(2), 0, 0)
        assert fifo.pop().pkt_id == 1
        assert fifo.pop().pkt_id == 2

    def test_fifo_order_within_buffer(self):
        fifo = StageFifoGroup(num_pipelines=1)
        for i in range(5):
            fifo.push(data(i), 0, i)
        assert [fifo.pop().pkt_id for _ in range(5)] == [0, 1, 2, 3, 4]


class TestPhantomProtocol:
    def test_phantom_head_blocks_pop(self):
        fifo = StageFifoGroup(num_pipelines=1)
        fifo.push(phantom(1), 0, 0)
        fifo.push(data(2), 0, 1)
        assert fifo.pop() is None  # blocked by the placeholder

    def test_insert_replaces_phantom_in_place(self):
        fifo = StageFifoGroup(num_pipelines=1)
        fifo.push(phantom(1), 0, 0)
        fifo.push(data(2), 0, 1)
        assert fifo.insert(data(1), tick=2)
        first = fifo.pop()
        assert first.pkt_id == 1  # data packet took the phantom's position
        assert fifo.pop().pkt_id == 2

    def test_insert_without_phantom_drops(self):
        fifo = StageFifoGroup(num_pipelines=1)
        assert not fifo.insert(data(9), tick=0)
        assert fifo.drops_no_phantom == 1

    def test_phantom_blocking_across_buffers(self):
        fifo = StageFifoGroup(num_pipelines=2)
        fifo.push(phantom(1), 0, 0)  # oldest overall
        fifo.push(data(2), 1, 1)
        assert fifo.pop() is None
        fifo.insert(data(1), tick=2)
        assert fifo.pop().pkt_id == 1
        assert fifo.pop().pkt_id == 2

    def test_ordering_preserved_through_replacement(self):
        # Phantoms pushed in arrival order; data packets arrive out of
        # order but pops follow phantom (arrival) order.
        fifo = StageFifoGroup(num_pipelines=1)
        for i in range(3):
            fifo.push(phantom(i), 0, i)
        fifo.insert(data(2), tick=10)
        fifo.insert(data(0), tick=11)
        fifo.insert(data(1), tick=12)
        assert [fifo.pop().pkt_id for _ in range(3)] == [0, 1, 2]

    def test_expire_phantom_unblocks(self):
        fifo = StageFifoGroup(num_pipelines=1)
        fifo.push(phantom(1), 0, 0)
        fifo.push(data(2), 0, 1)
        assert fifo.expire_phantom(1)
        assert fifo.pop().pkt_id == 2

    def test_expire_missing_phantom_false(self):
        fifo = StageFifoGroup(num_pipelines=1)
        assert not fifo.expire_phantom(42)

    def test_data_occupancy_excludes_phantoms(self):
        fifo = StageFifoGroup(num_pipelines=1)
        fifo.push(phantom(1), 0, 0)
        fifo.push(data(2), 0, 0)
        assert fifo.data_occupancy() == 1


class TestIdealOrderBuffer:
    def test_no_hol_blocking_across_indexes(self):
        buf = IdealOrderBuffer(num_pipelines=2)
        buf.push(phantom(1, index=0), 0, 0)  # index 0 waits for its data
        buf.push(phantom(2, index=1), 0, 1)
        buf.insert(data(2), tick=2)
        popped = buf.pop()
        assert popped.pkt_id == 2  # index 1 proceeds despite index 0

    def test_per_index_order_enforced(self):
        buf = IdealOrderBuffer(num_pipelines=1)
        buf.push(phantom(1, index=0), 0, 0)
        buf.push(phantom(2, index=0), 0, 1)
        buf.insert(data(2), tick=2)
        assert buf.pop() is None  # same index: packet 2 must wait for 1
        buf.insert(data(1), tick=3)
        assert buf.pop().pkt_id == 1
        assert buf.pop().pkt_id == 2

    def test_oldest_ready_index_wins(self):
        buf = IdealOrderBuffer(num_pipelines=1)
        buf.push(phantom(1, index=0), 0, 0)
        buf.push(phantom(2, index=1), 0, 1)
        buf.insert(data(1), tick=2)
        buf.insert(data(2), tick=2)
        assert buf.pop().pkt_id == 1

    def test_data_push_rejected(self):
        buf = IdealOrderBuffer(num_pipelines=1)
        with pytest.raises(ConfigError):
            buf.push(data(1), 0, 0)

    def test_expire_phantom(self):
        buf = IdealOrderBuffer(num_pipelines=1)
        buf.push(phantom(1, index=0), 0, 0)
        buf.push(phantom(2, index=0), 0, 1)
        buf.expire_phantom(1)
        buf.insert(data(2), tick=2)
        assert buf.pop().pkt_id == 2

    def test_insert_without_phantom_drops(self):
        buf = IdealOrderBuffer(num_pipelines=1)
        assert not buf.insert(data(5), tick=0)
        assert buf.drops_no_phantom == 1

    def test_occupancy(self):
        buf = IdealOrderBuffer(num_pipelines=1)
        buf.push(phantom(1, index=0), 0, 0)
        assert buf.occupancy() == 1
        assert buf.data_occupancy() == 0


class ScanningIdealBuffer(IdealOrderBuffer):
    """The ready-head heap's oracle: every pop drops consumed slots from
    the front of every queue, then scans all heads for the oldest data
    one."""

    def pop(self):
        best_key, best = None, None
        for key, queue in self.queues.items():
            while queue and queue[0].consumed:
                queue.popleft()
                self._total -= 1
            if queue and not queue[0].is_phantom:
                if best is None or queue[0].timestamp < best.timestamp:
                    best_key, best = key, queue[0]
        if best is None:
            return None
        queue = self.queues[best_key]
        queue.popleft()
        if not queue:
            del self.queues[best_key]
        self._total -= 1
        self._data -= 1
        return best.payload


def _buffer_view(buf):
    queues = {
        key: [(s.payload.pkt_id, s.is_phantom, s.consumed) for s in q]
        for key, q in buf.queues.items()
    }
    return queues, buf.occupancy(), buf.data_occupancy()


@given(
    st.lists(
        st.tuples(st.sampled_from("pie"), st.integers(0, 3), st.integers(0, 20)),
        max_size=80,
    )
)
@settings(max_examples=150, deadline=None)
def test_ideal_heap_pops_like_a_scan_of_every_head(ops):
    """Pushes to a few indexes, inserts and expiries of random phantoms,
    and pops: the heap buffer and the scanning oracle pop the same
    packets and hold the same queues and counts after every step."""
    heap, scan = IdealOrderBuffer(1), ScanningIdealBuffer(1)
    next_id = 0
    for tick, (op, index, pick) in enumerate(ops):
        for buf in (heap, scan):
            if op == "p":
                buf.push(phantom(next_id, index=index), 0, tick)
            elif op == "i":
                buf.insert(data(pick % max(next_id, 1)), tick)
            elif op == "e":
                buf.expire_phantom(pick % max(next_id, 1))
        next_id += op == "p"
        if pick % 3 == 0:
            got, want = heap.pop(), scan.pop()
            assert (got and got.pkt_id) == (want and want.pkt_id)
        assert _buffer_view(heap) == _buffer_view(scan)
