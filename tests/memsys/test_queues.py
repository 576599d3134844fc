"""Transaction and write queues: capacity, watermarks, forwarding."""

import pytest

from repro.config import fgnvm
from repro.errors import QueueFullError
from repro.memsys.address import AddressMapper
from repro.memsys.queues import TransactionQueue, WriteQueue, oldest_first
from repro.memsys.request import MemRequest, OpType


def req(address=0, op=OpType.READ):
    return MemRequest(op, address)


class TestTransactionQueue:
    def test_push_and_capacity(self):
        queue = TransactionQueue(2)
        queue.push(req(0x40), cycle=1)
        queue.push(req(0x80), cycle=2)
        assert queue.is_full
        with pytest.raises(QueueFullError):
            queue.push(req(0xc0), cycle=3)

    def test_push_records_arrival(self):
        queue = TransactionQueue(4)
        request = req()
        queue.push(request, cycle=42)
        assert request.arrival_cycle == 42

    def test_remove_arbitrary_entry(self):
        queue = TransactionQueue(4)
        first, second = req(0x40), req(0x80)
        queue.push(first, 0)
        queue.push(second, 1)
        queue.remove(first)
        assert list(queue) == [second]
        assert queue.space() == 3

    def test_oldest(self):
        queue = TransactionQueue(4)
        assert queue.oldest() is None
        first = req(0x40)
        queue.push(first, 0)
        queue.push(req(0x80), 1)
        assert queue.oldest() is first

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            TransactionQueue(0)


class TestWriteQueueWatermarks:
    def make(self):
        return WriteQueue(capacity=8, high_watermark=6, low_watermark=2)

    def test_drain_hysteresis(self):
        queue = self.make()
        writes = [req(i * 64, OpType.WRITE) for i in range(8)]
        for w in writes[:5]:
            queue.push(w, 0)
        assert not queue.draining
        queue.push(writes[5], 0)
        assert queue.draining  # reached high watermark
        for w in writes[:3]:
            queue.remove(w)
        assert queue.draining  # 3 left, still >= low watermark
        queue.remove(writes[3])
        assert queue.draining  # exactly at low watermark: keep draining
        queue.remove(writes[4])
        assert not queue.draining  # 1 left, strictly below low

    def test_drain_stops_strictly_below_low(self):
        queue = self.make()
        writes = [req(i * 64, OpType.WRITE) for i in range(6)]
        for w in writes:
            queue.push(w, 0)
        assert queue.draining
        for w in writes[:4]:
            queue.remove(w)
        # Exactly at the low watermark: still draining.
        assert len(queue) == 2
        assert queue.draining

    def test_force_drain(self):
        queue = self.make()
        queue.push(req(0, OpType.WRITE), 0)
        assert not queue.draining
        queue.force_drain()
        assert queue.draining

    def test_bad_watermarks_rejected(self):
        with pytest.raises(ValueError):
            WriteQueue(8, high_watermark=9, low_watermark=2)
        with pytest.raises(ValueError):
            WriteQueue(8, high_watermark=4, low_watermark=4)


class TestForwarding:
    def test_forwards_matching_address(self):
        queue = WriteQueue(8, 6, 2)
        write = req(0x1240, OpType.WRITE)
        queue.push(write, 0)
        assert queue.forwards(0x1240)
        assert not queue.forwards(0x1280)
        queue.remove(write)
        assert not queue.forwards(0x1240)

    def test_last_write_wins(self):
        queue = WriteQueue(8, 6, 2)
        first = req(0x40, OpType.WRITE)
        second = req(0x40, OpType.WRITE)
        queue.push(first, 0)
        queue.push(second, 1)
        queue.remove(first)
        # The newer write still covers the address.
        assert queue.forwards(0x40)


class TestIdentityRemoval:
    """Requests compare by identity, so removal takes the named object."""

    def test_remove_takes_the_object_not_an_equal_twin(self):
        mapper = AddressMapper(fgnvm(4, 4).org)
        address = mapper.encode(bank=2, row=5, col=1)

        def write():
            return MemRequest(OpType.WRITE, address,
                              decoded=mapper.decode(address), req_id=7)

        queue = WriteQueue(8, 6, 2)
        first, twin = write(), write()
        queue.push(first, 0)
        queue.push(twin, 0)   # every field equal, same arrival cycle
        assert first != twin
        queue.remove(twin)
        assert [id(r) for r in queue] == [id(first)]
        assert [id(r) for r in queue.by_bank()[2]] == [id(first)]
        # The forwarding map never names a request that left the queue.
        queued = {id(r) for r in queue}
        assert all(id(r) in queued for r in queue._by_address.values())
        queue.remove(first)
        assert len(queue) == 0
        assert queue.by_bank() == {}
        assert not queue.forwards(address)


def test_oldest_first_sorts_by_arrival_then_id():
    a, b, c = req(0x40), req(0x80), req(0xc0)
    a.mark_queued(5)
    b.mark_queued(3)
    c.mark_queued(5)
    assert oldest_first([a, b, c]) == [b, a, c]
