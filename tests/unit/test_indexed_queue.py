"""IndexedQueue: the pipeline's Fenwick-indexed event queue.

The queue's contract is exact ``list`` equivalence for the operations the
pipeline uses — iteration order, ``[k]`` / slices, ``in``, ``remove`` by
identity — so every test here drives the queue and a plain list with the
same operation stream and asserts they never disagree, including across
the tombstone-compaction threshold.
"""

import random

import pytest

from repro.core.event import make_event
from repro.core.flow import Flow
from repro.sched.base import QueuedEvent
from repro.sim.queue import IndexedQueue


def queued(i):
    flow = Flow(flow_id=f"f{i}", src="a", dst="b", demand=1.0,
                duration=1.0)
    return QueuedEvent(make_event([flow]), seq=i)


class TestIndexedQueue:
    def test_starts_empty(self):
        q = IndexedQueue()
        assert len(q) == 0
        assert not q
        assert list(q) == []

    def test_append_iterates_in_insertion_order(self):
        items = [queued(i) for i in range(5)]
        q = IndexedQueue(items)
        assert list(q) == items
        assert len(q) == 5
        assert q

    def test_getitem_int_and_negative(self):
        items = [queued(i) for i in range(7)]
        q = IndexedQueue(items)
        for k in range(7):
            assert q[k] is items[k]
            assert q[-1 - k] is items[-1 - k]
        with pytest.raises(IndexError):
            q[7]
        with pytest.raises(IndexError):
            q[-8]

    def test_getitem_slice_matches_list(self):
        items = [queued(i) for i in range(9)]
        q = IndexedQueue(items)
        q.remove(items[2])
        reference = [x for x in items if x is not items[2]]
        assert q[:3] == reference[:3]
        assert q[::2] == reference[::2]
        assert q[-2:] == reference[-2:]

    def test_remove_preserves_order_and_indexing(self):
        items = [queued(i) for i in range(6)]
        q = IndexedQueue(items)
        q.remove(items[0])
        q.remove(items[3])
        reference = [items[1], items[2], items[4], items[5]]
        assert list(q) == reference
        assert [q[k] for k in range(len(q))] == reference

    def test_contains_is_identity_based(self):
        items = [queued(i) for i in range(3)]
        q = IndexedQueue(items)
        assert items[1] in q
        q.remove(items[1])
        assert items[1] not in q
        assert queued(1) not in q  # equal-ish value, different object

    def test_duplicate_append_rejected(self):
        item = queued(0)
        q = IndexedQueue([item])
        with pytest.raises(ValueError, match="already queued"):
            q.append(item)

    def test_remove_missing_raises(self):
        q = IndexedQueue([queued(0)])
        with pytest.raises(ValueError, match="not in queue"):
            q.remove(queued(1))

    def test_matches_list_reference_under_random_ops(self):
        # Drive well past the compaction threshold (64 slots) with a
        # removal-heavy mix so compaction fires repeatedly mid-stream.
        rng = random.Random(42)
        q = IndexedQueue()
        reference = []
        counter = 0
        for _ in range(2000):
            if reference and rng.random() < 0.55:
                victim = reference.pop(rng.randrange(len(reference)))
                q.remove(victim)
            else:
                item = queued(counter)
                counter += 1
                reference.append(item)
                q.append(item)
            assert len(q) == len(reference)
        assert list(q) == reference
        for k in range(len(reference)):
            assert q[k] is reference[k]
        assert q[len(reference) // 3:] == reference[len(reference) // 3:]

    def test_compaction_shrinks_backing_store(self):
        items = [queued(i) for i in range(128)]
        q = IndexedQueue(items)
        for item in items[:100]:
            q.remove(item)
        # compaction fired: the backing store no longer holds a slot per
        # removed entry (it only re-fires above the 64-slot floor, so it
        # need not end exactly at len(q))
        assert len(q._slots) < len(items)
        assert len(q._slots) <= max(2 * len(q), IndexedQueue._COMPACT_MIN)
        assert list(q) == items[100:]
        assert [q[k] for k in range(len(q))] == items[100:]
