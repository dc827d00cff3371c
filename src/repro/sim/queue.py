"""The pipeline's event queue.

:class:`IndexedQueue` keeps waiting events in arrival order with O(log n)
removal and order-statistic indexing (a Fenwick tree over tombstoned
slots), so a sampling scheduler can draw ``α`` positions from a deep queue
and the pipeline can retire an admitted event without an O(n) scan.
Iteration order is exactly insertion order of the live entries.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.sched.base import QueuedEvent

__all__ = ["IndexedQueue"]


class IndexedQueue(Sequence[QueuedEvent]):
    """Arrival-ordered queue with O(log n) removal and indexing.

    Behaves like a ``list[QueuedEvent]`` that is only appended to and
    removed from: iteration yields live entries in insertion order, ``[k]``
    returns the k-th live entry via Fenwick order statistics, and
    ``remove`` clears a tombstone instead of shifting O(n) elements.
    Entries are keyed by identity (``QueuedEvent`` is mutable, so value
    hashing is unsafe); distinct queued events are never equal, so identity
    removal matches ``list.remove`` semantics. Tombstones are compacted
    away once they outnumber live entries.
    """

    __slots__ = ("_slots", "_fen", "_pos", "_live")

    #: Compaction is skipped below this backing size (churn on tiny queues
    #: would dominate).
    _COMPACT_MIN = 64

    def __init__(self, items: Iterable[QueuedEvent] = ()):
        self._slots: list[QueuedEvent | None] = []
        self._fen: list[int] = []
        self._pos: dict[int, int] = {}
        self._live = 0
        for item in items:
            self.append(item)

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def __iter__(self) -> Iterator[QueuedEvent]:
        for entry in self._slots:
            if entry is not None:
                yield entry

    def __contains__(self, item: object) -> bool:
        return id(item) in self._pos

    def __getitem__(self, index: "int | slice"):
        if isinstance(index, slice):
            return list(self)[index]
        if index < 0:
            index += self._live
        if not 0 <= index < self._live:
            raise IndexError("IndexedQueue index out of range")
        entry = self._slots[self._select(index + 1)]
        assert entry is not None
        return entry

    def append(self, item: QueuedEvent) -> None:
        if id(item) in self._pos:
            raise ValueError(f"{item!r} is already queued")
        slot = len(self._slots)
        self._slots.append(item)
        self._fen_append()
        self._pos[id(item)] = slot
        self._live += 1

    def remove(self, item: QueuedEvent) -> None:
        slot = self._pos.pop(id(item), None)
        if slot is None:
            raise ValueError(f"{item!r} not in queue")
        self._slots[slot] = None
        self._update(slot + 1, -1)
        self._live -= 1
        if (len(self._slots) >= self._COMPACT_MIN
                and self._live * 2 < len(self._slots)):
            self._compact()

    # ---------------------------------------------------- fenwick internals

    def _prefix(self, i: int) -> int:
        total = 0
        while i > 0:
            total += self._fen[i - 1]
            i -= i & -i
        return total

    def _update(self, i: int, delta: int) -> None:
        size = len(self._fen)
        while i <= size:
            self._fen[i - 1] += delta
            i += i & -i

    def _fen_append(self) -> None:
        i = len(self._fen) + 1
        lo = i - (i & -i)
        self._fen.append(1 + self._prefix(i - 1) - self._prefix(lo))

    def _select(self, k: int) -> int:
        """0-based slot of the k-th (1-based) live entry."""
        size = len(self._fen)
        pos = 0
        bit = 1 << size.bit_length()
        rem = k
        while bit:
            nxt = pos + bit
            if nxt <= size and self._fen[nxt - 1] < rem:
                rem -= self._fen[nxt - 1]
                pos = nxt
            bit >>= 1
        return pos

    def _compact(self) -> None:
        live = [entry for entry in self._slots if entry is not None]
        self._slots = list(live)
        self._pos = {id(entry): i for i, entry in enumerate(live)}
        self._fen = [i & -i for i in range(1, len(live) + 1)]

    def __repr__(self) -> str:
        return (f"<IndexedQueue live={self._live} "
                f"slots={len(self._slots)}>")
