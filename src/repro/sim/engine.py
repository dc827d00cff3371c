"""A minimal deterministic discrete-event simulation engine.

The update simulator needs exact, reproducible time ordering for flow
completions, background churn and scheduling rounds. This engine is a
classic calendar queue: a heap of timestamped callbacks with a monotone
clock, FIFO tie-breaking via a sequence number, and O(log n) cancellation
through tombstones.

Tombstones are bounded: the engine counts them, answers :attr:`pending`
from the count in O(1) instead of rescanning the heap, and compacts the
heap (dropping every tombstone in one pass) whenever cancelled entries
outnumber live ones. Compaction preserves the pop order exactly — entries
are totally ordered by ``(time, seq)`` — so cancel/respawn churn cannot
change simulation results, only keep the heap small.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.exceptions import SimulationError

#: Never bother compacting heaps smaller than this; the rescan is free.
_COMPACT_MIN_SIZE = 64


@dataclass(slots=True)
class _ScheduledEvent:
    time: float
    seq: int
    callback: Callable[[], None]
    cancelled: bool = False
    #: Set once the entry has been popped off the heap (executed or
    #: discarded as a tombstone). A handle kept past that point must not
    #: be able to touch the engine's tombstone accounting.
    popped: bool = False

    def __lt__(self, other: "_ScheduledEvent") -> bool:
        """Heap order: by ``time``, then ``seq`` (unique, so the order is
        total). Written out because the generated comparison builds two
        tuples per call and the heap makes ~14 calls per push/pop pair."""
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq


class TaggedCallback:
    """Callable wrapper giving scheduled work a diagnosable repr.

    Bare lambdas and bound methods render as ``<function <lambda> at 0x…>``
    in stall/deadlock diagnostics; tagging every scheduled callback (e.g.
    ``arrival:U3``, ``flow-finish:U3/f1``, ``heal:link s0<->s1``) makes the
    pending-event listing readable.
    """

    __slots__ = ("fn", "tag")

    def __init__(self, fn: Callable[[], None], tag: str) -> None:
        self.fn = fn
        self.tag = tag

    def __call__(self) -> None:
        self.fn()

    def __repr__(self) -> str:
        return f"<callback {self.tag}>"


class EventHandle:
    """Opaque handle returned by :meth:`SimulationEngine.schedule`."""

    __slots__ = ("_entry", "_engine")

    def __init__(self, entry: _ScheduledEvent,
                 engine: "SimulationEngine") -> None:
        self._entry = entry
        self._engine = engine

    @property
    def time(self) -> float:
        return self._entry.time

    @property
    def cancelled(self) -> bool:
        return self._entry.cancelled

    @property
    def executed(self) -> bool:
        """True once the entry already ran (cancelling is then a no-op)."""
        return self._entry.popped and not self._entry.cancelled

    def cancel(self) -> None:
        """Mark the event so it will be skipped when popped (idempotent).

        Cancelling a handle whose entry was already popped — executed by
        :meth:`SimulationEngine.step` or discarded as a tombstone — is a
        no-op: the entry is no longer on the heap, so counting it as a
        tombstone would make :attr:`SimulationEngine.pending` undercount
        (even go negative) and mis-trigger stall/deadlock logic downstream.
        """
        if not self._entry.cancelled and not self._entry.popped:
            self._entry.cancelled = True
            self._engine._note_cancelled()


class SimulationEngine:
    """Priority-queue event loop with a monotone simulated clock."""

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = start_time
        self._heap: list[_ScheduledEvent] = []
        # Plain int rather than itertools.count: the next value must be
        # exportable for checkpoint/restore, and (time, seq) order *is* the
        # schedule, so a restored engine has to keep allocating from the
        # exact point the original stopped at.
        self._next_seq = 0
        self._processed = 0
        self._cancelled = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of scheduled (non-cancelled) future events."""
        return len(self._heap) - self._cancelled

    @property
    def processed(self) -> int:
        """How many events have executed so far."""
        return self._processed

    def live_pending(self) -> int:
        """Recount pending events by scanning the heap (O(n)).

        Ground truth for the O(1) :attr:`pending` counter; the lifecycle
        auditor cross-checks the two every round to turn tombstone-count
        drift into an immediate failure instead of a misfired
        stall-fallback or deadlock diagnosis.
        """
        return sum(1 for entry in self._heap if not entry.cancelled)

    def schedule_at(self, time: float,
                    callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at absolute simulated ``time``.

        Raises:
            SimulationError: the time lies in the past.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.6f}, clock is at "
                f"t={self._now:.6f}")
        entry = _ScheduledEvent(time=time, seq=self._next_seq,
                                callback=callback)
        self._next_seq += 1
        heapq.heappush(self._heap, entry)
        return EventHandle(entry, self)

    def schedule_after(self, delay: float,
                       callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(self._now + delay, callback)

    def schedule_callback(self, when: float, fn: Callable[[], None],
                          tag: str) -> EventHandle:
        """Schedule ``fn`` at ``when``, wrapped with a diagnosable ``tag``.

        Identical scheduling semantics to :meth:`schedule_at` (same clock
        check, same FIFO sequence numbering); the only difference is that
        the pending entry reprs as ``<callback tag>`` and surfaces in
        :meth:`pending_tags`.
        """
        return self.schedule_at(when, TaggedCallback(fn, tag))

    def pending_tags(self) -> list[str]:
        """Tags of live pending callbacks in ``(time, seq)`` pop order.

        Untagged callbacks report as ``?<typename>``. Intended for stall
        and deadlock diagnostics, not for control flow.
        """
        live = sorted((e.time, e.seq, e.callback) for e in self._heap
                      if not e.cancelled)
        return [cb.tag if isinstance(cb, TaggedCallback)
                else f"?{type(cb).__name__}" for _, _, cb in live]

    def step(self) -> bool:
        """Execute the earliest pending event; False when none remain."""
        while self._heap:
            entry = heapq.heappop(self._heap)
            entry.popped = True
            if entry.cancelled:
                self._cancelled -= 1
                continue
            self._now = entry.time
            self._processed += 1
            entry.callback()
            return True
        return False

    def run(self, max_events: int = 10_000_000,
            until: float | None = None) -> None:
        """Drain the event queue.

        Args:
            max_events: safety valve against runaway simulations.
            until: stop once the clock would pass this time (events at
                exactly ``until`` still run).

        Raises:
            SimulationError: ``max_events`` was exhausted (almost always a
                scheduling livelock in the caller's logic).
        """
        executed = 0
        while self._heap:
            if until is not None:
                head = self._peek()
                if head is None or head.time > until:
                    return
            if not self.step():
                return
            executed += 1
            if executed >= max_events:
                raise SimulationError(
                    f"engine executed {executed} events without draining; "
                    f"likely a scheduling livelock")

    # ------------------------------------------------------ checkpointing

    def export_state(self) -> dict[str, Any]:
        """Serializable engine state for a checkpoint.

        Live heap entries export as ``(time, seq, tag)`` triples — the
        callback itself is reconstructed at restore time from the tag, so
        every pending callback must be a :class:`TaggedCallback`. Tombstones
        are dropped: they cannot affect pop order, only heap size.

        Raises:
            SimulationError: a live pending callback is untagged and
                therefore not reconstructible.
        """
        entries: list[dict[str, Any]] = []
        for event in sorted(self._heap, key=lambda e: (e.time, e.seq)):
            if event.cancelled:
                continue
            callback = event.callback
            if not isinstance(callback, TaggedCallback):
                raise SimulationError(
                    f"cannot export untagged pending callback {callback!r}; "
                    f"checkpointable runs must schedule via "
                    f"schedule_callback()")
            entries.append({"time": event.time, "seq": event.seq,
                            "tag": callback.tag})
        return {"now": self._now, "next_seq": self._next_seq,
                "processed": self._processed, "entries": entries}

    def restore_state(self, state: dict[str, Any],
                      resolver: Callable[[str], Callable[[], None]],
                      ) -> dict[str, EventHandle]:
        """Rebuild clock, seq counter, and pending heap from a checkpoint.

        ``resolver`` maps a callback tag back to the callable to run —
        closures cannot be serialized, so the owning components re-bind
        them from the tag's embedded identifiers. Entries keep their
        original ``(time, seq)`` so pop order is byte-identical to the
        run that wrote the checkpoint.

        Returns a tag → :class:`EventHandle` map so owners that kept a
        cancellable handle (the service's pending arrival and snapshot
        timer) can re-acquire it. Duplicate tags keep the last handle —
        none of the handle-holding tags can legally repeat.
        """
        if self._heap or self._processed or self._next_seq:
            raise SimulationError("restore_state requires a fresh engine")
        self._now = float(state["now"])
        self._next_seq = int(state["next_seq"])
        self._processed = int(state["processed"])
        self._cancelled = 0
        handles: dict[str, EventHandle] = {}
        for entry in state["entries"]:
            tag = str(entry["tag"])
            scheduled = _ScheduledEvent(
                time=float(entry["time"]), seq=int(entry["seq"]),
                callback=TaggedCallback(resolver(tag), tag))
            heapq.heappush(self._heap, scheduled)
            handles[tag] = EventHandle(scheduled, self)
        return handles

    def _note_cancelled(self) -> None:
        self._cancelled += 1
        if (len(self._heap) >= _COMPACT_MIN_SIZE
                and self._cancelled * 2 > len(self._heap)):
            self._compact()

    def _compact(self) -> None:
        """Drop every tombstone in one pass and restore the heap invariant.

        ``(time, seq)`` totally orders entries, so re-heapifying the live
        subset pops in exactly the order the tombstoned heap would have.
        """
        self._heap = [e for e in self._heap if not e.cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0

    def _peek(self) -> _ScheduledEvent | None:
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap).popped = True
            self._cancelled -= 1
        return self._heap[0] if self._heap else None
