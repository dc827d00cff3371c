"""The explicit event-lifecycle state machine (paper §III, event level).

Every update event moving through the simulator follows one lifecycle::

                      ┌──────────────────────────────┐
                      ▼                              │
    (register) → QUEUED → PROBED → ADMITTED → EXECUTING → COMPLETED
                      │  ▲   │                   │
                      │  └───┘ (not selected)    │ (exec failed /
                      ▼                          ▼  partial admission)
                  DEFERRED ◄─────────────────────┘
                      │   └────────► QUEUED (requeued)
                      ▼
                   DROPPED

* ``QUEUED`` — waiting in the scheduler queue.
* ``PROBED`` — offered to the scheduler in the current round (its cost may
  be probed); returns to ``QUEUED`` if not selected.
* ``ADMITTED`` — selected by a round decision; its plan is about to be
  applied.
* ``EXECUTING`` — its update is being applied / its flows transmit. A
  partial admission (flow-level baseline) returns to ``QUEUED`` with the
  remaining flows.
* ``COMPLETED`` — terminal success.
* ``DEFERRED`` — charged one deferral (execution failure or placement
  stall); immediately requeued or dropped.
* ``DROPPED`` — terminal eviction after exhausting the deferral budget.

Repair events generated for failure-stranded traffic are *new* events and
get their own lifecycle (``origin="repair"``); the stranded traffic's
recovery is represented by the repair event reaching ``COMPLETED``.

The registry (:class:`EventLifecycle`) asserts legality on every move —
an illegal transition raises :class:`IllegalTransitionError` immediately,
turning silent bookkeeping bugs into loud ones — and owns the one
:class:`EventRecord` row each event has. The pipeline writes a row before
it announces the matching hook, so a listener reads the row as the hook
describes it.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Any, Iterable

from repro.core.exceptions import SimulationError


class EventState(enum.Enum):
    """States an update event can occupy inside the simulator."""

    QUEUED = "queued"
    PROBED = "probed"
    ADMITTED = "admitted"
    EXECUTING = "executing"
    COMPLETED = "completed"
    DEFERRED = "deferred"
    DROPPED = "dropped"

    def __repr__(self) -> str:
        return f"EventState.{self.name}"


#: Every legal move of the state machine. Anything not listed raises.
LEGAL_TRANSITIONS: dict[EventState, frozenset[EventState]] = {
    EventState.QUEUED: frozenset(
        {EventState.PROBED, EventState.DEFERRED}),
    EventState.PROBED: frozenset(
        {EventState.ADMITTED, EventState.QUEUED}),
    EventState.ADMITTED: frozenset(
        {EventState.EXECUTING}),
    EventState.EXECUTING: frozenset(
        {EventState.COMPLETED, EventState.DEFERRED, EventState.QUEUED}),
    EventState.DEFERRED: frozenset(
        {EventState.QUEUED, EventState.DROPPED}),
    EventState.COMPLETED: frozenset(),
    EventState.DROPPED: frozenset(),
}

#: Terminal states: no transition may leave them.
TERMINAL_STATES: frozenset[EventState] = frozenset(
    state for state, successors in LEGAL_TRANSITIONS.items()
    if not successors)


class IllegalTransitionError(SimulationError):
    """An event attempted a move the lifecycle does not allow."""


#: The states of an event that sits in the scheduler queue.
_QUEUE_STATES = frozenset({EventState.QUEUED, EventState.PROBED})

_STATE_OF = operator.attrgetter("state")

#: The row fields a terminal journal record carries, in record order.
RECORD_FIELDS: tuple[str, ...] = (
    "event_id", "arrival_time", "flow_count", "exec_start_time",
    "setup_done_time", "completion_time", "cost", "migrations",
    "rounds_waited", "deferrals", "dropped", "stage_count",
    "max_transient_overload")


@dataclass(slots=True)
class EventRecord:
    """The one row of an update event: lifecycle position, metric inputs
    and the pipeline's per-event counters.

    ``stage_count`` sums the compiled schedule lengths of the event's
    admissions; ``max_transient_overload`` is the worst fractional
    capacity overshoot any of its stages caused. ``rounds_waited`` counts
    the rounds settled while the event sat in the queue; while it sits
    there, ``waiting_since`` is the settled-round count its stay was
    charged up to. ``outstanding`` counts its admitted flows still
    transmitting; ``done_queueing`` marks every flow admitted.
    """

    event_id: str
    arrival_time: float
    flow_count: int
    exec_start_time: float | None = None
    setup_done_time: float | None = None
    completion_time: float | None = None
    cost: float = 0.0
    migrations: int = 0
    rounds_waited: int = 0
    deferrals: int = 0
    stage_count: int = 0
    max_transient_overload: float = 0.0
    state: EventState = EventState.QUEUED
    origin: str = "submitted"
    index: int = 0
    waiting_since: int = 0
    outstanding: int = 0
    done_queueing: bool = False

    @property
    def dropped(self) -> bool:
        return self.state is EventState.DROPPED

    @property
    def completed(self) -> bool:
        return self.completion_time is not None

    @property
    def ect(self) -> float:
        """Event completion time (paper's ECT)."""
        if self.completion_time is None:
            raise ValueError(f"event {self.event_id} has not completed")
        return self.completion_time - self.arrival_time

    @property
    def queuing_delay(self) -> float:
        """Time spent queued before execution began."""
        if self.exec_start_time is None:
            raise ValueError(f"event {self.event_id} never started")
        return self.exec_start_time - self.arrival_time


class EventLifecycle:
    """One :class:`EventRecord` per registered event, moved only through
    the state machine. The per-state populations are kept in the same
    call, so :meth:`counts` is O(1) in the number of events; the
    queue-stay clock is the number of settled rounds (:meth:`settle_round`).
    """

    def __init__(self) -> None:
        self._rows: dict[str, EventRecord] = {}
        self._counts: dict[EventState, int] = {s: 0 for s in EventState}
        self._rounds_settled = 0
        #: The latest completion or drop time so far.
        self.makespan = 0.0

    # ------------------------------------------------------------- mutation

    def register(self, event_id: str, at: float, origin: str = "submitted",
                 flow_count: int = 0) -> EventRecord:
        """Enter a new event into the lifecycle in ``QUEUED``.

        Args:
            event_id: the event's unique id.
            at: simulated registration (arrival) time.
            origin: provenance label (``"submitted"`` for user events,
                ``"repair"`` for failure-generated repair events).
            flow_count: the event's flows.

        Raises:
            IllegalTransitionError: the id is already registered.
        """
        if event_id in self._rows:
            raise IllegalTransitionError(
                f"event {event_id} registered twice (currently "
                f"{self._rows[event_id].state.value})")
        row = self._rows[event_id] = EventRecord(
            event_id=event_id, arrival_time=at, flow_count=flow_count,
            origin=origin, index=len(self._rows),
            waiting_since=self._rounds_settled)
        self._counts[EventState.QUEUED] += 1
        return row

    def advance(self, event_id: str, to: EventState,
                at: float) -> EventRecord:
        """Move ``event_id`` to state ``to``, asserting legality.

        Entering the queue opens a stay, leaving it charges the rounds
        settled during the stay; a terminal move stamps ``at`` (the
        completion time of a completed event).

        Raises:
            IllegalTransitionError: the event is unknown, the target state
                is not reachable from its current state, or the event is
                already in a terminal state.
        """
        try:
            row = self._rows[event_id]
        except KeyError:
            raise IllegalTransitionError(
                f"unknown event {event_id}; register() it first") from None
        current = row.state
        if to not in LEGAL_TRANSITIONS[current]:
            raise IllegalTransitionError(
                f"illegal transition for event {event_id}: "
                f"{current.value} → {to.value} (legal: "
                f"{sorted(s.value for s in LEGAL_TRANSITIONS[current])})")
        self._counts[current] -= 1
        self._counts[to] += 1
        row.state = to
        queued = to in _QUEUE_STATES
        if queued != (current in _QUEUE_STATES):
            if queued:
                row.waiting_since = self._rounds_settled
            else:
                row.rounds_waited += self._rounds_settled - row.waiting_since
        if to in TERMINAL_STATES:
            if to is EventState.COMPLETED:
                row.completion_time = at
            self.makespan = max(self.makespan, at)
        return row

    def settle_round(self) -> None:
        """A round settled: every open queue stay waited one more."""
        self._rounds_settled += 1

    # -------------------------------------------------------------- queries

    def row(self, event_id: str) -> EventRecord:
        """The row of ``event_id`` (raises ``KeyError`` if unknown)."""
        return self._rows[event_id]

    def state(self, event_id: str) -> EventState:
        """Current state of ``event_id`` (raises ``KeyError`` if unknown)."""
        return self._rows[event_id].state

    def states(self, event_ids: Iterable[str]) -> list[EventState]:
        """The current state of each of ``event_ids``, in order."""
        return list(map(_STATE_OF, map(self._rows.__getitem__, event_ids)))

    def records(self) -> dict[str, EventRecord]:
        """Every row in registration order, open queue stays charged up to
        the last settled round."""
        now = self._rounds_settled
        for row in self._rows.values():
            if row.state in _QUEUE_STATES:
                row.rounds_waited += now - row.waiting_since
                row.waiting_since = now
        return dict(self._rows)

    def settled_entry(self, event_id: str) -> dict[str, Any]:
        """Registration index and origin of a completed or dropped event
        (what its terminal journal record carries).

        Raises:
            IllegalTransitionError: the event has not settled.
        """
        row = self._rows[event_id]
        if row.state not in TERMINAL_STATES:
            raise IllegalTransitionError(
                f"event {event_id} has not settled ({row.state.value})")
        return {"index": row.index, "origin": row.origin}

    def counts(self) -> dict[EventState, int]:
        """Current population of every state (zero entries included)."""
        return dict(self._counts)

    @property
    def remaining(self) -> int:
        """Events registered but neither completed nor dropped."""
        return (len(self._rows) - self._counts[EventState.COMPLETED]
                - self._counts[EventState.DROPPED])

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        alive = {state.value: count for state, count in self.counts().items()
                 if count}
        return f"<EventLifecycle {len(self)} events {alive}>"
