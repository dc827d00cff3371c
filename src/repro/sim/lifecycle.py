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
turning silent bookkeeping bugs into loud ones — and keeps a bounded
per-event transition history for diagnostics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Iterable, TypeVar

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


#: The journal's terminal record kinds and the state each one settles.
OUTCOME_STATES: dict[str, EventState] = {
    "complete": EventState.COMPLETED, "drop": EventState.DROPPED}

_T = TypeVar("_T")


def in_registration_order(settled: Iterable[tuple[int, _T]],
                          live: Iterable[_T]) -> list[_T]:
    """Rebuild a registration-ordered population from its two halves.

    A checkpoint stores the live events in registration order; the
    journal's terminal records hold the settled ones in *settlement*
    order, each with the registration index it had. The terminal events
    take their recorded slots and the live ones fill the gaps in the order
    they come.

    Raises:
        ValueError: the halves do not tile one sequence (an index out of
            range or taken twice) — they come from different runs.
    """
    settled = list(settled)
    placed = dict(settled)
    rest = list(live)
    total = len(settled) + len(rest)
    if (len(placed) != len(settled)
            or any(not 0 <= index < total for index in placed)):
        raise ValueError(
            f"settled registration indices do not tile {total} events")
    gaps = iter(rest)
    return [placed[index] if index in placed else next(gaps)
            for index in range(total)]


class IllegalTransitionError(SimulationError):
    """An event attempted a move the lifecycle does not allow."""


@dataclass(frozen=True)
class TransitionRecord:
    """One applied lifecycle move, timestamped in simulated seconds.

    ``frm`` is ``None`` for the registration move into ``QUEUED``.
    """

    event_id: str
    frm: EventState | None
    to: EventState
    at: float

    def __str__(self) -> str:
        frm = self.frm.value if self.frm is not None else "∅"
        return f"{self.event_id}: {frm}→{self.to.value} @t={self.at:.6f}"


class EventLifecycle:
    """Per-event state registry enforcing the lifecycle state machine.

    Args:
        history_limit: transition records kept per event (oldest evicted
            first). Probe/requeue churn is bounded per round, so a small
            window is enough to reconstruct how an event reached a state.
    """

    def __init__(self, history_limit: int = 32):
        if history_limit < 1:
            raise ValueError("history_limit must be >= 1")
        self._states: dict[str, EventState] = {}
        self._origins: dict[str, str] = {}
        self._history: dict[str, list[TransitionRecord]] = {}
        self._history_limit = history_limit
        self._transitions = 0
        # Non-terminal events -> registration index, so a checkpoint
        # exports the live entries in O(live) whatever the age of the
        # registry. An event leaves it when it settles; its index stays in
        # ``_last_settled`` until the next one settles.
        self._live: dict[str, int] = {}
        self._last_settled: tuple[str, int] | None = None
        # State populations maintained incrementally so counts() stays O(1)
        # in the number of registered events — the lifecycle auditor reads
        # it on every round of an unbounded service run.
        self._counts: dict[EventState, int] = {s: 0 for s in EventState}

    # ------------------------------------------------------------- mutation

    def register(self, event_id: str, at: float,
                 origin: str = "submitted") -> TransitionRecord:
        """Enter a new event into the lifecycle in ``QUEUED``.

        Args:
            event_id: the event's unique id.
            at: simulated registration time.
            origin: provenance label (``"submitted"`` for user events,
                ``"repair"`` for failure-generated repair events).

        Raises:
            IllegalTransitionError: the id is already registered.
        """
        if event_id in self._states:
            raise IllegalTransitionError(
                f"event {event_id} registered twice (currently "
                f"{self._states[event_id].value})")
        self._origins[event_id] = origin
        self._live[event_id] = len(self._states)
        return self._apply(event_id, None, EventState.QUEUED, at)

    def advance(self, event_id: str, to: EventState,
                at: float) -> TransitionRecord:
        """Move ``event_id`` to state ``to``, asserting legality.

        Raises:
            IllegalTransitionError: the event is unknown, the target state
                is not reachable from its current state, or the event is
                already in a terminal state.
        """
        try:
            current = self._states[event_id]
        except KeyError:
            raise IllegalTransitionError(
                f"unknown event {event_id}; register() it first") from None
        if to not in LEGAL_TRANSITIONS[current]:
            raise IllegalTransitionError(
                f"illegal transition for event {event_id}: "
                f"{current.value} → {to.value} (legal: "
                f"{sorted(s.value for s in LEGAL_TRANSITIONS[current])})")
        return self._apply(event_id, current, to, at)

    def _apply(self, event_id: str, frm: EventState | None,
               to: EventState, at: float) -> TransitionRecord:
        record = TransitionRecord(event_id=event_id, frm=frm, to=to, at=at)
        if frm is not None:
            self._counts[frm] -= 1
        self._counts[to] += 1
        self._states[event_id] = to
        if to in TERMINAL_STATES:
            self._last_settled = (event_id, self._live.pop(event_id))
        history = self._history.setdefault(event_id, [])
        history.append(record)
        if len(history) > self._history_limit:
            del history[0]
        self._transitions += 1
        return record

    # -------------------------------------------------------- checkpointing

    def export_state(self) -> dict[str, Any]:
        """JSON-ready encoding of the *live* part of the registry.

        Carries the non-terminal events (state, origin, bounded transition
        history), the per-state populations and the transition counter.
        Terminal entries never change again; the journal's terminal
        record carries each one (:meth:`settled_entry`), so a checkpoint
        costs O(live events) however long the service has run.
        """
        return {
            "states": {eid: self._states[eid].value for eid in self._live},
            "origins": {eid: self._origins[eid] for eid in self._live},
            "counts": {s.value: n for s, n in self._counts.items()},
            "transitions": self._transitions,
            "histories": {
                eid: [{"frm": r.frm.value if r.frm is not None else None,
                       "to": r.to.value, "at": r.at}
                      for r in self._history.get(eid, ())]
                for eid in self._live},
        }

    def settled_entry(self, event_id: str) -> dict[str, Any]:
        """Registration index and origin of ``event_id``, the event that
        settled last (read while its terminal hook is being handled).

        Raises:
            IllegalTransitionError: another event settled after it, or
                none has.
        """
        if self._last_settled is None or self._last_settled[0] != event_id:
            raise IllegalTransitionError(
                f"event {event_id} is not the event that settled last "
                f"({self._last_settled!r})")
        return {"index": self._last_settled[1],
                "origin": self._origins[event_id]}

    def restore_state(self, state: dict[str, Any],
                      settled: list[dict[str, Any]]) -> None:
        """Overwrite this registry from :meth:`export_state` output plus
        the terminal journal records (``kind``, ``event`` and the
        :meth:`settled_entry` fields) of every event settled before it."""
        if self._states:
            raise IllegalTransitionError(
                "restore_state requires an empty lifecycle registry")
        entries = in_registration_order(
            ((e["index"], (e["event"], OUTCOME_STATES[e["kind"]],
                           e["origin"]))
             for e in settled),
            ((eid, EventState(value), state["origins"][eid])
             for eid, value in state["states"].items()))
        self._states = {eid: to for eid, to, _ in entries}
        self._origins = {eid: origin for eid, _, origin in entries}
        self._live = {eid: index for index, (eid, _, _) in enumerate(entries)
                      if eid in state["states"]}
        self._transitions = int(state["transitions"])
        self._counts = {s: int(state["counts"][s.value]) for s in EventState}
        self._history = {
            eid: [TransitionRecord(
                event_id=eid,
                frm=EventState(r["frm"]) if r["frm"] is not None else None,
                to=EventState(r["to"]), at=r["at"])
                for r in records]
            for eid, records in state["histories"].items()}

    # -------------------------------------------------------------- queries

    def state(self, event_id: str) -> EventState:
        """Current state of ``event_id`` (raises ``KeyError`` if unknown)."""
        return self._states[event_id]

    def knows(self, event_id: str) -> bool:
        return event_id in self._states

    def origin(self, event_id: str) -> str:
        """Provenance label given at registration."""
        return self._origins[event_id]

    def history(self, event_id: str) -> tuple[TransitionRecord, ...]:
        """Recent transition records of one event, oldest first."""
        return tuple(self._history.get(event_id, ()))

    def in_state(self, state: EventState) -> tuple[str, ...]:
        """Ids of all events currently in ``state``, registration order."""
        return tuple(eid for eid, s in self._states.items() if s is state)

    @property
    def transition_count(self) -> int:
        """Total transitions applied (registrations included)."""
        return self._transitions

    def counts(self) -> dict[EventState, int]:
        """Current population of every state (zero entries included)."""
        return dict(self._counts)

    def __len__(self) -> int:
        return len(self._states)

    def __repr__(self) -> str:
        alive = {state.value: count for state, count in self.counts().items()
                 if count}
        return f"<EventLifecycle {len(self)} events {alive}>"
