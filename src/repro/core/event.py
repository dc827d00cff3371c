"""The event-level abstraction of network update (paper Definition 2).

An update event groups the flows created by one updating issue — a switch
upgrade, a VM migration, a failure repair — into a single schedulable entity
``U = {f_1, ..., f_w}``. The event completes only when *all* of its flows have
completed; its completion time relative to its arrival is the event completion
time (ECT), the metric the paper optimizes.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from repro.core.flow import Flow, FlowKind

_event_counter = itertools.count()


def event_id_state() -> int:
    """The next integer :func:`next_event_id` would hand out (see
    :func:`repro.core.flow.flow_id_state` for why runners snapshot it)."""
    global _event_counter
    value = next(_event_counter)
    _event_counter = itertools.count(value)
    return value


def set_event_id_state(value: int) -> None:
    """Reset the event-id counter so the next id is ``U{value}``."""
    global _event_counter
    _event_counter = itertools.count(value)


def next_event_id() -> str:
    """Return a process-unique event id (``U0``, ``U1``, ...)."""
    return f"U{next(_event_counter)}"


class EventState(enum.Enum):
    """Lifecycle of an update event inside the scheduler."""

    QUEUED = "queued"
    EXECUTING = "executing"
    COMPLETED = "completed"


@dataclass
class UpdateEvent:
    """A network-update event: a set of flows scheduled as one entity.

    Attributes:
        event_id: unique identifier.
        flows: the flows this event must insert into the network. Every flow
            should carry ``event_id == self.event_id`` and
            ``kind == FlowKind.UPDATE``; :func:`make_event` guarantees this.
        arrival_time: simulated time at which the event entered the queue.
        label: free-form description ("upgrade switch a3", "migrate VM 17").
    """

    event_id: str
    flows: tuple[Flow, ...]
    arrival_time: float = 0.0
    label: str = ""
    state: EventState = field(default=EventState.QUEUED, compare=False)

    def __post_init__(self):
        if not self.flows:
            raise ValueError(f"event {self.event_id}: an update event must "
                             f"contain at least one flow")
        for flow in self.flows:
            if flow.event_id != self.event_id:
                raise ValueError(
                    f"event {self.event_id}: flow {flow.flow_id} carries "
                    f"event_id {flow.event_id!r}; use make_event() to build "
                    f"consistent events")

    def __len__(self) -> int:
        return len(self.flows)

    def __iter__(self):
        return iter(self.flows)

    @property
    def total_demand(self) -> float:
        """Sum of bandwidth demands over the event's flows (Mbit/s)."""
        return sum(f.demand for f in self.flows)

    @property
    def max_service_time(self) -> float:
        """Longest flow transmission time; the event's flows run in parallel
        once installed, so this bounds the event's execution phase."""
        return max(f.service_time for f in self.flows)

    def to_payload(self) -> dict:
        """JSON-ready encoding, as the journal's ``ingest`` record holds
        it."""
        return {"event_id": self.event_id,
                "flows": [f.to_payload() for f in self.flows],
                "arrival_time": self.arrival_time, "label": self.label}


def make_event(flows, arrival_time: float = 0.0, label: str = "",
               event_id: str | None = None) -> UpdateEvent:
    """Build an :class:`UpdateEvent`, stamping every flow with the event id.

    Args:
        flows: iterable of :class:`Flow`; each is copied with ``event_id``
            set to the new event's id and ``kind`` set to ``UPDATE``.
        arrival_time: when the event joins the update queue.
        label: human-readable description.
        event_id: explicit id; autogenerated when ``None``.
    """
    eid = event_id if event_id is not None else next_event_id()
    stamped = tuple(
        f.replace(event_id=eid, kind=FlowKind.UPDATE) for f in flows)
    return UpdateEvent(event_id=eid, flows=stamped,
                       arrival_time=arrival_time, label=label)
