"""The unsplittable flow abstraction (paper §III-A).

A flow ``f`` has a fixed bandwidth demand ``d^f`` and is forwarded along a
single path; it consumes ``d^f`` on every link of that path for its whole
lifetime. The paper's congestion-free constraints are enforced by the network
substrate (:mod:`repro.network`), not here — a :class:`Flow` is a pure value
object and placement state (the chosen path, the start time) lives in the
network and simulator.

Units used throughout the library:

* bandwidth / demand / capacity — **Mbit/s** (so a 1 Gbps link is 1000.0),
* flow size — **Mbit**,
* time — **seconds** (``duration = size / demand`` for a trace flow).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from repro.network.link import path_links

_flow_counter = itertools.count()


def flow_id_state() -> int:
    """The next integer :func:`next_flow_id` would hand out.

    Flow ids feed the ECMP-style path hash
    (:meth:`~repro.core.planner.EventPlanner.desired_path`), so simulation
    results depend on the counter state at scenario-build time. The
    experiment runner snapshots and restores it around each cell to make
    every cell's result a pure function of its spec.
    """
    global _flow_counter
    value = next(_flow_counter)
    _flow_counter = itertools.count(value)
    return value


def set_flow_id_state(value: int) -> None:
    """Reset the flow-id counter so the next id is ``f{value}``.

    Only safe when flows minted under the old counter state will never share
    a network with flows minted under the new one (hermetic experiment
    cells); colliding ids would corrupt placement bookkeeping.
    """
    global _flow_counter
    _flow_counter = itertools.count(value)


class FlowKind(enum.Enum):
    """Why a flow exists; only used for bookkeeping and reporting."""

    BACKGROUND = "background"
    """Pre-existing traffic injected to reach a target utilization."""

    UPDATE = "update"
    """A flow belonging to an update event (new or rerouted by the event)."""


def next_flow_id() -> str:
    """Return a process-unique flow id (``f0``, ``f1``, ...)."""
    return f"f{next(_flow_counter)}"


@dataclass(frozen=True, slots=True)
class Flow:
    """An unsplittable flow with a fixed bandwidth demand.

    Attributes:
        flow_id: unique identifier.
        src: source host (a node name in the topology).
        dst: destination host.
        demand: bandwidth requirement ``d^f`` in Mbit/s; must be positive.
        size: flow volume in Mbit; ``0`` means "no intrinsic size" (the
            duration must then be given explicitly).
        duration: transmission time in seconds once the flow starts. When
            ``None`` it is derived as ``size / demand``.
        event_id: id of the owning update event, or ``None`` for background.
        kind: background vs. update-event flow.
    """

    flow_id: str
    src: str
    dst: str
    demand: float
    size: float = 0.0
    duration: float | None = None
    event_id: str | None = None
    kind: FlowKind = FlowKind.BACKGROUND

    def __post_init__(self):
        if self.demand <= 0:
            raise ValueError(f"flow {self.flow_id}: demand must be positive, "
                             f"got {self.demand}")
        if self.size < 0:
            raise ValueError(f"flow {self.flow_id}: size must be >= 0")
        if self.duration is not None and self.duration < 0:
            raise ValueError(f"flow {self.flow_id}: duration must be >= 0")
        if self.src == self.dst:
            raise ValueError(f"flow {self.flow_id}: src and dst are both "
                             f"{self.src!r}; a flow needs two endpoints")

    @property
    def service_time(self) -> float:
        """Transmission time in seconds once the flow is placed.

        Explicit ``duration`` wins; otherwise it is derived from the size.
        A flow with neither (size 0, duration None) is treated as permanent
        and reports ``inf`` — useful for static background traffic.
        """
        if self.duration is not None:
            return self.duration
        if self.size > 0:
            return self.size / self.demand
        return float("inf")

    def replace(self, **changes) -> "Flow":
        """Return a copy of this flow with the given fields replaced."""
        from dataclasses import replace as _replace
        return _replace(self, **changes)

    def to_payload(self) -> dict:
        """JSON-ready encoding (floats in repr form, so the journal's
        byte-for-byte replay check sees every bit of a demand)."""
        return {"flow_id": self.flow_id, "src": self.src, "dst": self.dst,
                "demand": self.demand, "size": self.size,
                "duration": self.duration, "event_id": self.event_id,
                "kind": self.kind.value}


@dataclass(frozen=True, slots=True)
class Placement:
    """A flow together with the path it occupies in the network.

    Flows and placements are slotted: a loaded k=8 Fat-Tree holds thousands
    of each, and neither carries a per-instance ``__dict__``.
    """

    flow: Flow
    path: tuple[str, ...]

    def __post_init__(self):
        if len(self.path) < 2:
            raise ValueError("a placement path needs at least two nodes")
        if self.path[0] != self.flow.src or self.path[-1] != self.flow.dst:
            raise ValueError(
                f"path endpoints {self.path[0]!r}->{self.path[-1]!r} do not "
                f"match flow endpoints {self.flow.src!r}->{self.flow.dst!r}")

    @property
    def links(self) -> tuple[tuple[str, str], ...]:
        """The directed links traversed by the path, derived on each read;
        the kernel's hot loops read a candidate path's ``link_idx``
        instead."""
        return path_links(self.path)
