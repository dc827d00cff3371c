"""Inter-event scheduler interface (paper §III-C / §IV).

A scheduler is consulted once per *round*: it inspects the queue of pending
update events, probes update costs against the live network through the
planner (on throwaway views — probing never mutates state), and returns the
set of admissions to execute this round. The simulator then charges the
planning time, applies the admitted plans, and starts the next round when the
admitted events complete.

Admissions may cover a whole event (event-level schedulers) or a single flow
of an event (the flow-level baseline) — the simulator tracks per-event
remaining flows either way.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.event import UpdateEvent
from repro.core.flow import Flow
from repro.core.plan import EventPlan
from repro.core.planner import EventPlanner
from repro.network.state import NetworkState
from repro.sim.lifecycle import TransitionRecord


@dataclass
class QueuedEvent:
    """An update event waiting in the queue, with its unadmitted flows.

    ``seq`` is the enqueue sequence number: it defines the FIFO order, which
    arrival timestamps alone cannot when a batch of events arrives at the
    same instant.
    """

    event: UpdateEvent
    remaining: list[Flow] = field(default_factory=list)
    seq: int = 0

    def __post_init__(self) -> None:
        if not self.remaining:
            self.remaining = list(self.event.flows)

    @property
    def done(self) -> bool:
        """True when every flow of the event has been admitted."""
        return not self.remaining

    @property
    def arrival_time(self) -> float:
        return self.event.arrival_time

    def subevent(self, flows: list[Flow]) -> UpdateEvent:
        """A same-id event containing only ``flows`` (for partial planning)."""
        return UpdateEvent(event_id=self.event.event_id, flows=tuple(flows),
                           arrival_time=self.event.arrival_time,
                           label=self.event.label)


@dataclass
class Admission:
    """One planned unit of work admitted into the current round."""

    queued: QueuedEvent
    plan: EventPlan

    @property
    def flows(self) -> tuple[Flow, ...]:
        return tuple(fp.flow for fp in self.plan.flow_plans)

    @property
    def completes_event(self) -> bool:
        """True when, after this admission, the event has no flows left."""
        admitted = {f.flow_id for f in self.flows}
        return all(f.flow_id in admitted for f in self.queued.remaining)


@dataclass
class RoundDecision:
    """What a scheduler decided for one round.

    ``planning_ops`` counts the *modeled* planning work and is charged as
    simulated plan time whether or not probes were served from cache — the
    probe cache (:mod:`repro.sched.cache`) is a wall-clock optimization of
    the scheduler itself, not of the modeled controller, and keeps cached
    and uncached runs bit-identical. The ``cache_*`` counters report how
    many of the round's cost probes hit, missed, or were invalidated.

    ``transitions`` is filled by the round pipeline, not by schedulers: it
    records the PROBED→ADMITTED lifecycle moves this decision caused (one
    per admission), timestamped at decision time.

    The ``probes_skipped`` / ``prediction_*`` / ``fallback`` fields are the
    learned-ranking telemetry (:mod:`repro.sched.learned`): how many
    sampled candidates went unprobed under the ranking budget, how many
    (features, actual cost) training pairs the round produced with their
    summed pre-update absolute error (log1p-cost scale), and whether the
    round fell back to full probing. Exact schedulers leave them at their
    zero defaults.

    ``predicted_stages`` maps the head admission's event id to the
    compiled schedule length the scheduler *predicted* when it tie-broke
    on short schedules (:mod:`repro.sched.staged`); batch-mates merged
    after the head and schedulers that never compile leave no entry.
    Purely diagnostic — the executor compiles every admission itself, and
    ``ExecutionRecord.stage_count`` / ``EventAdmitted`` carry the real
    count.

    ``probed`` names the queued events the scheduler actually cost-probed
    this round — the ``α+1`` sample for the LMTF family (paper §IV-B/C:
    "checks only the sampled candidates, not the whole queue"). The
    pipeline moves exactly these through the PROBED lifecycle state, so a
    round's bookkeeping is O(α), not O(queue). ``None`` means "the whole
    queue": policies that walk the queue (FIFO, flow-level, the oracle)
    leave it unset.
    """

    admissions: list[Admission] = field(default_factory=list)
    planning_ops: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_invalidations: int = 0
    probes_skipped: int = 0
    prediction_samples: int = 0
    prediction_error_sum: float = 0.0
    fallback: bool = False
    transitions: list[TransitionRecord] = field(default_factory=list)
    predicted_stages: dict[str, int] = field(default_factory=dict)
    probed: Sequence[QueuedEvent] | None = None

    @property
    def empty(self) -> bool:
        return not self.admissions


@dataclass
class SchedulingContext:
    """Everything a scheduler may consult when making a round decision.

    ``queue`` is the waiting events in arrival order: the pipeline's live
    :class:`~repro.sim.queue.IndexedQueue`, passed by reference. No stage
    mutates it between collect and admit, and schedulers must not either.
    """

    now: float
    queue: Sequence[QueuedEvent]
    planner: EventPlanner
    network: NetworkState
    rng: random.Random


class Scheduler(abc.ABC):
    """Base class for inter-event scheduling policies."""

    #: Policy name used in reports and figures.
    name: str = "scheduler"

    @abc.abstractmethod
    def select(self, ctx: SchedulingContext) -> RoundDecision:
        """Decide what to execute this round.

        Implementations must plan via ``ctx.planner`` with ``commit=False``
        (or on views) so the live network is untouched; the simulator applies
        the returned plans itself. An empty decision means "nothing feasible
        right now — wake me when the network state changes".
        """

    def reset(self) -> None:
        """Clear any per-run internal state (round-robin pointers etc.)."""

    # ------------------------------------------------------- checkpointing
    #
    # Crash-recovery checkpoints must capture whatever scheduler state
    # affects future decisions (sampling RNGs, online models, EWMAs) so a
    # restored run draws the exact same candidate samples. Stateless
    # policies inherit the empty default; caches/memos that only change
    # wall-clock behavior (never decisions) are deliberately excluded and
    # restart cold.

    def export_state(self) -> dict[str, Any]:
        """JSON-ready encoding of decision-affecting mutable state."""
        return {}

    def restore_state(self, state: dict[str, Any]) -> None:
        """Restore from :meth:`export_state` output."""

    # --------------------------------------------------------------- helpers

    @staticmethod
    def plan_whole_event(ctx: SchedulingContext, queued: QueuedEvent,
                         state: NetworkState | None = None) -> EventPlan:
        """Plan all remaining flows of ``queued`` without committing."""
        target = state if state is not None else ctx.network
        return ctx.planner.plan_event(
            target, queued.subevent(queued.remaining), ctx.rng, commit=False)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
