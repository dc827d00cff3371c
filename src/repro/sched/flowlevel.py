"""The flow-level scheduling baseline (paper §II, Fig. 2(a)).

Prior update schemes treat each flow of an update event in isolation: the
update engine processes one flow per round, regardless of which event the
flow belongs to, and an event only completes when its last straggler flow
does. Two orderings are provided:

* ``interleave`` (default) — round-robin across the queued events, matching
  Fig. 2(a): with three events of unit-time flows the events complete at
  9/11/12 slots instead of the event-level 3/7/12.
* ``arrival`` — strictly drain the earliest event's flows first. This is the
  degenerate case where flow-level and event-level FIFO orderings coincide;
  the event-level advantage then comes only from intra-event parallelism.
"""

from __future__ import annotations

from typing import Sequence

from repro.sched.base import (
    Admission,
    QueuedEvent,
    RoundDecision,
    Scheduler,
    SchedulingContext,
)

ORDERS = ("interleave", "arrival")


class FlowLevelScheduler(Scheduler):
    """Admit one flow per round, ignoring event boundaries.

    Args:
        order: ``interleave`` (round-robin across events, the paper's
            depiction) or ``arrival`` (drain events one by one).
    """

    name = "flow-level"

    def __init__(self, order: str = "interleave"):
        if order not in ORDERS:
            raise ValueError(f"unknown flow order {order!r}; "
                             f"pick one of {ORDERS}")
        self.order = order
        self._rr_next = 0

    def reset(self) -> None:
        self._rr_next = 0

    def select(self, ctx: SchedulingContext) -> RoundDecision:
        if not ctx.queue:
            return RoundDecision()
        ops = 0
        for queued in self._candidates(ctx.queue):
            flow = queued.remaining[0]
            plan = ctx.planner.plan_event(
                ctx.network, queued.subevent([flow]), ctx.rng, commit=False)
            ops += plan.planning_ops
            if plan.feasible:
                return RoundDecision(
                    admissions=[Admission(queued=queued, plan=plan)],
                    planning_ops=ops)
            if self.order == "arrival":
                # Strict arrival order never skips a blocked flow.
                return RoundDecision(planning_ops=ops)
        return RoundDecision(planning_ops=ops)

    def _candidates(self,
                    queue: Sequence[QueuedEvent]) -> list[QueuedEvent]:
        """Queue rotated to the round-robin cursor (or as-is for arrival)."""
        ordered = list(queue)
        if self.order == "arrival":
            return ordered
        start = self._rr_next % len(ordered)
        self._rr_next = start + 1
        return ordered[start:] + ordered[:start]
