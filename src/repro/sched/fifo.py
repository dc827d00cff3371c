"""FIFO: strict arrival-order event scheduling (the paper's fairness
baseline).

FIFO guarantees strict fairness and is optimal for tail ECT when event
durations are similar (paper §IV-B, citing Wierman & Zwart), but suffers
head-of-line blocking under heavy-tailed event sizes: a heavy head event
occupies the network while many small later events wait.
"""

from __future__ import annotations

from repro.sched.base import (
    Admission,
    RoundDecision,
    Scheduler,
    SchedulingContext,
)


class FIFOScheduler(Scheduler):
    """Execute exactly the head event each round, or wait."""

    name = "fifo"

    def select(self, ctx: SchedulingContext) -> RoundDecision:
        if not ctx.queue:
            return RoundDecision()
        head = ctx.queue[0]
        plan = self.plan_whole_event(ctx, head)
        if not plan.feasible:
            # Strict FIFO never jumps the queue; wait for state to change.
            return RoundDecision(planning_ops=plan.planning_ops)
        return RoundDecision(admissions=[Admission(queued=head, plan=plan)],
                             planning_ops=plan.planning_ops)
