"""Schedule-length-aware LMTF variants (plan compilation in the loop).

The staged policies run the exact LMTF/P-LMTF machinery but, when two
candidates probe at the same update cost, prefer the one whose plan
*compiles* into the shorter congestion-free schedule
(:mod:`repro.core.compile`). The intuition follows the short-schedules
line of work: with consistency enforced stage by stage, an event's real
completion time grows with its schedule length, so among equal-cost
candidates the short schedule is the fair pick.

The stage count only breaks cost ties, so only the feasible probes at the
round's minimum cost are compiled — a read-only probe against the round's
network state; most of them are one-stage plans the compiler certifies
in a single pass. The head pick's predicted length is reported in
:attr:`RoundDecision.predicted_stages`. The executor compiles every
admission itself at execute time, under the run's compile mode, and its
:class:`~repro.core.executor.ExecutionRecord` carries the count that ran.
"""

from __future__ import annotations

from repro.core.compile import PlanCompilerConfig, compile_plan
from repro.core.plan import EventPlan
from repro.sched.base import (
    Admission,
    QueuedEvent,
    RoundDecision,
    SchedulingContext,
)
from repro.sched.lmtf import LMTFScheduler
from repro.sched.plmtf import PLMTFScheduler


class StagedCompileMixin:
    """Shared staged-pick logic for the LMTF-family schedulers.

    Hosts the compiler config and the ``(cost, stage_count, arrival, seq)``
    pick rule. The stage count only ever *tie-breaks* equal costs, so a
    staged policy admits the same events as its base policy whenever costs
    are distinct — it reorders only genuine ties.
    """

    compiler: PlanCompilerConfig

    def _init_compiler(self, mode: str, epsilon: float) -> None:
        self.compiler = PlanCompilerConfig(mode=mode, epsilon=epsilon)

    def predict_stages(self, state, plan: EventPlan) -> int:
        """Compiled schedule length of ``plan`` against ``state`` (read-only)."""
        return compile_plan(state, plan, self.compiler).stage_count

    def pick_staged(self, ctx: SchedulingContext,
                    probes: list[tuple[QueuedEvent, EventPlan]],
                    ) -> tuple[tuple[QueuedEvent, EventPlan], int] | None:
        """The feasible probe minimizing ``(cost, stages, arrival, seq)``.

        Identical to :meth:`LMTFScheduler.pick_cheapest` except that the
        compiled schedule length outranks arrival order on cost ties.
        Only probes at the minimum cost are compiled: the stage count
        never decides between different costs. Returns the winning probe
        with its predicted stage count.
        """
        feasible = [probe for probe in probes if probe[1].feasible]
        if not feasible:
            return None
        cost = min(plan.cost for _, plan in feasible)
        tied = [probe for probe in feasible if probe[1].cost == cost]
        stages = [self.predict_stages(ctx.network, plan) for _, plan in tied]
        best = min(range(len(tied)), key=lambda i: (
            stages[i], tied[i][0].arrival_time, tied[i][0].seq))
        return tied[best], stages[best]


class StagedLMTFScheduler(StagedCompileMixin, LMTFScheduler):
    """LMTF with compiled-schedule-length cost tie-breaking.

    Args:
        alpha: number of random non-head candidates per round (> 0).
        seed: seed for the sampling RNG.
        probe_cache: memoize cost probes by link footprint (default on).
        mode: compile mode predictions run under (``staged`` by default;
            ``augmented`` predicts the ε-shortened schedules).
        epsilon: the augmentation knob (``augmented`` mode only).
    """

    name = "staged-lmtf"

    def __init__(self, alpha: int = 4, seed: int = 0,
                 probe_cache: bool = True,
                 mode: str = "staged", epsilon: float = 0.0):
        super().__init__(alpha=alpha, seed=seed, probe_cache=probe_cache)
        self._init_compiler(mode, epsilon)

    def decide(self, ctx: SchedulingContext,
               probes: list[tuple[QueuedEvent, EventPlan]],
               ops: int) -> RoundDecision:
        """Admit the cheapest feasible probe, short schedules first on ties."""
        picked = self.pick_staged(ctx, probes)
        if picked is None:
            return self._finish(RoundDecision(planning_ops=ops))
        (queued, plan), stages = picked
        decision = RoundDecision(
            admissions=[Admission(queued=queued, plan=plan)],
            planning_ops=ops)
        decision.predicted_stages[queued.event.event_id] = stages
        return self._finish(decision)


class StagedPLMTFScheduler(StagedCompileMixin, PLMTFScheduler):
    """P-LMTF with compiled-schedule-length cost tie-breaking on the head.

    Step 1 (the LMTF pick) uses the staged tie-break; step 2's
    opportunistic batch merge is inherited unchanged — parallel admissions
    are a strict win regardless of their schedule lengths, so only the
    head's predicted length is reported.

    Args:
        alpha: number of random non-head candidates per round (> 0).
        seed: seed for the sampling RNG.
        admit: compatibility test for opportunistic candidates (see
            :class:`~repro.sched.plmtf.PLMTFScheduler`).
        probe_cache: memoize cost probes by link footprint (default on).
        mode: compile mode predictions run under.
        epsilon: the augmentation knob (``augmented`` mode only).
    """

    name = "staged-plmtf"

    def __init__(self, alpha: int = 4, seed: int = 0, admit: str = "shared",
                 probe_cache: bool = True,
                 mode: str = "staged", epsilon: float = 0.0):
        super().__init__(alpha=alpha, seed=seed, admit=admit,
                         probe_cache=probe_cache)
        self._init_compiler(mode, epsilon)

    def decide(self, ctx: SchedulingContext,
               probes: list[tuple[QueuedEvent, EventPlan]],
               ops: int) -> RoundDecision:
        """Staged head pick, then the inherited opportunistic merge."""
        picked = self.pick_staged(ctx, probes)
        if picked is None:
            return self._finish(RoundDecision(planning_ops=ops))
        head, stages = picked
        decision = self.merge_batch(ctx, probes, head, ops)
        decision.predicted_stages[head[0].event.event_id] = stages
        return self._finish(decision)
