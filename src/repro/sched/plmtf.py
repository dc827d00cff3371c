"""P-LMTF — parallel LMTF with opportunistic updating (paper §IV-C).

P-LMTF runs the LMTF step first: sample ``α`` random non-head events, plan
the ``α+1`` candidates, and pick the cheapest as the new head. It then walks
the *remaining* candidates in arrival order and admits every one that can be
"updated with the head-event together" — opportunistic updating. A heavy
early event that LMTF would defer therefore gets a chance to run in the same
round as the new head, which both restores fairness and adds parallelism.

The paper is explicit that P-LMTF checks only the sampled candidates, not
the whole queue, to keep planning overhead bounded, and that P-LMTF spends
*less* plan time than LMTF because one round plans multiple events. The
``shared``/``hybrid`` admission modes reproduce exactly that: the step-1
probe plans are reused as the batch plans wherever they still apply, so a
round costs little more planning than an LMTF round but can retire several
events.
"""

from __future__ import annotations

from repro.core.exceptions import PlacementError, PlanningError
from repro.core.executor import apply_plan
from repro.core.plan import EventPlan
from repro.network.view import NetworkView
from repro.sched.base import (
    Admission,
    QueuedEvent,
    RoundDecision,
    SchedulingContext,
)
from repro.sched.lmtf import LMTFScheduler

#: Opportunistic-admission policies.
ADMIT_MODES = ("hybrid", "shared", "nocontention", "free", "feasible")


class PLMTFScheduler(LMTFScheduler):
    """LMTF plus opportunistic parallel admission of sampled candidates.

    Args:
        alpha: number of random non-head candidates per round (> 0).
        seed: seed for the sampling RNG.
        admit: compatibility test for opportunistic candidates.

            * ``shared`` (default) — reuse each candidate's step-1 probe
              plan: the candidate joins the round iff its independently
              computed plan still applies on top of the batch (no bandwidth
              conflict with the plans admitted before it). No replanning
              happens, so per-round planning cost equals LMTF's while the
              round retires several events — this is how the paper's P-LMTF
              spends *less* total plan time than LMTF (Fig. 6(d)) — and an
              admitted event pays exactly its standalone cost, so
              parallelism never inflates the total update cost (Fig. 6(a)).
            * ``nocontention`` — replan each candidate on the cumulative
              batch state and admit if that plan costs no more than its
              standalone plan this round: parallelism must not inflate the
              candidate's own migration traffic (more planning for the same
              admission rate in practice).
            * ``hybrid`` — try ``shared`` admission first; if the probe
              plan conflicts with the batch, replan and admit under the
              ``nocontention`` bound.
            * ``free`` — replan on the batch and admit only migration-free
              plans (strictest; ablation).
            * ``feasible`` — replan on the batch and admit any feasible
              plan, migrations included; maximizes parallelism at the price
              of extra migration traffic from intra-round contention
              (ablation).
    """

    name = "plmtf"

    def __init__(self, alpha: int = 4, seed: int = 0, admit: str = "shared",
                 probe_cache: bool = True):
        super().__init__(alpha=alpha, seed=seed, probe_cache=probe_cache)
        if admit not in ADMIT_MODES:
            raise ValueError(f"unknown admit mode {admit!r}; "
                             f"pick one of {ADMIT_MODES}")
        self.admit = admit

    def decide(self, ctx: SchedulingContext,
               probes: list[tuple[QueuedEvent, EventPlan]],
               ops: int) -> RoundDecision:
        """The two P-LMTF steps over already-computed probes.

        Step 1 — the LMTF step: pick the cheapest feasible probe as the
        round's head. (The probes themselves were planned by ``select``
        and went through the footprint cache; step-2 replans run on the
        transient batch view and are never cached.)
        """
        best = self.pick_cheapest(probes)
        if best is None:
            return self._finish(RoundDecision(planning_ops=ops))
        return self._finish(self.merge_batch(ctx, probes, best, ops))

    def merge_batch(self, ctx: SchedulingContext,
                    probes: list[tuple[QueuedEvent, EventPlan]],
                    best: tuple[QueuedEvent, EventPlan],
                    ops: int) -> RoundDecision:
        """Step 2 — opportunistic updating: walk the non-head candidates in
        global ``(time, seq)`` order and admit those that can run alongside
        the batch.

        The batch view accumulates admitted plans, and a candidate whose
        footprint conflicts with the batch (bandwidth contention or a
        migration touching a batch-pinned flow) is demoted — left queued
        for a later round — rather than reordered. When the simulator
        replays the admissions in admission order against the live network,
        each applies to exactly the state it was planned against.
        """
        head_queued, head_plan = best
        batch_view = NetworkView(ctx.network)
        apply_plan(batch_view, head_plan)
        admissions = [Admission(queued=head_queued, plan=head_plan)]
        # Flows already admitted to the batch are pinned: a later candidate
        # may not "make room" by migrating a batch-mate's new flow.
        batch_flow_ids = {fp.flow.flow_id for fp in head_plan.flow_plans}
        for queued, probe in probes:
            if queued is head_queued:
                continue
            plan, extra_ops = self._admit(ctx, batch_view, queued, probe,
                                          batch_flow_ids)
            ops += extra_ops
            if plan is None:
                continue
            admissions.append(Admission(queued=queued, plan=plan))
            batch_flow_ids.update(fp.flow.flow_id for fp in plan.flow_plans)
        return RoundDecision(admissions=admissions, planning_ops=ops)

    # ------------------------------------------------------------- internals

    def _admit(self, ctx: SchedulingContext, batch_view: NetworkView,
               queued: QueuedEvent, probe: EventPlan,
               batch_flow_ids: set[str]) -> tuple[EventPlan | None, int]:
        """Test one candidate against the batch.

        Returns ``(plan, extra_planning_ops)``; ``plan`` is None when the
        candidate is rejected. ``shared`` applies the probe plan directly
        and costs no extra planning; the other modes replan on the batch
        view (paying ops whether or not the candidate is admitted).
        """
        if self.admit in ("shared", "hybrid"):
            if probe.feasible and not any(
                    m.flow.flow_id in batch_flow_ids
                    for m in probe.migrations):
                try:
                    apply_plan(batch_view, probe)
                except (PlacementError, PlanningError):
                    pass
                else:
                    return probe, 0
            if self.admit == "shared":
                return None, 0

        plan = ctx.planner.plan_event(
            batch_view, queued.subevent(queued.remaining), ctx.rng,
            commit=False, extra_protected=frozenset(batch_flow_ids))
        if not plan.feasible:
            return None, plan.planning_ops
        if self.admit == "free" and plan.cost > 0:
            return None, plan.planning_ops
        if (self.admit in ("nocontention", "hybrid")
                and (not probe.feasible or plan.cost > probe.cost)):
            return None, plan.planning_ops
        apply_plan(batch_view, plan)
        return plan, plan.planning_ops
