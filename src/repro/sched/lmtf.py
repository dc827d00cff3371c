"""LMTF — least migration traffic first (paper §IV-B).

LMTF keeps the queue in arrival order but fine-tunes execution each round:
it samples ``α`` random non-head events, computes the update cost of those
and of the head against the *current* network state, and executes the
cheapest of the ``α+1`` candidates. If the head wins, the round is exactly
FIFO; if a sampled event wins, the head was a heavy blocker and the power of
``α`` random choices sidesteps it without the cost (or the unfairness) of
reordering the whole queue.

The paper fixes ``α = 4`` in its evaluation and notes ``α = 2`` already
works well ("the power of two random choices").
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.core.plan import EventPlan
from repro.sched.base import (
    Admission,
    QueuedEvent,
    RoundDecision,
    Scheduler,
    SchedulingContext,
)
from repro.sched.cache import ProbeCache


class LMTFScheduler(Scheduler):
    """Fine-tuned FIFO via cost sampling of ``α+1`` candidates.

    Args:
        alpha: number of random non-head candidates per round (> 0).
        seed: seed for the scheduler's private sampling RNG, kept separate
            from the planner RNG so changing α does not reshuffle plans.
        probe_cache: memoize cost probes by link footprint (default on).
            Probes whose plans are provably unchanged — every link/node the
            plan read still reports the same version counter — are served
            from cache instead of replanned. Admissions, costs, and charged
            planning ops are bit-identical with the cache on or off; only
            the scheduler's wall-clock time changes. The one exception is
            ``l-lmtf``
            (:class:`~repro.sched.learned.scheduler.LearnedLMTFScheduler`):
            its ``fault_pressure`` feature is fed by cache invalidations,
            so it reads 0 with the cache off and the ranking can differ.
    """

    name = "lmtf"

    def __init__(self, alpha: int = 4, seed: int = 0,
                 probe_cache: bool = True):
        if alpha < 1:
            raise ValueError(f"alpha must be >= 1, got {alpha}")
        self.alpha = alpha
        self._seed = seed
        self._sample_rng = random.Random(seed)
        self._cache = ProbeCache() if probe_cache else None

    @property
    def cache(self) -> ProbeCache | None:
        """The probe cache, or None when caching is disabled."""
        return self._cache

    def reset(self) -> None:
        self._sample_rng = random.Random(self._seed)
        if self._cache is not None:
            self._cache.clear()

    # ------------------------------------------------------------------ API

    def select(self, ctx: SchedulingContext) -> RoundDecision:
        if not ctx.queue:
            return RoundDecision()
        candidates = self.probe_targets(ctx)
        plans: list[tuple[QueuedEvent, EventPlan]] = []
        ops = 0
        for queued in candidates:
            plan = self.probe_event(ctx, queued)
            ops += plan.planning_ops
            plans.append((queued, plan))
        decision = self.decide(ctx, plans, ops)
        decision.probed = candidates
        return decision

    def probe_targets(self, ctx: SchedulingContext) -> list[QueuedEvent]:
        """The candidates this round cost-probes, in queue order.

        The ``α+1`` sample here; subclasses may narrow it (the learned
        ranker probes a shortlist). Consumes this round's sampling draws,
        so ``select`` calls it exactly once per round.
        """
        return self.sample_candidates(ctx.queue)

    def decide(self, ctx: SchedulingContext,
               probes: list[tuple[QueuedEvent, EventPlan]],
               ops: int) -> RoundDecision:
        """Admit the cheapest feasible probe (the LMTF rule)."""
        best = self.pick_cheapest(probes)
        if best is None:
            return self._finish(RoundDecision(planning_ops=ops))
        queued, plan = best
        return self._finish(RoundDecision(
            admissions=[Admission(queued=queued, plan=plan)],
            planning_ops=ops))

    # -------------------------------------------------------------- internals

    def probe_event(self, ctx: SchedulingContext,
                    queued: QueuedEvent) -> EventPlan:
        """Plan ``queued``'s remaining flows, via the probe cache if on.

        A cache hit returns the memoized plan — including its original
        ``planning_ops``, which a fresh plan would reproduce exactly (that
        is the cache's reuse condition) — so the simulated plan-time charge
        is unchanged. A miss plans freshly and memoizes when the plan is
        footprint-stable (no RNG draws, no unbounded reads).
        """
        if self._cache is None:
            return self.plan_whole_event(ctx, queued)
        key = (queued.event.event_id,
               tuple(f.flow_id for f in queued.remaining))
        plan = self._cache.lookup(key, ctx.network)
        if plan is not None:
            return plan
        if not self._cache.should_record(key):
            # Recent plans for this key were RNG-dependent; skip the
            # footprint-recording overhead until the backoff expires.
            return self.plan_whole_event(ctx, queued)
        plan, footprint = ctx.planner.plan_event_probed(
            ctx.network, queued.subevent(queued.remaining), ctx.rng)
        if footprint is not None:
            self._cache.store(key, ctx.network, plan, footprint)
        else:
            self._cache.note_uncacheable(key)
        return plan

    def _finish(self, decision: RoundDecision) -> RoundDecision:
        """Attach this round's cache counters to the decision."""
        if self._cache is not None:
            stats = self._cache.drain_round()
            decision.cache_hits = stats.hits
            decision.cache_misses = stats.misses
            decision.cache_invalidations = stats.invalidations
        return decision

    def sample_candidates(
            self, queue: Sequence[QueuedEvent]) -> list[QueuedEvent]:
        """Head plus ``min(α, len(queue)-1)`` random non-head events.

        Per the paper, LMTF "does not persist in sampling α update events
        when the queue contains less than α+1" — it simply takes what is
        there. The returned list preserves arrival order.

        Sampling draws *positions* (``random.sample`` over a range) rather
        than materializing ``queue[1:]``: ``sample``'s RNG consumption
        depends only on the population length, so the draws — and the
        selected events — are bit-identical to sampling the slice, without
        the O(queue) copy that dominated deep-queue rounds.
        """
        head = queue[0]
        take = min(self.alpha, len(queue) - 1)
        if take:
            positions = self._sample_rng.sample(range(1, len(queue)), take)
            sampled = [queue[i] for i in positions]
        else:
            sampled = []
        candidates = [head] + sampled
        candidates.sort(key=lambda q: q.seq)
        return candidates

    @staticmethod
    def pick_cheapest(plans: list[tuple[QueuedEvent, EventPlan]]):
        """The feasible candidate with the lowest cost; ties break on
        ``(arrival_time, seq)`` — earliest *arrival* first, preserving
        FIFO fairness whenever costs agree.

        ``seq`` alone is not arrival order once events re-enter the queue:
        a deferred/repair requeue gets a fresh (high) seq while keeping its
        original arrival time, so a seq-only tie-break would rank it behind
        younger events despite its seniority. Making the time component
        explicit keeps the rule identical for exact and learned schedulers
        — equal-cost ties can never make an exact-vs-learned comparison
        diverge on ordering policy.
        """
        best = None
        best_key = None
        for queued, plan in plans:
            if not plan.feasible:
                continue
            key = (plan.cost, queued.arrival_time, queued.seq)
            if best_key is None or key < best_key:
                best, best_key = (queued, plan), key
        return best
