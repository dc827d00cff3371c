"""The staged round pipeline the simulator drives (paper §III / Fig. 3).

One scheduling round runs through six ordered stages::

    collect ──► schedule ──► admit ──► execute ──► settle ──► account
    build the   consult       assert     apply       announce   verify
    round's     scheduler,    lifecycle  plans,      the        network
    context     fall back     moves,     schedule    settled    invariants
                on stalls     announce   flow        round, arm
                              the round  finishes    the barrier

The pipeline owns the round state (queue, round counters) and drives every
event's row through the :class:`~repro.sim.lifecycle.EventLifecycle` state
machine — each move is asserted legal, and the row (times, cost,
deferrals, outstanding flows) is written before the matching hook is
announced. Cross-cutting concerns never appear here: metrics, trace
logging, faults and churn all observe the round through
:mod:`repro.sim.hooks` subscriptions.

Behavior contract: the staged pipeline is byte-identical to the
pre-refactor monolithic ``UpdateSimulator`` — same engine scheduling
order (sequence numbers), same RNG draw order, same metrics, same trace
records. The schedule-pin tests enforce this.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import TYPE_CHECKING, Iterable

from repro.core.exceptions import (
    ControlPlaneError,
    PlacementError,
    SimulationError,
)
from repro.sched.base import (
    Admission,
    QueuedEvent,
    RoundDecision,
    Scheduler,
    SchedulingContext,
)
from repro.sim.config import SimulationConfig
from repro.sim.hooks import (
    EventAdmitted,
    EventArrived,
    EventCompleted,
    EventDeferred,
    EventDropped,
    ExecutionFailed,
    FlowFinished,
    HookBus,
    PostRound,
    PreRound,
)
from repro.sim.lifecycle import EventLifecycle, EventRecord, EventState
from repro.sim.queue import IndexedQueue

if TYPE_CHECKING:
    from repro.core.event import UpdateEvent
    from repro.core.executor import PlanExecutor
    from repro.core.planner import EventPlanner
    from repro.network.network import Network
    from repro.sim.engine import SimulationEngine
    from repro.sim.timing import TimingModel

#: Safety valve on scheduling rounds: a run that decides more rounds than
#: this raises instead of spinning forever.
MAX_ROUNDS = 1_000_000


class RoundPipeline:
    """Owns the round state machine; the simulator merely drives it.

    Args:
        engine: the discrete-event engine (clock + calendar queue).
        scheduler: inter-event scheduling policy consulted each round.
        planner: event planner used by the stall fallback.
        timing: converts planning ops into simulated plan time.
        executor: applies admitted plans (may retry / fail).
        network: the live network state.
        config: simulator knobs.
        rng: the planner RNG (path tiebreaks) shared with the scheduler
            context.
        hooks: the bus every stage announces on.
        lifecycle: the event-lifecycle registry asserting move legality.
    """

    def __init__(self, *, engine: SimulationEngine, scheduler: Scheduler,
                 planner: EventPlanner, timing: TimingModel,
                 executor: PlanExecutor, network: Network,
                 config: SimulationConfig, rng: random.Random,
                 hooks: HookBus, lifecycle: EventLifecycle):
        self._engine = engine
        self._scheduler = scheduler
        self._planner = planner
        self._timing = timing
        self._executor = executor
        self._network = network
        self._config = config
        self._rng = rng
        self._hooks = hooks
        self._lifecycle = lifecycle
        self._queue = IndexedQueue()
        self._round_active = False
        self._round_outstanding = 0
        self._round_index = 0
        self._enqueue_seq = 0

    # ------------------------------------------------------------- queries

    @property
    def scheduler(self) -> Scheduler:
        """The scheduling policy this pipeline consults each round."""
        return self._scheduler

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def round_count(self) -> int:
        """Rounds decided so far (each announced once as ``PreRound``)."""
        return self._round_index

    def queued_event_ids(self) -> tuple[str, ...]:
        """Event ids currently waiting, in queue order."""
        return tuple(q.event.event_id for q in self._queue)

    @property
    def events_remaining(self) -> int:
        """Events enqueued but not yet completed or dropped."""
        return self._lifecycle.remaining

    @property
    def round_active(self) -> bool:
        """True from a round's collect stage until the round ends."""
        return self._round_active

    @property
    def round_outstanding(self) -> int:
        """Flows whose completion the current round still waits on."""
        return self._round_outstanding

    @round_outstanding.setter
    def round_outstanding(self, value: int) -> None:
        # Tests pin this to simulate a mid-round state.
        self._round_outstanding = value

    # ----------------------------------------------------- queue admission

    def enqueue(self, event: UpdateEvent, origin: str = "submitted",
                kick: bool = True) -> None:
        """Admit ``event`` into the waiting queue and kick a round check.

        Used for both trace arrivals (``origin="submitted"``) and
        simulator-generated repair events (``origin="repair"``). The round
        check is deferred to an engine event at the current time so that
        simultaneous arrivals (a batch queued at t=0) are all visible to
        the first scheduling decision. Bulk loaders pass ``kick=False``
        and call :meth:`schedule_round` once after the batch, avoiding one
        engine event per enqueued event.
        """
        now = self._engine.now
        self._lifecycle.register(event.event_id, now, origin=origin,
                                 flow_count=len(event.flows))
        self._queue.append(QueuedEvent(event, seq=self._enqueue_seq))
        self._enqueue_seq += 1
        self._hooks.emit(EventArrived(now=now, event_id=event.event_id,
                                      flow_count=len(event.flows),
                                      origin=origin))
        if kick:
            self.schedule_round()

    def schedule_round(self) -> None:
        """Schedule a round check at the current simulated time."""
        self._engine.schedule_callback(self._engine.now, self.maybe_round,
                                       tag="round")

    # ---------------------------------------------------------- the stages

    def maybe_round(self) -> None:
        """Run one round through the staged pipeline (no-op if a round is
        already active or the queue is empty)."""
        if self._round_active or not self._queue:
            return
        self._round_active = True
        ctx = self._collect()
        decision = self._schedule(ctx)
        plan_time = self._timing.plan_time(decision.planning_ops)
        if not self._admit(decision, plan_time):
            return
        self._settle(self._execute(decision, plan_time))
        self._account()

    def _collect(self) -> SchedulingContext:
        """Stage 1 — build the round's scheduling context.

        The context carries the live queue by reference; no stage mutates
        it between collect and admit.
        """
        return SchedulingContext(now=self._engine.now, queue=self._queue,
                                 planner=self._planner,
                                 network=self._network, rng=self._rng)

    def _schedule(self, ctx: SchedulingContext) -> RoundDecision:
        """Stage 2 — consult the scheduler; fall back on terminal stalls.

        The scheduler decides first and reports what it probed
        (``decision.probed``; ``None`` means the whole queue). Those events
        then move QUEUED→PROBED — the planner emits no hooks, so the
        round's hook order is unchanged — and the admit stage
        settles each into ADMITTED or back to QUEUED. A sampling policy's
        round therefore costs O(α) lifecycle traffic, not O(queue).
        """
        decision = self._scheduler.select(ctx)
        if decision.empty and self.should_fallback():
            decision = self.fallback_decision(ctx, decision)
        now = self._engine.now
        for queued in self._probed(decision):
            self._lifecycle.advance(queued.event.event_id, EventState.PROBED,
                                    now)
        return decision

    def _probed(self, decision: RoundDecision) -> Iterable[QueuedEvent]:
        """The events ``decision`` probed (the live queue when unreported)."""
        return self._queue if decision.probed is None else decision.probed

    def _admit(self, decision: RoundDecision, plan_time: float) -> bool:
        """Stage 3 — commit lifecycle moves and announce the round.

        Returns False when the decision is empty: the round is abandoned
        (after deadlock/stall checks) and nothing executes.
        """
        now = self._engine.now
        for admission in decision.admissions:
            event_id = admission.queued.event.event_id
            if self._lifecycle.state(event_id) is EventState.QUEUED:
                # The stall fallback may admit an event the scheduler
                # never probed; route it through PROBED so the lifecycle
                # assertion holds.
                self._lifecycle.advance(event_id, EventState.PROBED, now)
            self._lifecycle.advance(event_id, EventState.ADMITTED, now)
        for queued in self._probed(decision):
            event_id = queued.event.event_id
            if self._lifecycle.state(event_id) is EventState.PROBED:
                self._lifecycle.advance(event_id, EventState.QUEUED, now)
        self._round_index += 1
        self._hooks.emit(PreRound(
            now=now, index=self._round_index,
            admitted=tuple(a.queued.event.event_id
                           for a in decision.admissions),
            planning_ops=decision.planning_ops, plan_time=plan_time,
            queue_depth=len(self._queue),
            cache_hits=decision.cache_hits,
            cache_misses=decision.cache_misses,
            cache_invalidations=decision.cache_invalidations,
            probes_skipped=decision.probes_skipped,
            prediction_samples=decision.prediction_samples,
            prediction_error_sum=decision.prediction_error_sum,
            fallback=decision.fallback))
        if self._round_index > MAX_ROUNDS:
            raise SimulationError(
                f"exceeded {MAX_ROUNDS} scheduling rounds")
        if decision.empty:
            # An empty decision still consumed a round — PreRound above
            # charged the round and its plan time — so the round must also
            # settle with a PostRound; otherwise waiting events are never
            # charged the round they just waited through.
            self._lifecycle.settle_round()
            self._hooks.emit(PostRound(now=now, index=self._round_index))
            self._round_active = False
            self._check_deadlock()
            return False
        return True

    def _execute(self, decision: RoundDecision, plan_time: float) -> float:
        """Stage 4 — apply the admitted plans and schedule flow finishes.

        Returns the round's end time for the settle stage; execution
        failures defer their events in place.
        """
        setup_barrier = self._config.round_barrier == "setup"
        now = self._engine.now
        exec_start = now + plan_time
        round_end = exec_start
        for admission in decision.admissions:
            event_id = admission.queued.event.event_id
            row = self._lifecycle.advance(event_id, EventState.EXECUTING, now)
            try:
                record = self._executor.execute(self._network, admission.plan,
                                                exec_start)
            except (ControlPlaneError, PlacementError) as exc:
                # Rule installs / migration drains exhausted their retries
                # (or the state no longer admits the plan). The executor
                # already rolled the network back; charge the wasted
                # simulated time to the round and requeue the event.
                round_end = max(round_end,
                                exec_start + getattr(exc, "elapsed", 0.0))
                self._exec_failed(admission, exc)
                continue
            round_end = max(round_end, record.finish_setup_time)
            # Only the first admission defines the queuing delay: for the
            # flow-level baseline an event executes across many rounds.
            if row.exec_start_time is None:
                row.exec_start_time = exec_start
            row.cost += admission.plan.cost
            row.migrations += admission.plan.migration_count
            row.stage_count += record.stage_count
            row.max_transient_overload = max(row.max_transient_overload,
                                             record.max_transient_overload)
            row.setup_done_time = record.finish_setup_time
            self._hooks.emit(EventAdmitted(
                exec_start=exec_start, event_id=event_id,
                cost=admission.plan.cost,
                migrations=admission.plan.migration_count,
                flows=len(admission.plan.flow_plans),
                setup_done_time=record.finish_setup_time,
                stage_count=record.stage_count,
                max_transient_overload=record.max_transient_overload,
                epsilon=record.epsilon))
            admitted_flow_ids = set()
            for flow_plan in admission.plan.flow_plans:
                flow = flow_plan.flow
                admitted_flow_ids.add(flow.flow_id)
                finish = record.finish_setup_time + flow.service_time
                if not setup_barrier:
                    self._round_outstanding += 1
                row.outstanding += 1
                self._engine.schedule_callback(
                    finish,
                    lambda f=flow.flow_id, r=row: self._flow_finished(f, r),
                    tag=f"flow-finish:{event_id}/{flow.flow_id}")
            # Queue bookkeeping: drop admitted flows; drop drained events.
            admission.queued.remaining = [
                f for f in admission.queued.remaining
                if f.flow_id not in admitted_flow_ids]
            if admission.queued.done:
                self._queue.remove(admission.queued)
                row.done_queueing = True
                if setup_barrier:
                    # Under the pipelined reading the event is "complete"
                    # once its update is fully applied; its flows keep
                    # transmitting as ordinary traffic.
                    self._complete(event_id, record.finish_setup_time)
            else:
                # Partial admission (flow-level baseline): the event keeps
                # queueing with its remaining flows.
                self._lifecycle.advance(event_id, EventState.QUEUED, now)
        return round_end

    def _settle(self, round_end: float) -> None:
        """Stage 5 — settle the round on the lifecycle's queue-stay clock,
        announce it, arm the barrier."""
        setup_barrier = self._config.round_barrier == "setup"
        self._lifecycle.settle_round()
        self._hooks.emit(PostRound(now=self._engine.now,
                                   index=self._round_index))
        if setup_barrier:
            self._engine.schedule_callback(round_end, self._end_round,
                                           tag="end-round")
        elif self._round_outstanding == 0:
            # Every admission failed and rolled back: no flow transmission
            # will end this round, so end it once the wasted retry time has
            # elapsed (the deferred events are already back in the queue).
            self._engine.schedule_callback(round_end, self._end_round,
                                           tag="end-round")

    def _account(self) -> None:
        """Stage 6 — verify network bookkeeping when configured."""
        if self._config.verify_invariants:
            self._network.check_invariants()

    def _end_round(self) -> None:
        self._round_active = False
        self.maybe_round()

    # ------------------------------------------------------ stall handling

    def should_fallback(self) -> bool:
        """Fallback only when waiting cannot help: nothing is running and no
        future engine event (arrival, churn) will change the state."""
        return (self._config.stall_fallback
                and self._round_outstanding == 0
                and self._engine.pending == 0)

    def fallback_decision(self, ctx: SchedulingContext,
                          prior: RoundDecision) -> RoundDecision:
        """Admit the first feasible queued event in arrival order.

        ``prior`` is the scheduler's empty decision; everything it reports
        (probe-cache and learned-ranking counters, the probed set) carries
        over, with the fallback's own planning ops added.
        """
        ops = prior.planning_ops
        admissions: list[Admission] = []
        for queued in ctx.queue:
            plan = self._planner.plan_event(
                self._network, queued.subevent(queued.remaining), self._rng,
                commit=False)
            ops += plan.planning_ops
            if plan.feasible:
                admissions.append(Admission(queued=queued, plan=plan))
                break
        return replace(prior, admissions=admissions, planning_ops=ops)

    def _check_deadlock(self) -> None:
        if self._round_outstanding != 0 or self._engine.pending != 0:
            return
        if self._config.max_deferrals is not None:
            self._handle_stall()
            return
        raise SimulationError(
            f"deadlock: {len(self._queue)} events queued, nothing "
            f"running, and no event can be placed (first blocked: "
            f"{self._queue[0].event.event_id})")

    def _handle_stall(self) -> None:
        """Degrade gracefully when no queued event can ever be placed.

        Nothing is running and no future engine event can change the state
        (a post-failure partition is the canonical case), so waiting is
        useless. Every stalled event is charged one deferral; events past
        ``max_deferrals`` are dropped with accounting. Each pass strictly
        increases deferral counts, so the stall resolves within
        ``max_deferrals + 1`` passes instead of burning ``MAX_ROUNDS`` —
        and without tripping the stall fallback, which already ran and
        found nothing feasible.
        """
        for queued in list(self._queue):
            self._defer(queued, requeue=False)
        if self._queue:
            self.schedule_round()

    # ------------------------------------------------------ defer and drop

    def _exec_failed(self, admission: Admission, exc: Exception) -> None:
        """An admitted plan's execution failed terminally; requeue it.

        The executor has already rolled the network back to its
        pre-attempt state (and emitted the retry accounting), so the
        queued event (whose ``remaining`` flows were never trimmed — that
        happens only after a successful execute) simply goes back through
        :meth:`_defer`.
        """
        event_id = admission.queued.event.event_id
        self._hooks.emit(ExecutionFailed(
            now=self._engine.now, event_id=event_id,
            attempts=getattr(exc, "attempts", 1), reason=str(exc)))
        self._defer(admission.queued)

    def _defer(self, queued: QueuedEvent, requeue: bool = True) -> None:
        """Charge ``queued`` one deferral; requeue or drop it.

        ``requeue`` moves the event to the back of the queue with a fresh
        sequence number, so FIFO treats it as newly arrived — a failed
        event must not wedge the queue head. Stall passes keep the order
        (``requeue=False``): every stalled event is charged together and
        relative order carries no information.
        """
        event_id = queued.event.event_id
        now = self._engine.now
        row = self._lifecycle.advance(event_id, EventState.DEFERRED, now)
        row.deferrals += 1
        self._hooks.emit(EventDeferred(now=now, event_id=event_id,
                                       count=row.deferrals))
        limit = self._config.max_deferrals
        if limit is not None and row.deferrals > limit:
            self._drop_event(queued)
            return
        self._lifecycle.advance(event_id, EventState.QUEUED, now)
        if requeue:
            self._queue.remove(queued)
            queued.seq = self._enqueue_seq
            self._enqueue_seq += 1
            self._queue.append(queued)

    def _drop_event(self, queued: QueuedEvent) -> None:
        """Evict an event that exhausted its requeue deferrals.

        Its never-placed flows' demand is accounted as stranded traffic;
        any cost it realized through earlier partial admissions stays in
        the metrics (that traffic really moved). The probe cache forgets
        the event's keys so they stop occupying slots.
        """
        event_id = queued.event.event_id
        self._queue.remove(queued)
        stranded = sum(flow.demand for flow in queued.remaining)
        self._lifecycle.advance(event_id, EventState.DROPPED,
                                self._engine.now)
        self._hooks.emit(EventDropped(now=self._engine.now,
                                      event_id=event_id,
                                      stranded_demand=stranded))
        self._forget_scheduler_state(event_id)

    # ----------------------------------------------------------- completion

    def _flow_finished(self, flow_id: str, row: EventRecord) -> None:
        """An admitted flow's transmission ended (engine callback).

        A mid-round fault may have stranded (removed) the flow; its
        replacement travels in a repair event, but the admission barrier
        still releases here at the nominal finish time.
        """
        setup_barrier = self._config.round_barrier == "setup"
        if self._network.has_flow(flow_id):
            self._network.remove(flow_id)
        row.outstanding -= 1
        self._hooks.emit(FlowFinished(now=self._engine.now,
                                      flow_id=flow_id,
                                      event_id=row.event_id))
        if setup_barrier:
            # Completion was recorded at setup time; flow drain only
            # frees bandwidth (and may unblock a waiting round).
            self.maybe_round()
            return
        if row.outstanding == 0 and row.done_queueing:
            self._complete(row.event_id, self._engine.now)
        self._round_outstanding -= 1
        if self._round_outstanding == 0:
            self._round_active = False
            self.maybe_round()

    def _complete(self, event_id: str, time: float) -> None:
        """Mark an event complete (lifecycle terminal + hook).

        The probe cache is purged here exactly as on drop: a completed
        event's keys can never hit again (its id has left the queue for
        good), yet before this purge they lingered until LRU eviction —
        on long service runs the cache was effectively ``maxsize`` stale
        entries slowing every store.
        """
        self._lifecycle.advance(event_id, EventState.COMPLETED, time)
        self._hooks.emit(EventCompleted(now=time, event_id=event_id))
        self._forget_scheduler_state(event_id)

    # -------------------------------------------------------------- helpers

    def _forget_scheduler_state(self, event_id: str) -> None:
        """Purge scheduler-side memos of a terminally departed event.

        Covers the probe cache and, for learned schedulers, the feature
        memo — both key by event id, and a completed/dropped id can never
        recur, so lingering entries would only crowd out live ones on
        long service-mode runs. Duck-typed: schedulers without either
        attribute are no-ops.
        """
        cache = getattr(self._scheduler, "cache", None)
        if cache is not None:
            cache.forget_event(event_id)
        extractor = getattr(self._scheduler, "extractor", None)
        if extractor is not None:
            extractor.forget_event(event_id)
