"""Trace-driven network-update simulation (paper §V).

The simulator is now a thin driver around three collaborators:

* :class:`~repro.sim.pipeline.RoundPipeline` — the staged round machinery
  (collect → schedule → admit → execute → settle → account) and the queue,
* :class:`~repro.sim.lifecycle.EventLifecycle` — the explicit event state
  machine, asserted on every move, and the one row each event has,
* :class:`~repro.sim.hooks.HookBus` — where every cross-cutting concern
  (metrics, trace log, fault injection, background churn, control-plane
  retry accounting) subscribes; the core imports none of them.

Timeline of one round::

    round start (t0)            exec start (t0+plan)        round end
    |-- plan: α+1 cost probes --|-- migrate ---|-- install --|-- flows
    |                           |   (drain ∝ Cost(U))        |  transmit --|

Every admitted flow's completion is an engine event; the round ends when
the last admitted flow completes (paper Fig. 3), and an event completes
when all its flows have (for the flow-level baseline that spans many
rounds). ``SimulationConfig`` is re-exported here for backward
compatibility; it lives in :mod:`repro.sim.config`. Per-round telemetry
is not kept here: each round goes out once on the hook bus as
:class:`~repro.sim.hooks.PreRound`, where the metrics collector and an
optional :class:`~repro.sim.tracelog.TraceLog` record it.
"""

from __future__ import annotations

import math
import os
import random

from repro.core.compile import PlanCompilerConfig
from repro.core.event import UpdateEvent
from repro.core.exceptions import SimulationError
from repro.core.executor import PlanExecutor, RetryPolicy
from repro.core.planner import EventPlanner
from repro.network.network import Network
from repro.network.routing.provider import PathProvider
from repro.sched.base import Scheduler
from repro.sim.audit import LifecycleAuditor
from repro.sim.churn import ChurnDriver
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.sim.hooks import HookBus, RunStarted
from repro.sim.lifecycle import EventLifecycle
from repro.sim.metrics import MetricsCollector, RunMetrics
from repro.sim.pipeline import RoundPipeline
from repro.sim.timing import TimingModel
from repro.sim.tracelog import TraceLog
from repro.traces.base import TraceGenerator

__all__ = ["SimulationConfig", "UpdateSimulator"]


class UpdateSimulator:
    """Runs a queue of update events through a scheduler on a live network.

    Args:
        network: the live network, typically preloaded with background
            traffic (see :class:`~repro.traces.background.BackgroundLoader`).
        provider: candidate-path lookup for the network's topology.
        scheduler: inter-event scheduling policy.
        planner: event planner; a default one is built from ``provider``.
        timing: timing model; defaults to :class:`TimingModel`.
        config: simulator knobs.
        churn_trace: generator for respawned background flows (required when
            ``config.background_churn``).
        listener: optional :class:`~repro.sim.tracelog.TraceLog` (or any
            object with ``subscribe(bus)``) subscribed to the hook bus
            right after the metrics collector, capturing rounds,
            admissions, completions and churn as a structured run log.
        control_plane: optional control-plane model (an object exposing
            ``reliable`` / ``migration_ok()`` / ``install_ok()`` /
            ``attempt_jitter_s()``, see :mod:`repro.sim.controlplane`)
            under which rule installs and migration drains can fail or
            jitter; executions then retry with backoff (up to
            ``config.exec_max_retries`` times) and requeue on exhaustion.
            ``None`` keeps the infallible legacy model.
        faults: optional fault source — any plugin exposing
            ``attach(sim)``, e.g. a :class:`~repro.sim.faults.FaultSchedule`
            or seeded :class:`~repro.sim.faults.FaultProcess` — whose
            link/switch failures fire as engine events *during* the run.
            Stranded flows are auto-packaged into repair events and
            enqueued at the failure's simulated time.
        audit: attach a :class:`~repro.sim.audit.LifecycleAuditor` that
            checks the queue against the event rows, the round count and
            the engine heap at every settled round, raising
            :class:`~repro.sim.audit.AuditError` on drift. Also enabled
            globally by setting the ``REPRO_AUDIT`` environment variable
            to anything but ``0`` / empty (how CI re-runs the schedule
            pins audited). The auditor only reads state, so enabling it
            never changes the schedule.
    """

    def __init__(self, network: Network, provider: PathProvider,
                 scheduler: Scheduler, planner: EventPlanner | None = None,
                 timing: TimingModel | None = None,
                 config: SimulationConfig | None = None,
                 churn_trace: TraceGenerator | None = None,
                 listener: "TraceLog | None" = None,
                 control_plane=None, faults=None,
                 audit: bool | None = None):
        self._network = network
        self._provider = provider
        self._scheduler = scheduler
        self._planner = planner or EventPlanner(provider)
        self._timing = timing or TimingModel()
        self._config = config or SimulationConfig()
        self._hooks = HookBus()
        self._lifecycle = EventLifecycle()
        self._executor = PlanExecutor(
            self._timing, control_plane=control_plane,
            retry=RetryPolicy(max_retries=self._config.exec_max_retries),
            hooks=self._hooks, compiler=PlanCompilerConfig(
                mode=self._config.compile_mode,
                epsilon=self._config.compile_epsilon))
        if self._config.background_churn and churn_trace is None:
            raise ValueError("background_churn requires a churn_trace "
                             "generator")
        self._rng = random.Random(self._config.seed)
        self._engine = SimulationEngine()
        self._pipeline = RoundPipeline(
            engine=self._engine, scheduler=scheduler, planner=self._planner,
            timing=self._timing, executor=self._executor, network=network,
            config=self._config, rng=self._rng, hooks=self._hooks,
            lifecycle=self._lifecycle)
        # Subscription order is the observable record order: metrics first,
        # listener second (matching the monolith's call order), plugins
        # last (they only consume RunStarted).
        self._metrics = MetricsCollector(scheduler.name, self._hooks,
                                         self._lifecycle)
        if listener is not None:
            listener.subscribe(self._hooks)
        if faults is not None:
            self.attach(faults)
        self._churn: "ChurnDriver | None" = None
        if churn_trace is not None or self._config.background_churn:
            # Respawned flows obey the same host-link cap as initial
            # loading; the driver's RNG is independent of the planner's.
            self._churn = ChurnDriver(
                network, provider, churn_trace,
                random.Random(self._config.seed + 1))
            self.attach(self._churn)
        self._auditor: "LifecycleAuditor | None" = None
        if audit is None:
            audit = os.environ.get("REPRO_AUDIT", "0") not in ("", "0")
        if audit:
            # Attached last: the auditor must observe PostRound *after*
            # the metrics collector counted the round.
            self._auditor = LifecycleAuditor()
            self.attach(self._auditor)
        self._submitted: list[UpdateEvent] = []
        self._ran = False

    # ------------------------------------------------------------ public API

    @property
    def network(self) -> Network:
        return self._network

    @property
    def engine(self) -> SimulationEngine:
        return self._engine

    @property
    def scheduler(self) -> Scheduler:
        return self._scheduler

    @property
    def churn(self) -> "ChurnDriver | None":
        """The attached background-churn driver, if any."""
        return self._churn

    @property
    def rng(self) -> random.Random:
        """The planner RNG."""
        return self._rng

    @property
    def config(self) -> SimulationConfig:
        return self._config

    @property
    def hooks(self) -> HookBus:
        """The bus every cross-cutting concern subscribes on."""
        return self._hooks

    @property
    def lifecycle(self) -> EventLifecycle:
        """The event-lifecycle registry (asserted on every move)."""
        return self._lifecycle

    @property
    def pipeline(self) -> RoundPipeline:
        return self._pipeline

    @property
    def metrics_collector(self) -> MetricsCollector:
        """The run counters, and the event rows read as metrics."""
        return self._metrics

    @property
    def auditor(self) -> "LifecycleAuditor | None":
        """The attached lifecycle auditor, if auditing is enabled."""
        return self._auditor

    @property
    def now(self) -> float:
        return self._engine.now

    @property
    def events_remaining(self) -> int:
        """Events enqueued but not yet completed or dropped."""
        return self._pipeline.events_remaining

    def attach(self, plugin) -> None:
        """Attach a hook-bus plugin — anything exposing ``attach(sim)``."""
        plugin.attach(self)

    def enqueue(self, event: UpdateEvent, origin: str = "submitted") -> None:
        """Enqueue a mid-run event (plugins use this for repair events)."""
        self._pipeline.enqueue(event, origin)

    def schedule_round(self) -> None:
        """Schedule a round check at the current simulated time."""
        self._pipeline.schedule_round()

    def maybe_round(self) -> None:
        """Run a round check immediately."""
        self._pipeline.maybe_round()

    def submit(self, events: list[UpdateEvent]) -> None:
        """Queue update events for the run (callable multiple times)."""
        if self._ran:
            raise SimulationError("simulator already ran; build a new one")
        for event in events:
            for flow in event.flows:
                if math.isinf(flow.service_time):
                    raise SimulationError(
                        f"event {event.event_id} flow {flow.flow_id} has "
                        f"infinite service time; event flows need a size or "
                        f"duration")
            self._submitted.append(event)

    def start(self) -> None:
        """Begin a *streaming* run (service mode).

        Marks the simulator as running, resets the scheduler and emits
        ``RunStarted`` — exactly the preamble :meth:`run` performs — but
        schedules no arrivals and does not drive the engine: the caller
        (:class:`~repro.sim.service.SimulationService`) injects events via
        :meth:`enqueue` and steps the engine itself. :meth:`run` and
        :meth:`start` are mutually exclusive on one simulator instance.
        """
        if self._ran:
            raise SimulationError("simulator already ran; build a new one")
        if self._submitted:
            raise SimulationError(
                "submit()ed events belong to run(); a streaming run "
                "ingests via enqueue()")
        self._ran = True
        self._scheduler.reset()
        self._hooks.emit(RunStarted(self))

    def run(self) -> RunMetrics:
        """Execute the simulation to completion and return run metrics.

        Raises:
            SimulationError: the run deadlocked (some event can never be
                placed) or exceeded
                :data:`~repro.sim.pipeline.MAX_ROUNDS` rounds.
        """
        if self._ran:
            raise SimulationError("simulator already ran; build a new one")
        if not self._submitted:
            raise SimulationError("no events submitted")
        self._ran = True
        self._scheduler.reset()
        for event in sorted(self._submitted, key=lambda e: e.arrival_time):
            self._engine.schedule_callback(
                event.arrival_time,
                lambda e=event: self._pipeline.enqueue(e),
                tag=f"arrival:{event.event_id}")
        self._hooks.emit(RunStarted(self))
        self._engine.run()
        incomplete = self._metrics.incomplete_events()
        if incomplete:
            raise SimulationError(
                f"simulation drained with {len(incomplete)} events "
                f"incomplete: {incomplete[:5]}")
        if self._config.verify_invariants:
            self._network.check_invariants()
        return self._metrics.finalize()
