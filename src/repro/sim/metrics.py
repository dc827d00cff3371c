"""Metric collection: the paper's five evaluation metrics (§V-A).

Per update event we record arrival, execution start, setup completion and
completion times plus the realized ``Cost(U)``; the aggregates derived from
them are exactly what the paper plots:

* **total update cost** — sum of migrated traffic over all events,
* **average ECT** — mean of (completion − arrival),
* **tail ECT** — the slowest event's ECT (p95/p99 also reported),
* **total plan time** — simulated seconds the controller spent planning,
* **event queuing delay** — execution start − arrival, average and worst.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.sim import hooks as _hooks
from repro.sim.lifecycle import in_registration_order


@dataclass
class EventRecord:
    """Lifecycle timestamps and realized cost of one update event.

    ``stage_count`` sums the compiled schedule lengths of the event's
    admissions (one admission, hence the plan's stage count, for
    event-level schedulers); ``max_transient_overload`` is the worst
    fractional capacity overshoot any of its stages caused.
    """

    event_id: str
    arrival_time: float
    flow_count: int
    exec_start_time: float | None = None
    setup_done_time: float | None = None
    completion_time: float | None = None
    cost: float = 0.0
    migrations: int = 0
    rounds_waited: int = 0
    deferrals: int = 0
    dropped: bool = False
    stage_count: int = 0
    max_transient_overload: float = 0.0

    @property
    def completed(self) -> bool:
        return self.completion_time is not None

    @property
    def ect(self) -> float:
        """Event completion time (paper's ECT)."""
        if self.completion_time is None:
            raise ValueError(f"event {self.event_id} has not completed")
        return self.completion_time - self.arrival_time

    @property
    def queuing_delay(self) -> float:
        """Time spent queued before execution began."""
        if self.exec_start_time is None:
            raise ValueError(f"event {self.event_id} never started")
        return self.exec_start_time - self.arrival_time


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty list."""
    if not values:
        raise ValueError("percentile of an empty list")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass(frozen=True)
class RunMetrics:
    """Aggregate metrics of one simulation run."""

    scheduler: str
    event_count: int
    total_cost: float
    total_migrations: int
    average_ect: float
    tail_ect: float
    p95_ect: float
    p99_ect: float
    average_queuing_delay: float
    worst_queuing_delay: float
    total_plan_time: float
    makespan: float
    rounds: int
    per_event_ect: tuple[float, ...]
    per_event_delay: tuple[float, ...]
    per_event_cost: tuple[float, ...]
    # Probe-cache counters (zero for schedulers without a cache). These
    # describe the scheduler's wall-clock behavior only; simulated plan time
    # is charged identically with or without the cache.
    probe_cache_hits: int = 0
    probe_cache_misses: int = 0
    probe_cache_invalidations: int = 0
    # Robustness counters (all zero on fault-free, reliable runs).
    # ``event_count`` and the per-event aggregates cover *completed* events;
    # ``dropped_events`` counts events evicted after exhausting their
    # requeue deferrals, and ``stranded_traffic`` is the aggregate bandwidth
    # demand of update flows that were never re-homed — dropped events'
    # unplaced flows. It is a *rate* in Mbit/s (a sum of per-flow demands,
    # the unit convention of :mod:`repro.core.flow`), not a volume like
    # ``total_cost`` (Mbit). ``total_cost`` still includes migrations a
    # later-dropped event realized before it stalled: that traffic really
    # moved. ``retries`` counts failed execution attempts (control plane);
    # ``deferrals`` counts requeues (execution failure or stall).
    retries: int = 0
    deferrals: int = 0
    dropped_events: int = 0
    stranded_traffic: float = 0.0
    faults_injected: int = 0
    faults_healed: int = 0
    # Learned-ranking counters (zero for exact schedulers). Probes skipped
    # are sampled candidates never exactly planned thanks to the ranking
    # budget; prediction error is summed absolute error on the log1p-cost
    # scale over ``prediction_samples`` online-training pairs; fallback
    # rounds degraded to full probing (cold start or drift).
    probes_skipped: int = 0
    prediction_samples: int = 0
    prediction_error_sum: float = 0.0
    fallback_rounds: int = 0
    # Plan-compilation counters (:mod:`repro.core.compile`). Under the
    # default atomic mode every admission is one stage, so
    # ``total_stages`` equals the admission count and ``max_stage_count``
    # is 1. ``per_event_stages`` aligns with the other per-event arrays
    # (completed events, arrival order). ``compile_epsilon`` echoes the
    # augmentation knob the run executed with.
    total_stages: int = 0
    max_stage_count: int = 0
    max_transient_overload: float = 0.0
    compile_epsilon: float = 0.0
    per_event_stages: tuple[int, ...] = ()

    @property
    def probe_cache_hit_rate(self) -> float:
        """Fraction of cost probes served from cache (0.0 when none ran)."""
        probes = self.probe_cache_hits + self.probe_cache_misses
        return self.probe_cache_hits / probes if probes else 0.0

    @property
    def mean_prediction_error(self) -> float:
        """Mean absolute prediction error per training sample (log1p-cost
        scale; 0.0 when the run produced no predictions)."""
        if not self.prediction_samples:
            return 0.0
        return self.prediction_error_sum / self.prediction_samples

    def to_dict(self) -> dict:
        """JSON-serializable representation (tuples become lists)."""
        from dataclasses import asdict
        data = asdict(self)
        for key in ("per_event_ect", "per_event_delay", "per_event_cost",
                    "per_event_stages"):
            data[key] = list(data[key])
        data["probe_cache_hit_rate"] = self.probe_cache_hit_rate
        data["mean_prediction_error"] = self.mean_prediction_error
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunMetrics":
        """Rebuild from a :meth:`to_dict` payload, exactly.

        Floats survive a JSON round-trip bit-for-bit (``json`` serializes
        them via ``repr``), so ``from_dict(json.loads(json.dumps(
        m.to_dict())))`` equals ``m`` — the property the parallel experiment
        runner's checkpoint merge relies on.
        """
        payload = dict(data)
        payload.pop("probe_cache_hit_rate", None)  # derived property
        payload.pop("mean_prediction_error", None)  # derived property
        for key in ("per_event_ect", "per_event_delay", "per_event_cost",
                    "per_event_stages"):
            if key in payload:  # pre-compilation payloads lack the stages
                payload[key] = tuple(payload[key])
        return cls(**payload)

    def summary(self) -> str:
        """One-line human-readable digest.

        Units follow :mod:`repro.core.flow`: ``total_cost`` is migrated
        traffic *volume* (Mbit), ``stranded_traffic`` is aggregate unmet
        *demand* (Mbit/s) — the old ``Mbps`` spelling made the two look
        like the same kind of quantity.
        """
        line = (f"{self.scheduler}: events={self.event_count} "
                f"avgECT={self.average_ect:.2f}s tailECT={self.tail_ect:.2f}s "
                f"cost={self.total_cost:.0f}Mbit "
                f"avgQD={self.average_queuing_delay:.2f}s "
                f"planT={self.total_plan_time:.3f}s rounds={self.rounds}")
        if self.faults_injected or self.retries or self.dropped_events:
            line += (f" faults={self.faults_injected} "
                     f"retries={self.retries} "
                     f"deferrals={self.deferrals} "
                     f"dropped={self.dropped_events} "
                     f"stranded={self.stranded_traffic:.0f}Mbit/s")
        return line


class MetricsCollector:
    """Accumulates per-event records during a run and finalizes them."""

    def __init__(self, scheduler_name: str):
        self._scheduler = scheduler_name
        self._records: dict[str, EventRecord] = {}
        # The records no completion or drop has closed yet: what a
        # checkpoint still has to carry (registration order, like _records).
        self._open: dict[str, EventRecord] = {}
        self._completed = 0
        self._dropped = 0
        self._plan_time = 0.0
        self._rounds = 0
        self._makespan = 0.0
        self._cache_hits = 0
        self._cache_misses = 0
        self._cache_invalidations = 0
        self._retries = 0
        self._deferrals = 0
        self._stranded_traffic = 0.0
        self._faults_injected = 0
        self._faults_healed = 0
        self._probes_skipped = 0
        self._prediction_samples = 0
        self._prediction_error_sum = 0.0
        self._fallback_rounds = 0
        self._total_stages = 0
        self._max_stage_count = 0
        self._max_transient_overload = 0.0
        self._compile_epsilon = 0.0

    # --------------------------------------------------------------- record

    def on_enqueue(self, event_id: str, arrival_time: float,
                   flow_count: int) -> None:
        if event_id in self._records:
            raise ValueError(f"event {event_id} enqueued twice")
        self._records[event_id] = self._open[event_id] = EventRecord(
            event_id=event_id, arrival_time=arrival_time,
            flow_count=flow_count)

    def on_round(self, plan_time: float, cache_hits: int = 0,
                 cache_misses: int = 0, cache_invalidations: int = 0,
                 probes_skipped: int = 0, prediction_samples: int = 0,
                 prediction_error_sum: float = 0.0,
                 fallback: bool = False) -> None:
        self._rounds += 1
        self._plan_time += plan_time
        self._cache_hits += cache_hits
        self._cache_misses += cache_misses
        self._cache_invalidations += cache_invalidations
        self._probes_skipped += probes_skipped
        self._prediction_samples += prediction_samples
        self._prediction_error_sum += prediction_error_sum
        if fallback:
            self._fallback_rounds += 1

    def on_wait(self, event_id: str) -> None:
        self._record(event_id).rounds_waited += 1

    def on_exec_start(self, event_id: str, time: float) -> None:
        """Record when the event's update first began executing.

        Idempotent: for the flow-level baseline an event executes across
        many rounds and only the first one defines its queuing delay.
        """
        record = self._record(event_id)
        if record.exec_start_time is None:
            record.exec_start_time = time

    def on_admission(self, event_id: str, cost: float, migrations: int,
                     stage_count: int = 1,
                     max_transient_overload: float = 0.0,
                     epsilon: float = 0.0) -> None:
        """Accumulate realized plan cost; called once per admission."""
        record = self._record(event_id)
        record.cost += cost
        record.migrations += migrations
        record.stage_count += stage_count
        record.max_transient_overload = max(record.max_transient_overload,
                                            max_transient_overload)
        self._total_stages += stage_count
        self._max_stage_count = max(self._max_stage_count, stage_count)
        self._max_transient_overload = max(self._max_transient_overload,
                                           max_transient_overload)
        self._compile_epsilon = max(self._compile_epsilon, epsilon)

    def on_setup_done(self, event_id: str, time: float) -> None:
        self._record(event_id).setup_done_time = time

    def on_completion(self, event_id: str, time: float) -> None:
        record = self._record(event_id)
        if record.completion_time is None:
            self._completed += 1
        record.completion_time = time
        self._open.pop(event_id, None)
        self._makespan = max(self._makespan, time)

    # -------------------------------------------------------- fault pipeline

    def on_retries(self, count: int) -> None:
        """Account ``count`` failed execution attempts (control plane)."""
        self._retries += count

    def on_deferral(self, event_id: str) -> None:
        """The event was requeued (execution failure or placement stall)."""
        self._record(event_id).deferrals += 1
        self._deferrals += 1

    def on_drop(self, event_id: str, time: float,
                stranded_demand: float) -> None:
        """The event was evicted after exhausting its deferrals.

        ``stranded_demand`` is the total demand of its never-placed flows;
        it accumulates into ``RunMetrics.stranded_traffic``. Dropped events
        are excluded from completion aggregates but keep any cost they
        realized before stalling.
        """
        record = self._record(event_id)
        if record.dropped:
            raise ValueError(f"event {event_id} dropped twice")
        record.dropped = True
        self._open.pop(event_id, None)
        self._dropped += 1
        self._stranded_traffic += stranded_demand
        self._makespan = max(self._makespan, time)

    def on_fault(self) -> None:
        self._faults_injected += 1

    def on_heal(self) -> None:
        self._faults_healed += 1

    def _record(self, event_id: str) -> EventRecord:
        try:
            return self._records[event_id]
        except KeyError:
            raise ValueError(f"unknown event {event_id}") from None

    # -------------------------------------------------------- checkpointing

    def export_state(self) -> dict:
        """JSON-ready encoding of the open records and all counters.

        A completed or dropped record never changes again;
        :meth:`export_record` hands it to the history log once, so a
        checkpoint costs O(open events) however long the service has run.
        """
        return {
            "records": [dict(vars(r)) for r in self._open.values()],
            "completed": self._completed,
            "dropped": self._dropped,
            "plan_time": self._plan_time,
            "rounds": self._rounds,
            "makespan": self._makespan,
            "cache_hits": self._cache_hits,
            "cache_misses": self._cache_misses,
            "cache_invalidations": self._cache_invalidations,
            "retries": self._retries,
            "deferrals": self._deferrals,
            "stranded_traffic": self._stranded_traffic,
            "faults_injected": self._faults_injected,
            "faults_healed": self._faults_healed,
            "probes_skipped": self._probes_skipped,
            "prediction_samples": self._prediction_samples,
            "prediction_error_sum": self._prediction_error_sum,
            "fallback_rounds": self._fallback_rounds,
            "total_stages": self._total_stages,
            "max_stage_count": self._max_stage_count,
            "max_transient_overload": self._max_transient_overload,
            "compile_epsilon": self._compile_epsilon,
        }

    def export_record(self, event_id: str) -> dict:
        """The record fields of one event (a closed one, on its way to the
        history log)."""
        return dict(vars(self._record(event_id)))

    def restore_state(self, state: dict, settled: list[dict]) -> None:
        """Overwrite this collector from :meth:`export_state` output plus
        the history log's entries (``{"index": registration index,
        "record": fields}``) for every record closed before it."""
        if self._records:
            raise ValueError("restore_state requires an empty collector")
        self._open = {payload["event_id"]: EventRecord(**payload)
                      for payload in state["records"]}
        for record in in_registration_order(
                ((e["index"], EventRecord(**e["record"])) for e in settled),
                self._open.values()):
            self._records[record.event_id] = record
        self._completed = int(state["completed"])
        self._dropped = int(state["dropped"])
        self._plan_time = state["plan_time"]
        self._rounds = int(state["rounds"])
        self._makespan = state["makespan"]
        self._cache_hits = int(state["cache_hits"])
        self._cache_misses = int(state["cache_misses"])
        self._cache_invalidations = int(state["cache_invalidations"])
        self._retries = int(state["retries"])
        self._deferrals = int(state["deferrals"])
        self._stranded_traffic = state["stranded_traffic"]
        self._faults_injected = int(state["faults_injected"])
        self._faults_healed = int(state["faults_healed"])
        self._probes_skipped = int(state["probes_skipped"])
        self._prediction_samples = int(state["prediction_samples"])
        self._prediction_error_sum = state["prediction_error_sum"]
        self._fallback_rounds = int(state["fallback_rounds"])
        self._total_stages = int(state["total_stages"])
        self._max_stage_count = int(state["max_stage_count"])
        self._max_transient_overload = state["max_transient_overload"]
        self._compile_epsilon = state["compile_epsilon"]

    # ------------------------------------------------------------- finalize

    @property
    def records(self) -> dict[str, EventRecord]:
        return dict(self._records)

    # O(1) counters the lifecycle auditor cross-checks on every PostRound;
    # recomputing them from ``records`` would be O(events) per round, which
    # the unbounded service mode cannot afford.

    @property
    def record_count(self) -> int:
        """Events ever enqueued (terminal ones included)."""
        return len(self._records)

    @property
    def completed_count(self) -> int:
        """Events whose completion has been recorded."""
        return self._completed

    @property
    def dropped_count(self) -> int:
        """Events evicted after exhausting their deferrals."""
        return self._dropped

    @property
    def round_count(self) -> int:
        """Rounds accounted so far (empty rounds included)."""
        return self._rounds

    @property
    def total_stages(self) -> int:
        """Compiled stages applied so far (exporter gauge)."""
        return self._total_stages

    @property
    def max_transient_overload(self) -> float:
        """Worst fractional transient overshoot seen (exporter gauge)."""
        return self._max_transient_overload

    def incomplete_events(self) -> list[str]:
        """Events neither completed nor dropped — a drained run must have
        none; dropped events are accounted, not incomplete."""
        return list(self._open)

    def finalize(self) -> RunMetrics:
        """Build the aggregate metrics; every event must have completed or
        been dropped. Completion aggregates (ECT, delays, per-event arrays)
        cover completed events; dropped events contribute only their
        realized cost, the drop counter, and stranded traffic."""
        incomplete = self.incomplete_events()
        if incomplete:
            raise ValueError(f"{len(incomplete)} events never completed: "
                             f"{incomplete[:5]}")
        everything = sorted(self._records.values(),
                            key=lambda r: r.arrival_time)
        records = [r for r in everything if not r.dropped]
        dropped = [r for r in everything if r.dropped]
        ects = [r.ect for r in records]
        delays = [r.queuing_delay for r in records]
        costs = [r.cost for r in records]
        count = len(records)
        return RunMetrics(
            scheduler=self._scheduler,
            event_count=count,
            total_cost=sum(costs) + sum(r.cost for r in dropped),
            total_migrations=sum(r.migrations for r in everything),
            average_ect=sum(ects) / count if count else 0.0,
            tail_ect=max(ects) if ects else 0.0,
            p95_ect=percentile(ects, 95) if ects else 0.0,
            p99_ect=percentile(ects, 99) if ects else 0.0,
            average_queuing_delay=sum(delays) / count if count else 0.0,
            worst_queuing_delay=max(delays) if delays else 0.0,
            total_plan_time=self._plan_time,
            makespan=self._makespan,
            rounds=self._rounds,
            per_event_ect=tuple(ects),
            per_event_delay=tuple(delays),
            per_event_cost=tuple(costs),
            probe_cache_hits=self._cache_hits,
            probe_cache_misses=self._cache_misses,
            probe_cache_invalidations=self._cache_invalidations,
            retries=self._retries,
            deferrals=self._deferrals,
            dropped_events=len(dropped),
            stranded_traffic=self._stranded_traffic,
            faults_injected=self._faults_injected,
            faults_healed=self._faults_healed,
            probes_skipped=self._probes_skipped,
            prediction_samples=self._prediction_samples,
            prediction_error_sum=self._prediction_error_sum,
            fallback_rounds=self._fallback_rounds,
            total_stages=self._total_stages,
            max_stage_count=self._max_stage_count,
            max_transient_overload=self._max_transient_overload,
            compile_epsilon=self._compile_epsilon,
            per_event_stages=tuple(r.stage_count for r in records),
        )


class MetricsSubscriber:
    """Feeds a :class:`MetricsCollector` from hook-bus emissions.

    The simulator subscribes this adapter *before* the trace-log adapter,
    which preserves the pre-refactor call order (metrics first, listener
    second) for every shared hook type.
    """

    def __init__(self, collector: MetricsCollector, bus: "_hooks.HookBus"):
        self._collector = collector
        bus.subscribe(_hooks.EventArrived, self._on_arrived)
        bus.subscribe(_hooks.PreRound, self._on_pre_round)
        bus.subscribe(_hooks.PostRound, self._on_post_round)
        bus.subscribe(_hooks.EventAdmitted, self._on_admitted)
        bus.subscribe(_hooks.EventCompleted, self._on_completed)
        bus.subscribe(_hooks.ExecutionRetried, self._on_retried)
        bus.subscribe(_hooks.EventDeferred, self._on_deferred)
        bus.subscribe(_hooks.EventDropped, self._on_dropped)
        bus.subscribe(_hooks.FaultInjected, self._on_fault)
        bus.subscribe(_hooks.FaultHealed, self._on_heal)

    def _on_arrived(self, hook: "_hooks.EventArrived") -> None:
        self._collector.on_enqueue(hook.event_id, hook.now, hook.flow_count)

    def _on_pre_round(self, hook: "_hooks.PreRound") -> None:
        self._collector.on_round(hook.plan_time, hook.cache_hits,
                                 hook.cache_misses, hook.cache_invalidations,
                                 hook.probes_skipped, hook.prediction_samples,
                                 hook.prediction_error_sum, hook.fallback)

    def _on_post_round(self, hook: "_hooks.PostRound") -> None:
        for event_id in hook.waiting:
            self._collector.on_wait(event_id)

    def _on_admitted(self, hook: "_hooks.EventAdmitted") -> None:
        self._collector.on_exec_start(hook.event_id, hook.exec_start)
        self._collector.on_admission(
            hook.event_id, hook.cost, hook.migrations,
            stage_count=hook.stage_count,
            max_transient_overload=hook.max_transient_overload,
            epsilon=hook.epsilon)
        self._collector.on_setup_done(hook.event_id, hook.setup_done_time)

    def _on_completed(self, hook: "_hooks.EventCompleted") -> None:
        self._collector.on_completion(hook.event_id, hook.now)

    def _on_retried(self, hook: "_hooks.ExecutionRetried") -> None:
        self._collector.on_retries(hook.retries)

    def _on_deferred(self, hook: "_hooks.EventDeferred") -> None:
        self._collector.on_deferral(hook.event_id)

    def _on_dropped(self, hook: "_hooks.EventDropped") -> None:
        self._collector.on_drop(hook.event_id, hook.now,
                                hook.stranded_demand)

    def _on_fault(self, hook: "_hooks.FaultInjected") -> None:
        self._collector.on_fault()

    def _on_heal(self, hook: "_hooks.FaultHealed") -> None:
        self._collector.on_heal()
