"""Metric collection: the paper's five evaluation metrics (§V-A).

Per update event we record arrival, execution start, setup completion and
completion times plus the realized ``Cost(U)``; the aggregates derived from
them are exactly what the paper plots:

* **total update cost** — sum of migrated traffic over all events,
* **average ECT** — mean of (completion − arrival),
* **tail ECT** — the slowest event's ECT (p95/p99 also reported),
* **total plan time** — simulated seconds the controller spent planning,
* **event queuing delay** — execution start − arrival, average and worst.

The per-event inputs are the event rows the
:class:`~repro.sim.lifecycle.EventLifecycle` owns, written by the round
pipeline; :class:`MetricsCollector` keeps only the run-level
:data:`RUN_COUNTERS` totals and reads the rows when asked.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass, fields
from typing import Any, Callable

from repro.sim import hooks as _hooks
from repro.sim.lifecycle import (
    RECORD_FIELDS,
    TERMINAL_STATES,
    EventLifecycle,
    EventRecord,
    EventState,
)


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

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable representation (tuples become lists)."""
        data = asdict(self)
        for key in ("per_event_ect", "per_event_delay", "per_event_cost",
                    "per_event_stages"):
            data[key] = list(data[key])
        data["probe_cache_hit_rate"] = self.probe_cache_hit_rate
        data["mean_prediction_error"] = self.mean_prediction_error
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> RunMetrics:
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


@dataclass(frozen=True)
class RunCounter:
    """One run-level total: which hook feeds it, and how.

    ``read`` names the payload attribute folded in (``None`` counts
    emissions); ``fold`` combines the total with that value (``max`` for
    a high-water mark); ``zero`` is the starting value, and its type is
    the total's type — ``0`` and ``0.0`` are spelled differently in every
    JSON encoding of the ledger.
    """

    name: str
    hook: type[_hooks.Hook]
    read: str | None = None
    fold: Callable[[Any, Any], Any] = operator.add
    zero: int | float = 0


#: Every run-level total, declared once. :class:`MetricsCollector` folds
#: them, writes them into the service's final report and hands
#: :class:`RunMetrics` the ones that are fields of it; the Prometheus
#: exporter (:mod:`repro.sim.export`) reads the same totals. ``rounds``
#: counts decided rounds (``RunMetrics.rounds``)
#: and ``rounds_settled`` settled ones (``repro_rounds_total``): a
#: snapshot tick can land between a round's ``PreRound`` and ``PostRound``.
#: ``EventRecord.rounds_waited`` is charged by the same settled rounds,
#: counted on the lifecycle (:meth:`EventLifecycle.settle_round`).
RUN_COUNTERS: tuple[RunCounter, ...] = (
    RunCounter("rounds", _hooks.PreRound),
    RunCounter("total_plan_time", _hooks.PreRound, "plan_time", zero=0.0),
    RunCounter("probe_cache_hits", _hooks.PreRound, "cache_hits"),
    RunCounter("probe_cache_misses", _hooks.PreRound, "cache_misses"),
    RunCounter("probe_cache_invalidations", _hooks.PreRound,
               "cache_invalidations"),
    RunCounter("probes_skipped", _hooks.PreRound, "probes_skipped"),
    RunCounter("prediction_samples", _hooks.PreRound, "prediction_samples"),
    RunCounter("prediction_error_sum", _hooks.PreRound,
               "prediction_error_sum", zero=0.0),
    RunCounter("fallback_rounds", _hooks.PreRound, "fallback"),
    RunCounter("total_stages", _hooks.EventAdmitted, "stage_count"),
    RunCounter("max_stage_count", _hooks.EventAdmitted, "stage_count",
               fold=max),
    RunCounter("max_transient_overload", _hooks.EventAdmitted,
               "max_transient_overload", fold=max, zero=0.0),
    RunCounter("compile_epsilon", _hooks.EventAdmitted, "epsilon",
               fold=max, zero=0.0),
    RunCounter("retries", _hooks.ExecutionRetried, "retries"),
    RunCounter("deferrals", _hooks.EventDeferred),
    RunCounter("stranded_traffic", _hooks.EventDropped, "stranded_demand",
               zero=0.0),
    RunCounter("faults_injected", _hooks.FaultInjected),
    RunCounter("faults_healed", _hooks.FaultHealed),
    # Live-only: scraped, never part of the run summary.
    RunCounter("admissions", _hooks.EventAdmitted),
    RunCounter("rounds_settled", _hooks.PostRound),
    RunCounter("flows_finished", _hooks.FlowFinished),
    RunCounter("exec_failures", _hooks.ExecutionFailed),
    RunCounter("churn_ticks", _hooks.ChurnTick),
)

_SUMMARY_FIELDS = frozenset(f.name for f in fields(RunMetrics))


class MetricsCollector:
    """The run ledger: the :data:`RUN_COUNTERS` totals, fed by the hook
    bus, and the event rows of ``lifecycle`` read as metrics records;
    finalized into :class:`RunMetrics`.

    Subscribes only the counter folders on ``bus``. The simulator builds
    it *before* the trace-log adapter, so for every shared hook type the
    totals are charged first and the listener sees them second (the
    record order the schedule pins hash).
    """

    def __init__(self, scheduler_name: str, bus: _hooks.HookBus,
                 lifecycle: EventLifecycle):
        self._scheduler = scheduler_name
        self._lifecycle = lifecycle
        #: Current value of every declared run counter, by name.
        self.totals: dict[str, int | float] = {
            counter.name: counter.zero for counter in RUN_COUNTERS}
        for counter in RUN_COUNTERS:
            bus.subscribe(counter.hook, self._folder(counter))

    def _folder(self, counter: RunCounter) -> Callable[[_hooks.Hook], None]:
        totals, name, fold = self.totals, counter.name, counter.fold
        if counter.read is None:
            def handle(hook: _hooks.Hook) -> None:
                totals[name] += 1
        else:
            read = counter.read

            def handle(hook: _hooks.Hook) -> None:
                totals[name] = fold(totals[name], getattr(hook, read))
        return handle

    # ---------------------------------------------------------- final report

    def export_state(self) -> dict[str, Any]:
        """The run counters, for the service's final report: a resume
        checks their names against this build's (every record is in the
        journal, each in its terminal record via :meth:`export_record`)."""
        return {"totals": dict(self.totals)}

    def export_record(self, event_id: str) -> dict[str, Any]:
        """The record fields of one event's row (a settled one, on its way
        into its terminal journal record)."""
        row = self._lifecycle.row(event_id)
        return {name: getattr(row, name) for name in RECORD_FIELDS}

    # ------------------------------------------------------------- finalize

    @property
    def records(self) -> dict[str, EventRecord]:
        """Every event's row, registration order."""
        return self._lifecycle.records()

    @property
    def record_count(self) -> int:
        """Events ever enqueued (terminal ones included)."""
        return len(self._lifecycle)

    @property
    def completed_count(self) -> int:
        """Events whose completion has been recorded."""
        return self._lifecycle.counts()[EventState.COMPLETED]

    @property
    def dropped_count(self) -> int:
        """Events evicted after exhausting their deferrals."""
        return self._lifecycle.counts()[EventState.DROPPED]

    @property
    def round_count(self) -> int:
        """Rounds accounted so far (empty rounds included)."""
        return int(self.totals["rounds"])

    def incomplete_events(self) -> list[str]:
        """Events neither completed nor dropped — a drained run must have
        none; dropped events are accounted, not incomplete."""
        return [event_id for event_id, row in self.records.items()
                if row.state not in TERMINAL_STATES]

    def finalize(self) -> RunMetrics:
        """Build the aggregate metrics; every event must have completed or
        been dropped. Completion aggregates (ECT, delays, per-event arrays)
        cover completed events; dropped events contribute only their
        realized cost, the drop counter, and stranded traffic."""
        incomplete = self.incomplete_events()
        if incomplete:
            raise ValueError(f"{len(incomplete)} events never completed: "
                             f"{incomplete[:5]}")
        everything = sorted(self.records.values(),
                            key=lambda r: r.arrival_time)
        records = [r for r in everything if not r.dropped]
        dropped = [r for r in everything if r.dropped]
        ects = [r.ect for r in records]
        delays = [r.queuing_delay for r in records]
        costs = [r.cost for r in records]
        count = len(records)
        summary: dict[str, Any] = {
            name: total for name, total in self.totals.items()
            if name in _SUMMARY_FIELDS}
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
            makespan=self._lifecycle.makespan,
            per_event_ect=tuple(ects),
            per_event_delay=tuple(delays),
            per_event_cost=tuple(costs),
            dropped_events=len(dropped),
            per_event_stages=tuple(r.stage_count for r in records),
            **summary,
        )
