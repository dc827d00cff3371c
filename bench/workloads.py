"""The six benchmark workloads.

Each is a single-process closed loop in host time: one thread, the engine
running flat out. (In *simulated* time the serve workloads are an
open-loop Poisson source with backpressure at queue cap 64 / resume 32.)
``--seed`` feeds only the generators below; the system sees generated
inputs.

A workload's ``prepare(seed, scratch, tracer)`` does the set-up — topology,
background load, event or stream generation, simulator and service
construction — and returns a prepared run whose ``execute(timed)`` performs
the timed region inside ``with timed():`` and whose ``verify()`` runs the
correctness gate afterwards, outside the timed region.

Sizes are the issue's sizes shrunk to the benchmark contract's time cap
(about 25 s per invocation, three fresh-interpreter repeats inside it);
the ratios between them are kept. No workload sets an option ROADMAP
item 2 slates for deletion (``queue_snapshots``, ``--shards``, executor
kinds).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from hashlib import sha256
from pathlib import Path
from typing import Callable

from repro.cli import build_serve_parser, build_service, serve_scheduler_spec
from repro.experiments.common import DEFAULTS, Scenario
from repro.sched import build_scheduler, standard_scheduler_specs
from repro.sim.controlplane import UnreliableControlPlane
from repro.sim.faults import FaultProcess
from repro.sim.hooks import EventCompleted, EventDropped
from repro.sim.journal import scan_journal
from repro.sim.service import ServiceConfig, SimulationService
from repro.sim.snapshot import CHECKPOINT_FILE, JOURNAL_FILE, load_checkpoint
from repro.traces import arrivals
from repro.traces.events import EventGeneratorConfig, heterogeneous_config

from stats import jain


@dataclass
class Outcome:
    """What one execution of a workload did (sim-time facts only; host
    timings are taken by the caller around ``timed()``)."""

    attempted: int
    completed: int
    dropped: int
    unfinished: int  # attempted but in no terminal state though it should be
    digest: str
    records: list  # EventRecord of every event that reached the ledger
    counters: dict  # layer counters only the workload can read


def sim_metrics(records) -> dict[str, float]:
    """The four simulated-time metrics, with ``RunMetrics.finalize``'s
    arithmetic (completed events in arrival order; cost also counts what
    dropped events migrated before they were dropped)."""
    ordered = sorted(records, key=lambda r: r.arrival_time)
    done = [r for r in ordered if r.completed and not r.dropped]
    ects = [r.ect for r in done]
    return {
        "sim_avg_ect_s": sum(ects) / len(ects) if ects else 0.0,
        "sim_tail_ect_s": max(ects) if ects else 0.0,
        "sim_cost_mbit": (sum(r.cost for r in done)
                          + sum(r.cost for r in ordered if r.dropped)),
        "sim_qdelay_jain": jain(r.queuing_delay for r in done),
    }


class DigestSubscriber:
    """The service's chained terminal-outcome digest, for runs that have no
    service: sha256 over ``event:kind:time`` in emission order."""

    def __init__(self, sim) -> None:
        self.value = "0" * 64
        sim.hooks.subscribe(EventCompleted, self._on_terminal)
        sim.hooks.subscribe(EventDropped, self._on_terminal)

    def _on_terminal(self, hook) -> None:
        kind = "complete" if isinstance(hook, EventCompleted) else "drop"
        self.value = sha256(
            (self.value + f"{hook.event_id}:{kind}:{hook.now!r}")
            .encode("utf-8")).hexdigest()


# ------------------------------------------------------------------- serve

def _capture_simulator(build: Callable):
    """Run ``build()`` and also return the one ``(scenario, simulator)``
    pair it made through ``Scenario.simulator`` — the service exposes
    neither, and the harness subscribes to the simulator's hook bus."""
    made = []
    original = Scenario.simulator

    def capturing(self, *args, **kwargs):
        sim = original(self, *args, **kwargs)
        made.append((self, sim))
        return sim

    Scenario.simulator = capturing
    try:
        built = build()
    finally:
        Scenario.simulator = original
    ((scenario, sim),) = made
    return built, scenario, sim


@contextmanager
def _traced_streams(tracer):
    """While active, ``arrivals.make_stream`` hands out iterators that
    record a span per ``next`` (``build_service`` looks it up on call)."""
    if tracer is None:
        yield
        return
    original = arrivals.make_stream

    def make_stream(*args, **kwargs):
        return tracer.wrap_iterator(original(*args, **kwargs),
                                    "traces.stream_next")

    arrivals.make_stream = make_stream
    try:
        yield
    finally:
        arrivals.make_stream = original


class PreparedServe:
    """A built ``SimulationService`` about to ``serve()``."""

    def __init__(self, service: SimulationService, scenario: Scenario, sim,
                 state_dir: Path | None = None) -> None:
        self.service = service
        self.provider = scenario.provider
        self.sims = [sim]
        self._state_dir = state_dir
        self._report = None

    def execute(self, timed) -> Outcome:
        with timed():
            report = self.service.serve()
        self._report = report
        sim = self.sims[0]
        counters = {"service.backpressure_pauses": report.backpressure_pauses}
        if self._state_dir is not None:
            counters["journal.bytes"] = (
                self._state_dir / JOURNAL_FILE).stat().st_size
            counters["snapshot.checkpoint_bytes"] = (
                self._state_dir / CHECKPOINT_FILE).stat().st_size
        # Repair events the fault driver enqueues are attempted work too,
        # so the denominator is the ledger, not the stream's count.
        records = list(sim.metrics_collector.records.values())
        return Outcome(attempted=len(records), completed=report.completed,
                       dropped=report.dropped,
                       unfinished=(len(records) - report.completed
                                   - report.dropped),
                       digest=report.digest, records=records,
                       counters=counters)

    def verify(self, outcome: Outcome) -> list[str]:
        """The serve correctness gate: auditor ran every round and
        ``assert_drained`` passed (both inside ``serve()``), the network's
        bookkeeping re-derives, the ledger agrees with ``RunMetrics``, and
        on the durable path the WAL and final checkpoint read back."""
        problems = []
        report = self._report
        sim = self.sims[0]
        sim.network.check_invariants()
        if report.audits != report.rounds:
            problems.append(f"auditor ran {report.audits} times over "
                            f"{report.rounds} rounds")
        if report.metrics is None:
            problems.append("serve() drained without RunMetrics")
        elif (sim_metrics(outcome.records)["sim_avg_ect_s"]
              != report.metrics.average_ect):
            problems.append("ledger ECT disagrees with RunMetrics")
        if self._state_dir is not None:
            scan = scan_journal(self._state_dir / JOURNAL_FILE)
            expected = report.ingested + report.completed + report.dropped
            if len(scan.records) != expected or scan.torn_bytes:
                problems.append(
                    f"journal holds {len(scan.records)} records "
                    f"(+{scan.torn_bytes} torn bytes), expected {expected}")
            checkpoint = load_checkpoint(self._state_dir / CHECKPOINT_FILE)
            if checkpoint["service"]["digest"] != report.digest:
                problems.append("final checkpoint digest differs from the "
                                "report's")
        return problems


def _serve_argv(seed: int, extra: list[str],
                snapshot_every: str = "0") -> list[str]:
    return ["--seed", str(seed), "--stream", "benson", "--stats-every", "0",
            "--snapshot-every", snapshot_every] + extra


def _prepare_cli_serve(argv: list[str], tracer,
                       state_dir: Path | None = None) -> PreparedServe:
    """Build exactly what ``repro serve <argv>`` builds."""
    args = build_serve_parser().parse_args(argv)
    with _traced_streams(tracer):
        (_scheduler, service), scenario, sim = _capture_simulator(
            lambda: build_service(args))
    return PreparedServe(service, scenario, sim, state_dir)


def prepare_serve_steady(seed: int, scratch: Path, tracer) -> PreparedServe:
    return _prepare_cli_serve(_serve_argv(seed, [
        "--k", "8", "--utilization", "0.7", "--rate", "5",
        "--min-flows", "10", "--max-flows", "40",
        "--scheduler", "plmtf", "--alpha", "4",
        "--events", str(SIZES["serve_steady"])]), tracer)


def prepare_serve_durable(seed: int, scratch: Path, tracer) -> PreparedServe:
    state_dir = scratch / "state"
    argv = _serve_argv(seed, [
        "--k", "4", "--utilization", "0.5", "--rate", "20",
        "--min-flows", "2", "--max-flows", "8", "--scheduler", "plmtf",
        "--events", str(SIZES["serve_durable"]),
        "--state-dir", str(state_dir),
        "--snapshot-dir", str(scratch / "snapshots")],
        snapshot_every="60")  # the CLI's default cadence
    return _prepare_cli_serve(argv, tracer, state_dir)


def prepare_serve_staged(seed: int, scratch: Path, tracer) -> PreparedServe:
    return _prepare_cli_serve(_serve_argv(seed, [
        "--k", "4", "--utilization", "0.85", "--rate", "5",
        "--compile-mode", "staged", "--scheduler", "staged-plmtf",
        "--events", str(SIZES["serve_staged"])]), tracer)


def prepare_serve_faulted(seed: int, scratch: Path, tracer) -> PreparedServe:
    """``repro serve`` has no fault flags, so this one is assembled from
    the same parts ``build_service`` uses, plus the fault pipeline.

    Background churn is off here, and that is a finding, not a shortcut:
    with churn on, a repair event can stay infeasible for thousands of
    simulated seconds while every churn tick runs one more empty probe
    round (seed 2 spun past 5000 of them without ending), so the run time
    is unbounded. With churn off a stuck event meets the stall handler,
    which defers and then drops it, and the run always ends.
    """
    events = SIZES["serve_faulted"]
    args = build_serve_parser().parse_args(_serve_argv(seed, [
        "--k", "4", "--utilization", "0.5", "--rate", "5",
        "--scheduler", "l-lmtf", "--events", str(events)]))
    scenario = Scenario(utilization=args.utilization, seed=seed, churn=False,
                        defaults=replace(DEFAULTS, k=args.k))
    # One healing link fault per ten events, spread over the whole run.
    # l-lmtf admits one event a round, so the run lasts about 36 simulated
    # seconds per event (measured), far beyond the stream's own span.
    span = events * 36.0
    sim = scenario.simulator(
        build_scheduler(serve_scheduler_spec(args)),
        control_plane=UnreliableControlPlane(
            install_failure_prob=0.05, migration_failure_prob=0.05,
            jitter_s=0.010, seed=seed + 11),
        faults=FaultProcess(rate=0.1 * events / span, horizon=span,
                            seed=seed + 13),
        max_deferrals=args.max_deferrals)
    with _traced_streams(tracer):
        stream = arrivals.make_stream(
            args.stream, scenario.topology.hosts(), rate=args.rate,
            seed=seed + 7,
            config=EventGeneratorConfig(min_flows=args.min_flows,
                                        max_flows=args.max_flows))
    service = SimulationService(sim, stream, ServiceConfig(
        queue_cap=args.queue_cap, resume_depth=args.queue_cap // 2,
        max_events=events))
    return PreparedServe(service, scenario, sim)


# -------------------------------------------------------------- deep queue

class PreparedDeepQueue:
    """A deep batch queue bulk-enqueued into a streaming simulator; the
    timed region is a fixed number of settled rounds after a warm-up."""

    WARMUP_ROUNDS = 5

    def __init__(self, scenario: Scenario, sim, events,
                 rounds: int) -> None:
        self.provider = scenario.provider
        self.sims = [sim]
        self._rounds = rounds
        self._digest = DigestSubscriber(sim)
        sim.start()
        for event in events:
            sim.enqueue(event)

    def _step_to_round(self, goal: int) -> None:
        sim = self.sims[0]
        while sim.pipeline.round_count < goal and sim.engine.step():
            pass

    def execute(self, timed) -> Outcome:
        sim = self.sims[0]
        self._step_to_round(self.WARMUP_ROUNDS)
        before = sim.metrics_collector.completed_count
        with timed():
            self._step_to_round(self.WARMUP_ROUNDS + self._rounds)
        collector = sim.metrics_collector
        completed = collector.completed_count - before
        dropped = collector.dropped_count
        # The queue is not drained by design, so "attempted" is what the
        # timed rounds took out of it: completed, dropped, still executing
        # (and none of those counts as unfinished).
        executing = sim.events_remaining - sim.pipeline.queue_depth
        return Outcome(attempted=completed + dropped + executing,
                       completed=completed, dropped=dropped, unfinished=0,
                       digest=self._digest.value,
                       records=[r for r in collector.records.values()
                                if r.completed or r.dropped],
                       counters={})

    def verify(self, outcome: Outcome) -> list[str]:
        sim = self.sims[0]
        sim.network.check_invariants()
        done = sim.pipeline.round_count - self.WARMUP_ROUNDS
        if done != self._rounds:
            return [f"timed {done} rounds, wanted {self._rounds}"]
        return []


def prepare_deep_queue(seed: int, scratch: Path, tracer) -> PreparedDeepQueue:
    depth, rounds = SIZES["deep_queue"]
    scenario = Scenario(
        utilization=0.3, seed=seed, events=depth, churn=False,
        event_config=EventGeneratorConfig(min_flows=1, max_flows=2),
        defaults=replace(DEFAULTS, k=4))
    scheduler = build_scheduler({"kind": "plmtf", "alpha": DEFAULTS.alpha,
                                 "seed": seed + 9})
    return PreparedDeepQueue(scenario, scenario.simulator(scheduler),
                             scenario.generate_events(), rounds)


# -------------------------------------------------------------- fig6 batch

class PreparedBatch:
    """``repro fig6``'s inner loop: the same batch of events through fifo,
    lmtf and plmtf, each on its own copy of the loaded network."""

    def __init__(self, scenario: Scenario, sims, event_count: int) -> None:
        self.provider = scenario.provider
        self.sims = sims
        self._event_count = event_count
        self._digests = [DigestSubscriber(sim) for sim in sims]

    def execute(self, timed) -> Outcome:
        with timed():
            for sim in self.sims:
                sim.run()
        completed = sum(s.metrics_collector.completed_count
                        for s in self.sims)
        dropped = sum(s.metrics_collector.dropped_count for s in self.sims)
        attempted = self._event_count * len(self.sims)
        return Outcome(
            attempted=attempted, completed=completed, dropped=dropped,
            unfinished=attempted - completed - dropped,
            digest=sha256("".join(d.value for d in self._digests)
                          .encode("utf-8")).hexdigest(),
            # The sim_* metrics of a batch are those of its plmtf run.
            records=list(self.sims[-1].metrics_collector.records.values()),
            counters={})

    def verify(self, outcome: Outcome) -> list[str]:
        for sim in self.sims:
            sim.network.check_invariants()
        return []


def prepare_fig6_batch(seed: int, scratch: Path, tracer) -> PreparedBatch:
    count = SIZES["fig6_batch"]
    scenario = Scenario(utilization=0.7, seed=seed, events=count, churn=True,
                        event_config=heterogeneous_config())
    events = scenario.generate_events()
    sims = []
    for spec in standard_scheduler_specs(seed, alpha=DEFAULTS.alpha):
        sim = scenario.simulator(build_scheduler(spec))
        sim.submit(events)
        sims.append(sim)
    return PreparedBatch(scenario, sims, count)


# ---------------------------------------------------------------- registry

#: Input sizes: events per run (deep_queue: queue depth, timed rounds).
SIZES = {
    "serve_steady": 130,
    "serve_durable": 700,
    "serve_staged": 250,
    "serve_faulted": 300,
    "deep_queue": (5000, 80),
    "fig6_batch": 20,
}


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable
    #: Events a run sets out to process: all count as failed if it crashes.
    nominal: int
    needs_disk: bool = False


#: Why each is here is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("serve_steady", prepare_serve_steady, SIZES["serve_steady"]),
    Workload("serve_durable", prepare_serve_durable, SIZES["serve_durable"],
             needs_disk=True),
    Workload("serve_staged", prepare_serve_staged, SIZES["serve_staged"]),
    Workload("serve_faulted", prepare_serve_faulted, SIZES["serve_faulted"]),
    Workload("deep_queue", prepare_deep_queue, SIZES["deep_queue"][0]),
    Workload("fig6_batch", prepare_fig6_batch, 3 * SIZES["fig6_batch"]),
)}
