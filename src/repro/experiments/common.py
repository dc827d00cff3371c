"""Shared scaffolding for the paper's experiments (Figs. 1, 4–9).

Every figure module builds on :class:`Scenario`, which freezes the paper's
evaluation setup — an 8-pod Fat-Tree with 1 Gbps links, Yahoo!-like
background traffic loaded to a target utilization, Benson-style update-event
flows. Figures run their (scenario, scheduler) pairs as hermetic cells
(:func:`repro.experiments.runner.run_scheduler_grid`).

The frozen workload/timing constants live in :data:`DEFAULTS`; they were
calibrated so that the simulator operates in the paper's regime (migration
needed for a meaningful fraction of flows at 50–90% utilization, migration
drain comparable to event execution). EXPERIMENTS.md discusses their effect.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.core.event import UpdateEvent
from repro.network.network import Network
from repro.network.routing.provider import PathProvider
from repro.network.topology.fattree import FatTreeTopology
from repro.sched.base import Scheduler
from repro.sim.metrics import RunMetrics
from repro.sim.simulator import SimulationConfig, UpdateSimulator
from repro.sim.timing import TimingModel
from repro.traces.background import BackgroundLoader
from repro.traces.benson import BensonLikeTrace
from repro.traces.events import EventGenerator, EventGeneratorConfig
from repro.traces.yahoo import YahooLikeTrace


@dataclass(frozen=True)
class ExperimentDefaults:
    """Calibrated constants shared by all figure reproductions."""

    k: int = 8
    link_capacity: float = 1000.0
    background_duration_median: float = 80.0
    event_duration_median: float = 1.0
    event_duration_sigma: float = 1.0
    alpha: int = 4
    migration_rule_s: float = 0.02
    drain_s_per_mbps: float = 0.05
    plan_s_per_op: float = 2e-5


DEFAULTS = ExperimentDefaults()


@dataclass
class Scenario:
    """One reproducible experimental setup.

    Args:
        utilization: target average fabric utilization for the background.
        seed: master seed; every random component derives from it.
        events: how many update events to queue.
        event_config: event shape (flow-count range, arrivals).
        churn: whether background flows complete and respawn during the run
            (the paper's dynamic network state); Fig. 7 turns this off.
        defaults: calibrated constants (rarely overridden).
    """

    utilization: float = 0.7
    seed: int = 0
    events: int = 30
    event_config: EventGeneratorConfig = field(
        default_factory=EventGeneratorConfig)
    churn: bool = True
    defaults: ExperimentDefaults = DEFAULTS

    def __post_init__(self):
        self._topology: FatTreeTopology | None = None
        self._provider: PathProvider | None = None
        self._base_network: Network | None = None
        self._achieved_utilization: float | None = None

    # ------------------------------------------------------------- building

    @property
    def topology(self) -> FatTreeTopology:
        if self._topology is None:
            self._topology = FatTreeTopology(
                k=self.defaults.k, link_capacity=self.defaults.link_capacity)
        return self._topology

    @property
    def provider(self) -> PathProvider:
        if self._provider is None:
            self._provider = PathProvider(self.topology)
        return self._provider

    def background_trace(self, seed_offset: int = 0) -> YahooLikeTrace:
        return YahooLikeTrace(
            self.topology.hosts(), seed=self.seed + seed_offset,
            duration_median=self.defaults.background_duration_median)

    def loaded_network(self) -> Network:
        """A fresh copy of the background-loaded network (loaded once)."""
        if self._base_network is None:
            network = self.topology.network()
            loader = BackgroundLoader(network, self.provider,
                                      self.background_trace(),
                                      random.Random(self.seed + 100))
            report = loader.load_to_utilization(
                self.utilization, permanent=not self.churn)
            self._base_network = network
            self._achieved_utilization = report.utilization
        return self._base_network.copy()

    @property
    def achieved_utilization(self) -> float:
        """Average fabric utilization actually reached by the loader (can
        fall short of very high targets; reported alongside results)."""
        if self._achieved_utilization is None:
            self.loaded_network()
        return self._achieved_utilization

    def event_trace(self) -> BensonLikeTrace:
        return BensonLikeTrace(
            self.topology.hosts(), seed=self.seed + 1,
            duration_median=self.defaults.event_duration_median,
            duration_sigma=self.defaults.event_duration_sigma)

    def generate_events(self) -> list[UpdateEvent]:
        generator = EventGenerator(self.event_trace(),
                                   config=self.event_config,
                                   seed=self.seed + 2)
        return generator.generate(self.events)

    def timing(self) -> TimingModel:
        return TimingModel(
            migration_rule_s=self.defaults.migration_rule_s,
            drain_s_per_mbps=self.defaults.drain_s_per_mbps,
            plan_s_per_op=self.defaults.plan_s_per_op)

    def simulator(self, scheduler: Scheduler,
                  round_barrier: str = "completion",
                  control_plane=None, faults=None,
                  max_deferrals: int | None = None,
                  compile_mode: str = "atomic",
                  compile_epsilon: float = 0.0) -> UpdateSimulator:
        """A simulator over a fresh network copy for one scheduler run.

        ``control_plane``/``faults``/``max_deferrals`` wire in the fault
        pipeline (see :mod:`repro.sim.faults`); ``compile_mode``/
        ``compile_epsilon`` select the plan-compilation mode
        (:mod:`repro.core.compile`); the defaults keep the legacy
        fault-free, infallible, atomic setup bit-for-bit.
        """
        config = SimulationConfig(seed=self.seed + 5,
                                  background_churn=self.churn,
                                  round_barrier=round_barrier,
                                  max_deferrals=max_deferrals,
                                  compile_mode=compile_mode,
                                  compile_epsilon=compile_epsilon)
        churn_trace = self.background_trace(seed_offset=50) \
            if self.churn else None
        return UpdateSimulator(self.loaded_network(), self.provider,
                               scheduler, timing=self.timing(),
                               config=config, churn_trace=churn_trace,
                               control_plane=control_plane, faults=faults)

    def with_(self, **changes) -> "Scenario":
        """A modified copy (dataclass ``replace`` that resets caches)."""
        return replace(self, **changes)


def run_schedulers(scenario: Scenario, schedulers: list[Scheduler],
                   events: list[UpdateEvent] | None = None,
                   ) -> dict[str, RunMetrics]:
    """Run the same event queue through each scheduler, in this process.

    Every scheduler sees an identical copy of the loaded network and the
    identical event list, so metric differences are attributable to the
    policy alone. A library convenience for scheduler objects built by
    hand; flow ids come from the process-global counters, so the numbers
    depend on what ran before in the process (figures use
    :func:`~repro.experiments.runner.run_scheduler_grid` instead).
    """
    queue = events if events is not None else scenario.generate_events()
    results: dict[str, RunMetrics] = {}
    for scheduler in schedulers:
        simulator = scenario.simulator(scheduler)
        simulator.submit(queue)
        results[scheduler.name] = simulator.run()
    return results


def reduction(baseline: float, value: float) -> float:
    """Percent reduction of ``value`` relative to ``baseline``."""
    if baseline == 0:
        return 0.0
    return (1.0 - value / baseline) * 100.0


def average_over_seeds(make_scenario, seeds, run_one) -> list:
    """Utility: run ``run_one(scenario)`` per seed and collect results."""
    return [run_one(make_scenario(seed)) for seed in seeds]
