"""``EventRecord.rounds_waited`` is charged per queue stay, not per round.

The metrics collector opens a stay when an event enters the queue
(``QUEUED``/``PROBED``) and charges the rounds settled during it when the
event leaves, so a settled round does no O(queue) work. The differential
tests run the per-round reference alongside — a subscriber adding one to
every queued event on each ``PostRound`` — and require both ledgers to
agree for every event, mid-run and at the end, on the paths that move
events into and out of the queue: sampling, whole-queue probing, partial
admission, defer/requeue/drop under faults, the stall fallback and empty
rounds. The count test pins the cost itself without a clock.
"""

import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import ab_flow, cd_flow, diamond_setup  # noqa: E402

from repro.core.event import make_event
from repro.experiments.common import DEFAULTS, Scenario
from repro.experiments.runner import hermetic_ids
from repro.sched import build_scheduler
from repro.sched.base import RoundDecision
from repro.sched.fifo import FIFOScheduler
from repro.sim.controlplane import UnreliableControlPlane
from repro.sim.faults import FaultProcess
from repro.sim.hooks import PostRound, PreRound, StateTransition
from repro.sim.lifecycle import EventState
from repro.sim.queue import IndexedQueue
from repro.sim.simulator import SimulationConfig, UpdateSimulator
from repro.traces.events import EventGeneratorConfig

#: Engine steps after which the two ledgers are compared mid-run.
CHECK_STEPS = frozenset({1, 2, 5, 20, 60, 150, 400})


@pytest.fixture(autouse=True)
def _hermetic(monkeypatch):
    monkeypatch.delenv("REPRO_AUDIT", raising=False)
    with hermetic_ids():
        yield


class EagerWaiting:
    """The per-round reference: +1 per queued event on every PostRound."""

    def __init__(self, sim):
        self.counts = Counter()
        self._pipeline = sim.pipeline
        sim.hooks.subscribe(PostRound, self._on_post_round)

    def _on_post_round(self, hook):
        for event_id in self._pipeline.queued_event_ids():
            self.counts[event_id] += 1


class MoveCounter:
    """Counts lifecycle moves by ``(from, to)``."""

    def __init__(self, sim):
        self.moves = Counter()
        sim.hooks.subscribe(StateTransition, self._on_transition)

    def _on_transition(self, hook):
        self.moves[hook.record.frm, hook.record.to] += 1


def assert_ledgers_agree(sim, eager):
    records = sim.metrics_collector.records
    assert records, "no events recorded"
    lazy = {eid: r.rounds_waited for eid, r in records.items()}
    assert lazy == {eid: eager.counts[eid] for eid in records}


def drive(sim, events):
    """Run ``sim`` as a stream over ``events`` (arrivals at their
    ``arrival_time``), comparing the ledgers at :data:`CHECK_STEPS` and
    after the drain; returns ``(eager, moves, mid-run checks made)``."""
    eager = EagerWaiting(sim)
    moves = MoveCounter(sim)
    sim.start()
    for event in events:
        sim.engine.schedule_callback(
            event.arrival_time, lambda e=event: sim.enqueue(e),
            tag=f"arrival:{event.event_id}")
    steps = checks = 0
    while sim.engine.step():
        steps += 1
        if steps in CHECK_STEPS:
            assert_ledgers_agree(sim, eager)
            checks += 1
    assert sim.metrics_collector.incomplete_events() == []
    assert_ledgers_agree(sim, eager)
    return eager, moves.moves, checks


def k4_scenario(events, seed=0, max_flows=2, utilization=0.3):
    return Scenario(utilization=utilization, seed=seed, events=events,
                    churn=False,
                    event_config=EventGeneratorConfig(min_flows=1,
                                                      max_flows=max_flows),
                    defaults=replace(DEFAULTS, k=4))


def at_zero(events):
    """The same events, all arriving at t=0 (a bulk-enqueued queue)."""
    return [replace(event, arrival_time=0.0) for event in events]


class TestLazyEqualsEager:
    def test_plmtf_deep_bulk_queue(self):
        scenario = k4_scenario(300)
        sim = scenario.simulator(build_scheduler(
            {"kind": "plmtf", "alpha": DEFAULTS.alpha, "seed": 9}))
        eager, _, checks = drive(sim, at_zero(scenario.generate_events()))
        assert checks == len(CHECK_STEPS)
        assert max(eager.counts.values()) > 10

    @pytest.mark.parametrize("kind", ["fifo", "flow-level"])
    def test_whole_queue_probing(self, kind):
        scenario = k4_scenario(30, seed=1, max_flows=4)
        sim = scenario.simulator(build_scheduler({"kind": kind}))
        eager, moves, _ = drive(sim, at_zero(scenario.generate_events()))
        assert sum(eager.counts.values()) > 0
        partial = moves[EventState.EXECUTING, EventState.QUEUED]
        assert (partial > 0) == (kind == "flow-level")

    def test_faults_defer_requeue_and_drop(self):
        scenario = k4_scenario(40, seed=2, max_flows=3, utilization=0.5)
        sim = scenario.simulator(
            build_scheduler({"kind": "learned", "alpha": 2, "seed": 4}),
            control_plane=UnreliableControlPlane(
                install_failure_prob=0.3, migration_failure_prob=0.3,
                seed=5),
            faults=FaultProcess(rate=0.05, horizon=200.0, seed=6),
            max_deferrals=1)
        eager, moves, _ = drive(sim, scenario.generate_events())
        assert moves[EventState.DEFERRED, EventState.QUEUED] > 0
        assert moves[EventState.DEFERRED, EventState.DROPPED] > 0
        assert sim.metrics_collector.totals["faults_injected"] > 0
        assert sum(eager.counts.values()) > 0

    def test_stall_fallback_admits_unprobed_event(self):
        # A permanent hog leaves host a's uplink 5 Mbit/s: every a->b event
        # is infeasible, and with this seed lmtf(alpha=1) never samples the
        # one placeable event, so the stall fallback admits it unprobed.
        net, provider = diamond_setup()
        net.place(ab_flow("hog", 95.0, duration=None),
                  ("a", "s1", "top", "s2", "b"))
        sim = UpdateSimulator(
            net, provider,
            build_scheduler({"kind": "lmtf", "alpha": 1, "seed": 0}),
            config=SimulationConfig(seed=1, max_deferrals=1))
        blocked = [make_event([ab_flow(f"big{i}", 50.0, 1.0)])
                   for i in range(6)]
        small = make_event([cd_flow("tiny", 2.0, 1.0)])
        probes, admitting_round = [0], []

        def on_transition(hook):
            probes[0] += hook.record.to is EventState.PROBED

        def on_pre_round(hook):
            if hook.admitted == (small.event_id,):
                admitting_round.append(probes[0])
            probes[0] = 0

        sim.hooks.subscribe(StateTransition, on_transition)
        sim.hooks.subscribe(PreRound, on_pre_round)
        eager, _, _ = drive(sim, blocked + [small])
        # the alpha+1 sampled candidates, plus the fallback's pick
        assert admitting_round == [1 + 1 + 1]
        assert eager.counts[small.event_id] > 0

    def test_empty_round(self):
        class HoldUntil(FIFOScheduler):
            """Admits nothing before t=5 (a later arrival keeps the
            engine busy, so the round is empty, not a stall)."""

            def select(self, ctx):
                if ctx.now < 5.0:
                    return RoundDecision()
                return super().select(ctx)

        net, provider = diamond_setup()
        sim = UpdateSimulator(net, provider, HoldUntil(),
                              config=SimulationConfig())
        held = make_event([ab_flow("h0", 10.0, 2.0)])
        late = make_event([ab_flow("l0", 10.0, 2.0)], arrival_time=5.0)
        eager, _, _ = drive(sim, [held, late])
        assert sim.rounds[0].admitted_events == ()
        assert eager.counts == {held.event_id: 1, late.event_id: 1}


class TestSettledRoundCost:
    """A settled round walks none of the queue: the queue items iterated
    over 20 rounds do not depend on the queue's depth."""

    WARMUP, TIMED = 5, 20

    def queue_items_iterated(self, depth, monkeypatch):
        with hermetic_ids():
            scenario = k4_scenario(depth, max_flows=1)
            sim = scenario.simulator(build_scheduler(
                {"kind": "plmtf", "alpha": DEFAULTS.alpha, "seed": 9}))
            assert sim.auditor is None
            sim.start()
            for event in scenario.generate_events():
                sim.pipeline.enqueue(event, kick=False)
            sim.pipeline.schedule_round()
            self.step_to_round(sim, self.WARMUP)
            yielded = [0]
            iterate = IndexedQueue.__iter__

            def counting(queue):
                for entry in iterate(queue):
                    yielded[0] += 1
                    yield entry

            with monkeypatch.context() as patch:
                patch.setattr(IndexedQueue, "__iter__", counting)
                self.step_to_round(sim, self.WARMUP + self.TIMED)
        assert sim.pipeline.queue_depth > depth // 2
        return yielded[0]

    @staticmethod
    def step_to_round(sim, goal):
        while sim.pipeline.round_count < goal and sim.engine.step():
            pass
        assert sim.pipeline.round_count == goal

    def test_queue_walk_independent_of_depth(self, monkeypatch):
        shallow = self.queue_items_iterated(500, monkeypatch)
        deep = self.queue_items_iterated(2000, monkeypatch)
        assert shallow == deep
