"""Property-based tests for the scheduling policies and the simulator.

Scheduler safety properties that must hold for *any* queue contents:

* a P-LMTF round's admissions always replay cleanly in order against the
  live network (no intra-batch bandwidth conflicts);
* a P-LMTF batch admits its non-head candidates in ``(time, seq)`` order,
  all of them drawn from the probed sample;
* LMTF admits exactly the cheapest feasible candidate;
* schedulers never mutate the network while deciding;
* a full simulation conserves events — every submitted event completes
  exactly once, and the network ends with exactly its background flows.
"""

import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import BG_BOT, BG_TOP, cd_flow, diamond_topology  # noqa: E402

from repro.core.event import make_event
from repro.core.executor import apply_plan
from repro.core.flow import Flow, next_flow_id
from repro.core.planner import EventPlanner
from repro.network.routing.provider import PathProvider
from repro.sched.base import QueuedEvent, SchedulingContext
from repro.sched.fifo import FIFOScheduler
from repro.sched.lmtf import LMTFScheduler
from repro.sched.plmtf import ADMIT_MODES, PLMTFScheduler
from repro.sim.simulator import SimulationConfig, UpdateSimulator

TOPO = diamond_topology()
PROVIDER = PathProvider(TOPO)

# (src, dst) pools for event flows — distinct host pairs spread the load
PAIRS = [("a", "b"), ("c", "d"), ("e", "f")]


def build_events(spec: list[list[tuple[int, float, float]]]):
    """spec: per event, a list of (pair_index, demand, duration)."""
    events = []
    for flows_spec in spec:
        flows = []
        for pair_index, demand, duration in flows_spec:
            src, dst = PAIRS[pair_index % len(PAIRS)]
            flows.append(Flow(flow_id=next_flow_id(), src=src, dst=dst,
                              demand=demand, duration=duration))
        events.append(make_event(flows))
    return events


# Demands are bounded so any single event stays placeable: at most three
# flows per event per host pair, 25 Mbit/s each (75 total), plus the 20
# Mbit/s background still fits a 100 Mbit/s uplink. Cross-event pressure is
# fine — events run in separate rounds.
event_spec = st.lists(
    st.lists(st.tuples(st.integers(0, 2),
                       st.floats(min_value=1.0, max_value=25.0),
                       st.floats(min_value=0.1, max_value=5.0)),
             min_size=1, max_size=3),
    min_size=1, max_size=6)


def make_context(events, bg_top=0.0, bg_bot=0.0, seed=7):
    network = TOPO.network()
    if bg_top > 0:
        network.place(cd_flow("bgt", bg_top), BG_TOP)
    if bg_bot > 0:
        network.place(cd_flow("bgb", bg_bot), BG_BOT)
    queue = [QueuedEvent(event, seq=i) for i, event in enumerate(events)]
    ctx = SchedulingContext(now=0.0, queue=queue,
                            planner=EventPlanner(PROVIDER),
                            network=network, rng=random.Random(seed))
    return network, ctx


class TestSchedulerProperties:
    @given(spec=event_spec,
           bg=st.tuples(st.floats(min_value=0, max_value=45),
                        st.floats(min_value=0, max_value=45)),
           admit=st.sampled_from(ADMIT_MODES),
           alpha=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_plmtf_batch_replays_cleanly(self, spec, bg, admit, alpha):
        events = build_events(spec)
        network, ctx = make_context(events, *bg)
        decision = PLMTFScheduler(alpha=alpha, seed=3,
                                  admit=admit).select(ctx)
        for admission in decision.admissions:
            apply_plan(network, admission.plan)  # must never raise
        network.check_invariants()

    @given(spec=event_spec,
           bg=st.tuples(st.floats(min_value=0, max_value=45),
                        st.floats(min_value=0, max_value=45)),
           alpha=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_merged_batch_admits_in_time_seq_order(self, spec, bg, alpha):
        events = build_events(spec)
        _network, ctx = make_context(events, *bg)
        decision = PLMTFScheduler(alpha=alpha, seed=3).select(ctx)
        # head = cheapest probe; the batch walk then follows enqueue
        # order, so everything after the head must be (time, seq)-
        # ascending — a footprint conflict demotes a candidate, it never
        # reorders one
        keys = [(a.queued.arrival_time, a.queued.seq)
                for a in decision.admissions[1:]]
        assert keys == sorted(keys)
        probed = {id(q) for q in decision.probed}
        assert len(probed) == min(alpha + 1, len(events))
        assert all(id(a.queued) in probed for a in decision.admissions)

    @given(spec=event_spec,
           bg=st.tuples(st.floats(min_value=0, max_value=45),
                        st.floats(min_value=0, max_value=45)))
    @settings(max_examples=40, deadline=None)
    def test_lmtf_admits_cheapest_probe(self, spec, bg):
        events = build_events(spec)
        network, ctx = make_context(events, *bg)
        scheduler = LMTFScheduler(alpha=4, seed=3)
        candidates = scheduler.sample_candidates(ctx.queue)
        decision = LMTFScheduler(alpha=4, seed=3).select(ctx)
        if decision.empty:
            return
        chosen = decision.admissions[0]
        # replaying the probes: no candidate may be strictly cheaper
        planner = EventPlanner(PROVIDER)
        chosen_cost = chosen.plan.cost
        for queued in candidates:
            probe = planner.plan_event(
                network, queued.subevent(queued.remaining),
                random.Random(99))
            if probe.feasible:
                assert probe.cost >= chosen_cost - 1e-6 or \
                    queued.seq == chosen.queued.seq

    @given(spec=event_spec)
    @settings(max_examples=40, deadline=None)
    def test_select_never_mutates_network(self, spec):
        events = build_events(spec)
        for scheduler in (FIFOScheduler(), LMTFScheduler(alpha=2, seed=3),
                          PLMTFScheduler(alpha=2, seed=3)):
            network, ctx = make_context(events, 30.0, 30.0)
            snapshot = {link: network.used(*link)
                        for link in network.links()}
            scheduler.select(ctx)
            for link, used in snapshot.items():
                assert network.used(*link) == pytest.approx(used)
            assert not any(network.has_flow(f.flow_id)
                           for e in events for f in e.flows)


class TestSimulationConservation:
    @given(spec=event_spec, scheduler_index=st.integers(0, 2))
    @settings(max_examples=30, deadline=None)
    def test_every_event_completes_exactly_once(self, spec,
                                                scheduler_index):
        events = build_events(spec)
        scheduler = [FIFOScheduler(), LMTFScheduler(alpha=2, seed=3),
                     PLMTFScheduler(alpha=2, seed=3)][scheduler_index]
        network = TOPO.network()
        network.place(cd_flow("bg", 20.0), BG_TOP)
        simulator = UpdateSimulator(
            network, PROVIDER, scheduler,
            config=SimulationConfig(seed=5, verify_invariants=True))
        simulator.submit(events)
        metrics = simulator.run()
        assert metrics.event_count == len(events)
        assert len(metrics.per_event_ect) == len(events)
        assert all(ect >= 0 for ect in metrics.per_event_ect)
        assert all(delay >= 0 for delay in metrics.per_event_delay)
        # only the background flow remains placed
        assert set(network.flow_ids()) == {"bg"}
        network.check_invariants()
