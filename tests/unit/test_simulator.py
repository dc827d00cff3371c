"""Unit tests for the update simulator on the small diamond network."""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import ab_flow, cd_flow, diamond_setup  # noqa: E402
from helpers import BG_TOP  # noqa: E402
from helpers import record_rounds  # noqa: E402

from repro.core.event import make_event
from repro.core.exceptions import SimulationError
from repro.core.flow import FlowKind
from repro.experiments.common import DEFAULTS, Scenario
from repro.sched.fifo import FIFOScheduler
from repro.sched.flowlevel import FlowLevelScheduler
from repro.sched.lmtf import LMTFScheduler
from repro.sched.plmtf import PLMTFScheduler
from repro.sim.hooks import ChurnTick
from repro.sim.simulator import SimulationConfig, UpdateSimulator
from repro.sim.timing import TimingModel
from repro.traces.yahoo import YahooLikeTrace


def simple_events(count=3, demand=10.0, duration=2.0):
    return [make_event([ab_flow(f"e{i}f{j}", demand, duration)
                        for j in range(2)], label=f"e{i}")
            for i in range(count)]


def build_simulator(scheduler=None, events=None, config=None, timing=None):
    net, provider = diamond_setup()
    sim = UpdateSimulator(net, provider, scheduler or FIFOScheduler(),
                          timing=timing or TimingModel(),
                          config=config or SimulationConfig(
                              verify_invariants=True))
    sim.submit(events if events is not None else simple_events())
    return sim


def executed_per_round(log) -> list[list[str]]:
    """Event ids a :class:`~repro.sim.tracelog.TraceLog` saw execute,
    grouped by the round that decided them.

    ``PreRound.admitted`` lists the *decided* admissions; an execution
    failure turns one into a deferral, and only a successful execution
    reaches the log as an ``admission`` record.
    """
    rounds: list[list[str]] = []
    for record in log.records:
        if record.kind == "round":
            rounds.append([])
        elif record.kind == "admission":
            rounds[-1].append(record.data["event"])
    return rounds


class TestConfigValidation:
    def test_bad_barrier(self):
        with pytest.raises(ValueError, match="round_barrier"):
            SimulationConfig(round_barrier="vibes")

    def test_churn_needs_trace(self):
        net, provider = diamond_setup()
        with pytest.raises(ValueError, match="churn_trace"):
            UpdateSimulator(net, provider, FIFOScheduler(),
                            config=SimulationConfig(background_churn=True))


class TestBasicRuns:
    def test_fifo_completes_all_events(self):
        metrics = build_simulator().run()
        assert metrics.event_count == 3
        assert metrics.rounds == 3
        assert metrics.average_ect > 0
        assert metrics.tail_ect >= metrics.average_ect

    def test_fifo_sequential_timing(self):
        timing = TimingModel(rule_install_s=0.0, migration_rule_s=0.0,
                             drain_s_per_mbps=0.0, plan_s_per_op=0.0)
        metrics = build_simulator(timing=timing).run()
        # 3 events, each occupying exactly its 2s flow duration, no costs
        assert metrics.per_event_ect == pytest.approx((2.0, 4.0, 6.0))
        assert metrics.per_event_delay == pytest.approx((0.0, 2.0, 4.0))
        assert metrics.makespan == pytest.approx(6.0)

    def test_flows_removed_after_completion(self):
        sim = build_simulator()
        sim.run()
        # only (permanent) background remains; events' flows are gone
        assert sim.network.flow_count() == 0

    def test_empty_submit_rejected(self):
        net, provider = diamond_setup()
        sim = UpdateSimulator(net, provider, FIFOScheduler())
        with pytest.raises(SimulationError, match="no events"):
            sim.run()

    def test_single_use(self):
        sim = build_simulator()
        sim.run()
        with pytest.raises(SimulationError, match="already ran"):
            sim.run()
        with pytest.raises(SimulationError):
            sim.submit(simple_events())

    def test_infinite_event_flow_rejected(self):
        net, provider = diamond_setup()
        sim = UpdateSimulator(net, provider, FIFOScheduler())
        permanent = make_event([ab_flow("inf", 10.0, duration=None)
                                .replace(duration=None)])
        with pytest.raises(SimulationError, match="infinite"):
            sim.submit([permanent])

    def test_determinism(self):
        a = build_simulator(LMTFScheduler(alpha=2, seed=4)).run()
        b = build_simulator(LMTFScheduler(alpha=2, seed=4)).run()
        assert a.per_event_ect == b.per_event_ect
        assert a.total_cost == b.total_cost


class TestArrivals:
    def test_staggered_arrivals(self):
        events = simple_events(2)
        events[1] = make_event(list(events[1].flows), arrival_time=100.0,
                               event_id=events[1].event_id)
        timing = TimingModel(rule_install_s=0.0, migration_rule_s=0.0,
                             drain_s_per_mbps=0.0, plan_s_per_op=0.0)
        metrics = build_simulator(events=events, timing=timing).run()
        # the late event waits for nothing: zero queuing delay
        assert metrics.per_event_delay[1] == pytest.approx(0.0)
        assert metrics.per_event_ect[1] == pytest.approx(2.0)

    def test_batch_visible_to_first_round(self):
        sim = build_simulator(PLMTFScheduler(alpha=4))
        metrics = sim.run()
        # all three tiny events fit one round: the batch was fully visible
        assert metrics.rounds == 1


class TestQueueBehaviour:
    def test_plmtf_parallelizes(self):
        timing = TimingModel(rule_install_s=0.0, migration_rule_s=0.0,
                             drain_s_per_mbps=0.0, plan_s_per_op=0.0)
        fifo = build_simulator(FIFOScheduler(), timing=timing).run()
        plmtf = build_simulator(PLMTFScheduler(alpha=4),
                                timing=timing).run()
        assert plmtf.average_ect < fifo.average_ect
        assert plmtf.makespan == pytest.approx(2.0)

    def test_flow_level_serializes_flows(self):
        timing = TimingModel(rule_install_s=0.0, migration_rule_s=0.0,
                             drain_s_per_mbps=0.0, plan_s_per_op=0.0)
        metrics = build_simulator(FlowLevelScheduler(),
                                  timing=timing).run()
        # 6 unit flows of 2s each, one at a time
        assert metrics.makespan == pytest.approx(12.0)
        assert metrics.rounds == 6

    def test_stall_fallback_skips_blocked_head(self):
        net, provider = diamond_setup()
        # a hog makes the first event permanently infeasible
        net.place(ab_flow("hog", 95.0, duration=None)
                  .replace(duration=None), ("a", "s1", "top", "s2", "b"))
        blocked = make_event([ab_flow("big", 50.0, 1.0)], label="blocked")
        small = make_event([cd_flow("tiny", 2.0, 1.0)], label="small")
        sim = UpdateSimulator(net, provider, FIFOScheduler(),
                              config=SimulationConfig(stall_fallback=True))
        sim.submit([blocked, small])
        with pytest.raises(SimulationError, match="deadlock"):
            # the fallback admits "small", but "blocked" then deadlocks
            sim.run()

    def test_deadlock_without_fallback(self):
        net, provider = diamond_setup()
        net.place(ab_flow("hog", 95.0, duration=None)
                  .replace(duration=None), ("a", "s1", "top", "s2", "b"))
        blocked = make_event([ab_flow("big", 50.0, 1.0)])
        sim = UpdateSimulator(net, provider, FIFOScheduler(),
                              config=SimulationConfig(stall_fallback=False))
        sim.submit([blocked])
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run()

    def test_round_log_records_admissions(self):
        sim = build_simulator()
        rounds = record_rounds(sim)
        sim.run()
        assert len(rounds) == 3
        assert all(len(r.admitted) == 1 for r in rounds)


class TestStallFallbackUnit:
    """Direct tests of the pipeline's ``should_fallback`` /
    ``fallback_decision``."""

    def _stalled_sim(self, stall_fallback=True):
        """A simulator whose queue head is permanently infeasible: a
        duration-less hog leaves 5 Mbit/s on the a->s1 link."""
        net, provider = diamond_setup()
        net.place(ab_flow("hog", 95.0, duration=None),
                  ("a", "s1", "top", "s2", "b"))
        sim = UpdateSimulator(
            net, provider, FIFOScheduler(),
            config=SimulationConfig(seed=1, stall_fallback=stall_fallback))
        return sim

    def _stalled_context(self, sim):
        from repro.sched.base import QueuedEvent, SchedulingContext
        blocked = make_event([ab_flow("big", 50.0, 1.0)], label="blocked")
        small = make_event([cd_flow("tiny", 2.0, 1.0)], label="small")
        queue = [QueuedEvent(blocked, seq=0), QueuedEvent(small, seq=1)]
        return SchedulingContext(now=0.0, queue=queue,
                                 planner=sim._planner,
                                 network=sim._network, rng=sim._rng)

    def test_should_fallback_only_when_waiting_cannot_help(self):
        sim = self._stalled_sim()
        # idle: nothing outstanding, empty engine queue -> fall back
        assert sim.pipeline.should_fallback()

    def test_no_fallback_while_engine_has_pending_events(self):
        sim = self._stalled_sim()
        # a future arrival/churn event could unblock the head: keep waiting
        sim._engine.schedule_at(1.0, lambda: None)
        assert not sim.pipeline.should_fallback()

    def test_no_fallback_while_round_outstanding(self):
        sim = self._stalled_sim()
        sim.pipeline.round_outstanding = 1
        assert not sim.pipeline.should_fallback()

    def test_no_fallback_when_disabled(self):
        sim = self._stalled_sim(stall_fallback=False)
        assert not sim.pipeline.should_fallback()

    def test_fallback_admits_first_feasible_in_arrival_order(self):
        from repro.sched.base import RoundDecision
        sim = self._stalled_sim()
        ctx = self._stalled_context(sim)
        decision = sim.pipeline.fallback_decision(ctx, RoundDecision())
        assert [a.queued.event.label for a in decision.admissions] \
            == ["small"]
        assert decision.admissions[0].plan.feasible

    def test_fallback_carries_prior_ops_and_cache_counters(self):
        from repro.sched.base import RoundDecision
        sim = self._stalled_sim()
        ctx = self._stalled_context(sim)
        prior = RoundDecision(planning_ops=7, cache_hits=3,
                              cache_misses=2, cache_invalidations=1)
        decision = sim.pipeline.fallback_decision(ctx, prior)
        baseline = sim.pipeline.fallback_decision(ctx, RoundDecision())
        # the scheduler's (empty) decision already cost planning work; the
        # fallback's own probes add on top of it
        assert decision.planning_ops == baseline.planning_ops + 7
        assert decision.planning_ops > 7
        assert (decision.cache_hits, decision.cache_misses,
                decision.cache_invalidations) == (3, 2, 1)

    def test_fallback_with_all_infeasible_queue_stays_empty(self):
        from repro.sched.base import QueuedEvent, RoundDecision, \
            SchedulingContext
        sim = self._stalled_sim()
        big1 = make_event([ab_flow("big1", 50.0, 1.0)])
        big2 = make_event([ab_flow("big2", 60.0, 1.0)])
        ctx = SchedulingContext(
            now=0.0,
            queue=[QueuedEvent(big1, seq=0), QueuedEvent(big2, seq=1)],
            planner=sim._planner, network=sim._network, rng=sim._rng)
        prior = RoundDecision(planning_ops=4, cache_hits=1,
                              cache_misses=1, cache_invalidations=0)
        decision = sim.pipeline.fallback_decision(ctx, prior)
        assert decision.empty
        # every queued event was probed, each adding ops beyond the prior's
        assert decision.planning_ops > 4
        assert (decision.cache_hits, decision.cache_misses,
                decision.cache_invalidations) == (1, 1, 0)


class TestSetupBarrier:
    def test_ect_measured_at_setup(self):
        timing = TimingModel(rule_install_s=0.5, migration_rule_s=0.0,
                             drain_s_per_mbps=0.0, plan_s_per_op=0.0)
        config = SimulationConfig(round_barrier="setup")
        metrics = build_simulator(timing=timing, config=config).run()
        # each round occupies only the 0.5s install; flow durations (2s)
        # do not extend the ECT under the pipelined reading
        assert metrics.per_event_ect == pytest.approx((0.5, 1.0, 1.5))

    def test_flows_still_drain_from_network(self):
        config = SimulationConfig(round_barrier="setup")
        sim = build_simulator(config=config)
        sim.run()
        assert sim.network.flow_count() == 0


class TestFaultPipeline:
    """Mid-run failures: strand → repair event → requeue (or drop)."""

    def both_middle_down(self, at, heal_at=None):
        from repro.sim.faults import FaultSchedule, SwitchFault
        return FaultSchedule([SwitchFault(switch="top", at=at,
                                          heal_at=heal_at),
                              SwitchFault(switch="bot", at=at,
                                          heal_at=heal_at)])

    def faulted_simulator(self, faults, config, listener=None,
                          control_plane=None):
        net, provider = diamond_setup()
        sim = UpdateSimulator(net, provider, FIFOScheduler(),
                              timing=TimingModel(), config=config,
                              listener=listener, control_plane=control_plane,
                              faults=faults)
        sim.submit([make_event([ab_flow("f1", 10.0, duration=5.0)],
                               label="original", event_id="E0")])
        return sim

    def test_strand_repair_requeue_complete(self):
        from repro.sim.tracelog import TraceLog
        log = TraceLog()
        config = SimulationConfig(verify_invariants=True,
                                  max_deferrals=5,
                                  repair_flow_duration=3.0)
        sim = self.faulted_simulator(self.both_middle_down(2.0, heal_at=6.0),
                                     config, listener=log)
        metrics = sim.run()
        # Both the original event and the auto-generated repair completed.
        assert metrics.event_count == 2
        assert metrics.faults_injected == 2
        assert metrics.faults_healed == 2
        assert metrics.dropped_events == 0
        assert metrics.stranded_traffic == 0.0
        assert sim.network.flow_count() == 0
        kinds = {r.kind for r in log.records}
        assert {"fault", "heal"} <= kinds
        # The repair could not start until the heal restored capacity.
        (fault_with_strand,) = [r for r in log.of_kind("fault")
                                if r.data["stranded_flows"]]
        assert fault_with_strand.data["stranded_demand"] == 10.0

    def test_partition_drops_repair_with_accounting(self):
        from repro.sim.tracelog import TraceLog
        log = TraceLog()
        config = SimulationConfig(verify_invariants=True, max_deferrals=2,
                                  repair_flow_duration=3.0)
        sim = self.faulted_simulator(self.both_middle_down(2.0), config,
                                     listener=log)
        metrics = sim.run()  # must not raise despite the dead repair
        assert metrics.event_count == 1  # only the original completed
        assert metrics.dropped_events == 1
        assert metrics.stranded_traffic == pytest.approx(10.0)
        assert metrics.deferrals == 3  # max_deferrals + the dropping pass
        assert log.of_kind("drop")
        assert len(log.of_kind("deferral")) == 3

    def test_partition_without_deferral_budget_keeps_legacy_error(self):
        config = SimulationConfig(verify_invariants=True)  # max_deferrals=None
        sim = self.faulted_simulator(self.both_middle_down(2.0), config)
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run()

    def test_exec_failure_rolls_back_and_requeues(self):
        from repro.sim.controlplane import ScriptedControlPlane
        from repro.sim.tracelog import TraceLog
        log = TraceLog()
        config = SimulationConfig(verify_invariants=True,
                                  exec_max_retries=0, max_deferrals=5)
        net, provider = diamond_setup()
        sim = UpdateSimulator(net, provider, FIFOScheduler(),
                              config=config, listener=log,
                              control_plane=ScriptedControlPlane([False]),
                              faults=None)
        sim.submit(simple_events(1))
        metrics = sim.run()
        assert metrics.event_count == 1
        assert metrics.deferrals == 1
        assert metrics.dropped_events == 0
        # Round 1 executed nothing (execution failed and rolled back); a
        # later round re-planned and completed the event.
        executed = executed_per_round(log)
        assert executed[0] == []
        assert any(executed[1:])
        assert log.of_kind("exec_failure")
        assert sim.network.flow_count() == 0

    def test_zero_fault_wiring_is_byte_identical(self):
        from repro.sim.controlplane import ReliableControlPlane
        from repro.sim.faults import FaultSchedule
        events = simple_events()
        net1, provider1 = diamond_setup()
        plain = UpdateSimulator(net1, provider1, FIFOScheduler(),
                                config=SimulationConfig())
        plain.submit(events)
        net2, provider2 = diamond_setup()
        wired = UpdateSimulator(net2, provider2, FIFOScheduler(),
                                config=SimulationConfig(),
                                control_plane=ReliableControlPlane(),
                                faults=FaultSchedule([]))
        wired.submit(events)
        assert plain.run() == wired.run()

    def test_fault_schedule_validated_at_run_start(self):
        from repro.core.exceptions import TopologyError
        from repro.sim.faults import FaultSchedule, LinkFault
        net, provider = diamond_setup()
        sim = UpdateSimulator(net, provider, FIFOScheduler(),
                              faults=FaultSchedule([
                                  LinkFault(u="s1", v="mars", at=1.0)]))
        sim.submit(simple_events(1))
        with pytest.raises(TopologyError, match="missing link"):
            sim.run()

    def test_config_validation(self):
        with pytest.raises(ValueError, match="max_deferrals"):
            SimulationConfig(max_deferrals=-1)
        with pytest.raises(ValueError, match="repair_flow_duration"):
            SimulationConfig(repair_flow_duration=0.0)


class TestChurn:
    def test_background_churns_and_completes(self):
        net, provider = diamond_setup()
        net.place(cd_flow("bg1", 10.0, duration=1.0), BG_TOP)
        churn = YahooLikeTrace(["a", "b", "c", "d"], seed=3,
                               demand_max=20.0)
        sim = UpdateSimulator(net, provider, FIFOScheduler(),
                              config=SimulationConfig(
                                  background_churn=True),
                              churn_trace=churn)
        sim.submit(simple_events(2))
        metrics = sim.run()
        assert metrics.event_count == 2
        # the original background flow was replaced/completed
        assert not net.has_flow("bg1")

    def test_tick_reports_flows_actually_placed(self):
        """``ChurnTick.respawned`` counts the tick's placements; ticks
        that skip respawn (every event already done) report 0. Every
        background flow that ever existed is either one of the initial
        ones or a respawn, and each finished in exactly one tick unless it
        is still placed, so the sum is pinned by the flow table alone."""
        scenario = Scenario(utilization=0.5, seed=0, events=3,
                            defaults=replace(DEFAULTS, k=4))
        sim = scenario.simulator(FIFOScheduler())
        ticks = []
        sim.hooks.subscribe(ChurnTick, ticks.append)
        net = sim.network

        def background_flows():
            return sum(net.placement(fid).flow.kind is FlowKind.BACKGROUND
                       for fid in net.flow_ids())

        initial_flows = background_flows()
        sim.submit(scenario.generate_events())
        sim.run()
        final_flows = background_flows()
        assert len(ticks) > initial_flows  # some respawns finished too
        assert sum(t.respawned for t in ticks) \
            == len(ticks) - initial_flows + final_flows


class HoldUntilScheduler(FIFOScheduler):
    """Admits nothing before ``release``; plain FIFO afterwards.

    Forces genuinely *empty* rounds while a future arrival keeps the
    engine busy (so neither the stall fallback nor the deadlock check
    fires) — the setup for the empty-round accounting regression tests.
    """

    name = "hold-until"

    def __init__(self, release):
        super().__init__()
        self._release = release

    def select(self, ctx):
        if ctx.now < self._release:
            from repro.sched.base import RoundDecision
            return RoundDecision()
        return super().select(ctx)


class TestEmptyRoundAccounting:
    """An empty decision consumes a round; both books must say so."""

    def _run(self):
        held = make_event([ab_flow("h0", 10.0, 2.0)], label="held")
        late = make_event([ab_flow("l0", 10.0, 2.0)], arrival_time=5.0,
                          label="late")
        sim = build_simulator(scheduler=HoldUntilScheduler(release=5.0),
                              events=[held, late])
        self.rounds = record_rounds(sim)
        return sim, sim.run(), held, late

    def test_round_count_matches_round_log(self):
        sim, metrics, _, _ = self._run()
        # round 1 (t=0) is empty; rounds 2-3 admit the two events
        assert metrics.rounds == len(self.rounds) == 3
        assert self.rounds[0].admitted == ()

    def test_round_count_agrees_with_index_and_audits(self, monkeypatch):
        """The pipeline's round index, the metrics' round count and the
        auditor's per-round audits are three books on one quantity; the
        empty round has to land in all three."""
        monkeypatch.setenv("REPRO_AUDIT", "1")
        sim, metrics, _, _ = self._run()
        assert (sim.pipeline.round_count == metrics.rounds
                == sim.auditor.audits == len(self.rounds) == 3)

    def test_empty_round_charges_waits_and_plan_time(self):
        sim, metrics, held, late = self._run()
        records = sim._metrics.records
        # held waits through the empty round at t=0; late waits through
        # the t=5 round that admits held ahead of it (FIFO order).
        assert records[held.event_id].rounds_waited == 1
        assert records[late.event_id].rounds_waited == 1
        assert metrics.total_plan_time == pytest.approx(
            sum(r.plan_time for r in self.rounds))


class TestBookkeepingHygiene:
    """Per-event pipeline state must not outlive the event (the dicts
    would otherwise grow without bound in service mode)."""

    def _assert_purged(self, sim):
        pipe = sim.pipeline
        assert pipe._event_outstanding == {}
        assert pipe._event_done_queueing == set()
        assert pipe._deferral_counts == {}

    def test_purged_after_clean_run(self):
        sim = build_simulator()
        sim.run()
        self._assert_purged(sim)

    def test_purged_after_flow_level_partial_admissions(self):
        sim = build_simulator(scheduler=FlowLevelScheduler())
        sim.run()
        self._assert_purged(sim)

    def test_purged_after_exec_failure_deferral(self):
        from repro.sim.controlplane import ScriptedControlPlane
        net, provider = diamond_setup()
        sim = UpdateSimulator(net, provider, FIFOScheduler(),
                              config=SimulationConfig(exec_max_retries=0,
                                                      max_deferrals=5),
                              control_plane=ScriptedControlPlane([False]))
        sim.submit(simple_events(1))
        metrics = sim.run()
        assert metrics.deferrals == 1
        self._assert_purged(sim)

    def test_purged_after_drop(self):
        net, provider = diamond_setup()
        net.place(ab_flow("hog", 95.0, duration=None),
                  ("a", "s1", "top", "s2", "b"))
        blocked = make_event([ab_flow("big", 50.0, 1.0)], label="blocked")
        small = make_event([cd_flow("tiny", 2.0, 1.0)], label="small")
        sim = UpdateSimulator(net, provider, FIFOScheduler(),
                              config=SimulationConfig(max_deferrals=1))
        sim.submit([blocked, small])
        metrics = sim.run()
        assert metrics.dropped_events == 1
        self._assert_purged(sim)
