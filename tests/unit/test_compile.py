"""Unit tests for the plan compiler, staged execution, and tie-breaking.

The hypothesis suite (``tests/property/test_compile_properties.py``) covers
the compiler's invariants over random workloads; these tests pin the exact
behavior on one hand-built scenario — config validation, stage boundaries,
the augmented merge, the one-stage certificate, whole-plan rollback,
per-stage timing charges, and the staged schedulers' cost-tie stage-count
preference and how many compiles it costs.
"""

import random
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import (  # noqa: E402
    BG_BOT,
    BG_TOP,
    BOT,
    EF_BOT,
    TOP,
    ab_flow,
    cd_flow,
    diamond_setup,
    diamond_topology,
    ef_flow,
)

from repro.core import compile as compile_mod
from repro.core import executor as executor_mod
from repro.core.compile import (
    COMPILE_MODES,
    ONE_STAGE_MARGIN,
    PlanCompilerConfig,
    compile_plan,
)
from repro.core.consistency import sequential_order_is_safe
from repro.core.event import make_event
from repro.core.exceptions import PlacementError
from repro.core.executor import PlanExecutor, apply_plan, apply_stages
from repro.core.flow import Flow
from repro.core.ordering import plan_steps
from repro.core.plan import EventPlan, FlowPlan, Migration
from repro.core.planner import EventPlanner
from repro.network.link import EPS
from repro.sched import staged as staged_mod
from repro.sched.base import QueuedEvent
from repro.sched.staged import (
    StagedCompileMixin,
    StagedLMTFScheduler,
    StagedPLMTFScheduler,
)
from repro.sim.timing import TimingModel


@pytest.fixture()
def planned():
    """(network, provider, plan) where the plan needs one migration.

    Background: 45 units a-top (``bgt``), 10 units a-bot (``bgb``); the
    event flow wants 60 on the 100-capacity diamond, so the planner must
    move ``bgt`` to the bottom path first. One-shot application transiently
    holds both flows on the top links (105/100), so staged compilation
    splits the plan at exactly that boundary.
    """
    net, provider = diamond_setup()
    net.place(cd_flow("bgt", 45.0), BG_TOP)
    net.place(cd_flow("bgb", 10.0), BG_BOT)
    planner = EventPlanner(provider)
    event = make_event([ab_flow("f1", 60.0)])
    plan = planner.plan_event(net, event, random.Random(1), commit=False)
    assert plan.feasible and plan.cost == 45.0
    return net, provider, plan


class TestConfigValidation:
    def test_simulation_config_shares_the_rule(self):
        # SimulationConfig validates (mode, ε) by building the
        # PlanCompilerConfig: same ValueError for the same input.
        from repro.sim.config import SimulationConfig
        for mode, epsilon in (("bogus", 0.0), ("staged", 0.1),
                              ("augmented", -0.1)):
            with pytest.raises(ValueError) as direct:
                PlanCompilerConfig(mode=mode, epsilon=epsilon)
            with pytest.raises(ValueError) as via_sim:
                SimulationConfig(compile_mode=mode, compile_epsilon=epsilon)
            assert str(via_sim.value) == str(direct.value)
        assert SimulationConfig(compile_mode="augmented",
                                compile_epsilon=0.2).compile_epsilon == 0.2

    def test_defaults_are_atomic(self):
        config = PlanCompilerConfig()
        assert config.mode == "atomic" and config.epsilon == 0.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown compile mode"):
            PlanCompilerConfig(mode="eventual")

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError, match="epsilon"):
            PlanCompilerConfig(mode="augmented", epsilon=-0.1)

    @pytest.mark.parametrize("mode", ["atomic", "staged"])
    def test_epsilon_requires_augmented(self, mode):
        with pytest.raises(ValueError, match="augmented"):
            PlanCompilerConfig(mode=mode, epsilon=0.1)

    def test_all_modes_construct(self):
        for mode in COMPILE_MODES:
            assert PlanCompilerConfig(mode=mode).mode == mode


class TestCompile:
    def test_atomic_is_one_stage_with_overshoot_recorded(self, planned):
        net, _, plan = planned
        compiled = compile_plan(net, plan)  # None config == atomic
        assert compiled.mode == "atomic"
        assert compiled.stage_count == 1
        assert compiled.stages[0].steps == tuple(plan_steps(plan))
        # One-shot application holds bgt and f1 on top simultaneously:
        # 105 on a 100-capacity link.
        assert compiled.max_transient_overload == pytest.approx(0.05)

    def test_atomic_one_shot_safe_records_zero(self, planned):
        net, provider, _ = planned
        planner = EventPlanner(provider)
        event = make_event([ab_flow("tiny", 10.0)])
        plan = planner.plan_event(net, event, random.Random(1), commit=False)
        assert plan.cost == 0.0
        compiled = compile_plan(net, plan)
        assert compiled.stage_count == 1
        assert compiled.max_transient_overload == 0.0

    def test_staged_splits_at_the_transient_conflict(self, planned):
        net, _, plan = planned
        compiled = compile_plan(net, plan,
                                PlanCompilerConfig(mode="staged"))
        # Stage 1 drains bgt to the bottom path; stage 2 installs f1 once
        # the top links are genuinely free. No stage oversubscribes.
        assert compiled.stage_count == 2
        assert [s.kind.value for s in compiled.stages[0].steps] == ["migrate"]
        assert [s.kind.value for s in compiled.stages[1].steps] == ["place"]
        assert compiled.max_transient_overload == 0.0
        # Stage-by-stage steps are the plan order, just partitioned.
        assert compiled.steps == tuple(plan_steps(plan))

    def test_augmented_merges_within_epsilon(self, planned):
        net, _, plan = planned
        compiled = compile_plan(
            net, plan, PlanCompilerConfig(mode="augmented", epsilon=0.1))
        # The 5% transient overshoot fits the 10% budget: one stage.
        assert compiled.stage_count == 1
        assert compiled.epsilon == 0.1
        assert compiled.max_transient_overload == pytest.approx(0.05)

    def test_augmented_below_the_overshoot_still_splits(self, planned):
        net, _, plan = planned
        compiled = compile_plan(
            net, plan, PlanCompilerConfig(mode="augmented", epsilon=0.01))
        assert compiled.stage_count == 2
        assert compiled.max_transient_overload == 0.0

    def test_compile_is_read_only(self, planned):
        net, _, plan = planned
        before = {lk: net.used(*lk) for lk in net.links()}
        compile_plan(net, plan, PlanCompilerConfig(mode="staged"))
        assert {lk: net.used(*lk) for lk in net.links()} == before
        net.check_invariants()


def tiny_plan(net, provider):
    """A 10-unit a->b event's plan: no migration, one step."""
    event = make_event([ab_flow("tiny", 10.0)])
    return EventPlanner(provider).plan_event(net, event, random.Random(1),
                                             commit=False)


def count_safe_orders(monkeypatch):
    """Record every ``find_safe_order`` call the compiler makes."""
    calls = []
    real = compile_mod.find_safe_order

    def counting(state, steps):
        calls.append(steps)
        return real(state, steps)

    monkeypatch.setattr(compile_mod, "find_safe_order", counting)
    return calls


class TestOneStageCertificate:
    def test_one_stage_plan_is_certified_without_ordering(self, planned,
                                                          monkeypatch):
        net, provider, _ = planned
        plan = tiny_plan(net, provider)
        calls = count_safe_orders(monkeypatch)
        compiled = compile_plan(net, plan, PlanCompilerConfig(mode="staged"))
        assert calls == []
        assert [stage.steps for stage in compiled.stages] \
            == [tuple(plan_steps(plan))]
        assert compiled.max_transient_overload == 0.0

    @pytest.mark.parametrize("below, certified", [
        (0.0, False), (0.5, False), (0.9, False), (1.5, True)])
    def test_margin_band_falls_through_to_ordering(self, planned, monkeypatch,
                                                   below, certified):
        # Load one of the plan's links to ``below`` margins under
        # capacity + EPS: inside the band the certificate declines and
        # ordering gives the same single stage.
        net, provider, _ = planned
        plan = tiny_plan(net, provider)
        path = plan.flow_plans[0].path
        link = path[1], path[2]
        fill = (net.capacity(*link) + EPS - below * ONE_STAGE_MARGIN
                - 10.0 - net.used(*link))
        net.place(Flow(flow_id="fill", src="a", dst="b", demand=fill,
                       duration=None), path)
        calls = count_safe_orders(monkeypatch)
        compiled = compile_plan(net, plan, PlanCompilerConfig(mode="staged"))
        assert len(calls) == (0 if certified else 1)
        assert [stage.steps for stage in compiled.stages] \
            == [tuple(plan_steps(plan))]

    def test_two_stage_plan_takes_the_full_path(self, planned, monkeypatch):
        net, _, plan = planned
        calls = count_safe_orders(monkeypatch)
        compiled = compile_plan(net, plan, PlanCompilerConfig(mode="staged"))
        assert len(calls) == 1
        assert compiled.stage_count == 2

    def test_augmented_overshoot_is_not_certified(self, planned,
                                                  monkeypatch):
        # One stage, but only because ε absorbs a transient overshoot:
        # the certificate never looks past capacity, so ordering runs.
        net, _, plan = planned
        calls = count_safe_orders(monkeypatch)
        compiled = compile_plan(
            net, plan, PlanCompilerConfig(mode="augmented", epsilon=0.1))
        assert len(calls) == 1
        assert compiled.stage_count == 1


def hand_plan(*flow_plans):
    """An event plan made of the given flow plans, in order."""
    event = make_event([fp.flow for fp in flow_plans])
    return EventPlan(event=event, flow_plans=flow_plans)


def step_order(compiled):
    return [[step.flow_id for step in stage.steps]
            for stage in compiled.stages]


class TestCertificateDeclines:
    """Each precondition of the one-stage certificate, broken on its own:
    the plan order would be wrong, and ordering puts the refused step
    last."""

    STAGED = PlanCompilerConfig(mode="staged")

    def test_overloaded_link_a_migration_keeps(self):
        # The migration adds nothing on c->s1, but a cut left that link
        # below the load it already carries, so the reroute is refused.
        net, _ = diamond_setup()
        bgt = cd_flow("bgt", 45.0)
        net.place(bgt, BG_TOP)
        net._set_capacity("c", "s1", 40.0)
        plan = hand_plan(FlowPlan(flow=ab_flow("g", 5.0), path=TOP,
                                  migrations=(Migration(bgt, BG_TOP,
                                                        BG_BOT),)))
        assert step_order(compile_plan(net, plan, self.STAGED)) \
            == [["g", "bgt"]]

    @pytest.mark.parametrize("placed_demand, old_path, bottom_load", [
        (45.0, BG_BOT, 60.0),   # the migrated flow is not on the old path
        (50.0, BG_TOP, 55.0),   # it is, with more demand than the plan moves
    ])
    def test_migrated_flow_not_as_planned(self, placed_demand, old_path,
                                          bottom_load):
        net, _ = diamond_setup()
        net.place(cd_flow("bgt", placed_demand), BG_TOP)
        net.place(ef_flow("efb", bottom_load), EF_BOT)
        plan = hand_plan(FlowPlan(
            flow=ab_flow("g", 5.0), path=TOP,
            migrations=(Migration(cd_flow("bgt", 45.0), old_path,
                                  BG_BOT),)))
        assert step_order(compile_plan(net, plan, self.STAGED)) \
            == [["g", "bgt"]]

    def test_event_flow_already_placed(self):
        net, _ = diamond_setup()
        f = ab_flow("f", 5.0)
        net.place(f, BOT)
        plan = hand_plan(FlowPlan(flow=f, path=TOP),
                         FlowPlan(flow=ab_flow("g", 5.0), path=TOP))
        assert step_order(compile_plan(net, plan, self.STAGED)) \
            == [["g", "f"]]

    def test_path_visiting_a_node_twice(self):
        net, _ = diamond_setup()
        loop = ("a", "s1", "top", "s1", "bot", "s2", "b")
        plan = hand_plan(FlowPlan(flow=ab_flow("f", 5.0), path=loop),
                         FlowPlan(flow=ab_flow("g", 5.0), path=TOP))
        assert step_order(compile_plan(net, plan, self.STAGED)) \
            == [["g", "f"]]

    def test_flow_stepped_twice(self):
        net, _ = diamond_setup()
        f = ab_flow("f", 5.0)
        plan = hand_plan(FlowPlan(flow=f, path=TOP),
                         FlowPlan(flow=f, path=TOP),
                         FlowPlan(flow=ab_flow("g", 5.0), path=TOP))
        assert step_order(compile_plan(net, plan, self.STAGED)) \
            == [["f", "g", "f"]]

    def test_full_rule_table(self):
        # "top" holds one rule, bgt's: g fits only after bgt moves off.
        topo = diamond_topology()
        topo.graph().nodes["top"]["rule_capacity"] = 1
        net = topo.network()
        bgt = cd_flow("bgt", 45.0)
        net.place(bgt, BG_TOP)
        plan = hand_plan(
            FlowPlan(flow=ab_flow("g", 5.0), path=TOP),
            FlowPlan(flow=ab_flow("h", 5.0), path=BOT,
                     migrations=(Migration(bgt, BG_TOP, BG_BOT),)))
        assert step_order(compile_plan(net, plan, self.STAGED)) \
            == [["bgt", "h", "g"]]


class TestDriftedStateStaysTotal:
    """Every refusal the view can raise is "does not fit", never a
    traceback out of the ordering probe."""

    def drifted(self, planned):
        # The migrated flow left and the event flow was placed by hand:
        # the plan's steps now raise UnknownFlowError and DuplicateFlowError.
        net, _, plan = planned
        net.remove("bgt")
        net.place(plan.flow_plans[0].flow, plan.flow_plans[0].path)
        return net, plan

    def test_compile_plan_orders_around_a_placed_flow(self, planned):
        net, plan = self.drifted(planned)
        compiled = compile_plan(net, plan, PlanCompilerConfig(mode="staged"))
        assert sorted((s.kind.value, s.flow_id) for s in compiled.steps) \
            == sorted((s.kind.value, s.flow_id) for s in plan_steps(plan))

    def test_sequential_order_is_unsafe_not_a_traceback(self, planned):
        # A one-step plan whose flow is already there: the only refusal
        # is DuplicateFlowError.
        net, provider, _ = planned
        plan = tiny_plan(net, provider)
        assert sequential_order_is_safe(net, plan)
        net.place(plan.flow_plans[0].flow, plan.flow_plans[0].path)
        assert sequential_order_is_safe(net, plan) is False


class TestApplyStages:
    def test_staged_final_state_matches_atomic(self, planned):
        net, _, plan = planned
        compiled = compile_plan(net, plan,
                                PlanCompilerConfig(mode="staged"))
        rerouted = apply_stages(net, compiled)
        assert rerouted == ["bgt"]
        assert net.placement("bgt").path == BG_BOT
        assert net.placement("f1").path == TOP
        net.check_invariants()

    def test_failure_in_late_stage_rolls_back_earlier_stages(self, planned):
        net, _, plan = planned
        compiled = compile_plan(net, plan,
                                PlanCompilerConfig(mode="staged"))
        assert compiled.stage_count == 2
        # Invalidate stage 2 only: a thief takes the top capacity f1
        # needs, while stage 1's migration to the bottom path still fits.
        net.place(ab_flow("thief", 50.0), TOP)
        with pytest.raises(PlacementError):
            apply_stages(net, compiled)
        # Whole-plan rollback: the stage-1 migration was undone too.
        assert net.placement("bgt").path == BG_TOP
        assert not net.has_flow("f1")
        net.check_invariants()


class TestExecutorCompiled:
    def test_atomic_is_one_stage_without_compiling(self, planned,
                                                   monkeypatch):
        net, _, plan = planned

        def no_compile(*args, **kwargs):
            raise AssertionError("atomic mode must not call compile_plan")

        monkeypatch.setattr(executor_mod, "compile_plan", no_compile)
        for compiler in (None, PlanCompilerConfig()):
            executor = PlanExecutor(compiler=compiler)
            assert executor.compiler == PlanCompilerConfig()
            record = executor.execute(net.copy(), plan, start_time=0.0)
            assert record.stage_count == 1
            assert record.max_transient_overload == 0.0
            assert record.epsilon == 0.0

    def test_record_carries_stage_telemetry(self, planned):
        net, _, plan = planned
        timing = TimingModel()
        executor = PlanExecutor(
            timing=timing, compiler=PlanCompilerConfig(mode="staged"))
        record = executor.execute(net, plan, start_time=3.0)
        assert record.stage_count == 2
        assert record.max_transient_overload == 0.0
        assert record.epsilon == 0.0
        # Each stage past the first costs one extra install round trip.
        assert record.install_time == pytest.approx(
            timing.install_time(len(plan.flow_plans), stages=2))
        assert record.install_time > timing.install_time(
            len(plan.flow_plans))
        assert record.finish_setup_time == pytest.approx(
            3.0 + record.migration_time + record.install_time)

    def test_augmented_record_reports_overshoot(self, planned):
        net, _, plan = planned
        executor = PlanExecutor(
            compiler=PlanCompilerConfig(mode="augmented", epsilon=0.1))
        record = executor.execute(net, plan, start_time=0.0)
        assert record.stage_count == 1
        assert record.epsilon == 0.1
        assert record.max_transient_overload == pytest.approx(0.05)


class TestStagedSchedulers:
    def test_predict_stages_matches_compile(self, planned):
        net, _, plan = planned
        sched = StagedLMTFScheduler(alpha=1)
        assert sched.predict_stages(net, plan) == 2
        augmented = StagedLMTFScheduler(alpha=1, mode="augmented",
                                        epsilon=0.1)
        assert augmented.predict_stages(net, plan) == 1

    def _probe(self, event_id, arrival, seq):
        event = make_event([ab_flow(f"{event_id}-f", 5.0)],
                           arrival_time=arrival, label=event_id)
        queued = QueuedEvent(event=event, seq=seq)
        plan = EventPlan(event=event, flow_plans=(
            FlowPlan(flow=event.flows[0], path=TOP),))
        return queued, plan

    def test_stage_count_breaks_cost_ties(self):
        # Both probes cost 0; the later arrival compiles shorter, so the
        # staged pick inverts the FIFO order — exactly the tie-break rule.
        sched = StagedLMTFScheduler(alpha=1)
        first = self._probe("early", arrival=0.0, seq=0)
        second = self._probe("late", arrival=1.0, seq=1)
        stages = {"early": 3, "late": 1}
        sched.predict_stages = (
            lambda state, plan: stages[plan.event.label])
        ctx = types.SimpleNamespace(network=None)
        picked = sched.pick_staged(ctx, [first, second])
        assert picked is not None
        (queued, _), predicted = picked
        assert queued.event.label == "late"
        assert predicted == 1

    def test_equal_stages_falls_back_to_arrival_order(self):
        sched = StagedLMTFScheduler(alpha=1)
        first = self._probe("early", arrival=0.0, seq=0)
        second = self._probe("late", arrival=1.0, seq=1)
        sched.predict_stages = lambda state, plan: 1
        ctx = types.SimpleNamespace(network=None)
        picked = sched.pick_staged(ctx, [first, second])
        assert picked is not None
        assert picked[0][0].event.label == "early"

    def test_decide_reports_predicted_stages(self, planned):
        net, _, plan = planned
        queued = QueuedEvent(event=plan.event)
        ctx = types.SimpleNamespace(network=net)
        for sched in (StagedLMTFScheduler(alpha=1),
                      StagedPLMTFScheduler(alpha=1)):
            decision = sched.decide(ctx, [(queued, plan)], ops=1)
            assert [a.plan for a in decision.admissions] == [plan]
            assert decision.predicted_stages == {plan.event.event_id: 2}


class TestStagedVsAtomicParity:
    def test_apply_plan_is_the_one_atomic_stage(self, planned):
        net, _, plan = planned
        twin = net.copy()
        compiled = compile_plan(twin, plan, PlanCompilerConfig())
        assert [stage.steps for stage in compiled.stages] \
            == [tuple(plan_steps(plan))]
        assert apply_plan(net, plan) == apply_stages(twin, compiled)
        assert ({fid: net.placement(fid).path for fid in net.flow_ids()}
                == {fid: twin.placement(fid).path
                    for fid in twin.flow_ids()})
        assert ({lk: net.used(*lk) for lk in net.links()}
                == {lk: twin.used(*lk) for lk in twin.links()})
        assert net.version_snapshot() == twin.version_snapshot()

    def test_settled_loads_identical(self, planned):
        net, _, plan = planned
        twin, _ = diamond_setup()
        twin.place(cd_flow("bgt", 45.0), BG_TOP)
        twin.place(cd_flow("bgb", 10.0), BG_BOT)
        apply_plan(net, plan)
        apply_stages(twin, compile_plan(
            twin, plan, PlanCompilerConfig(mode="staged")))
        assert ({lk: net.used(*lk) for lk in net.links()}
                == {lk: twin.used(*lk) for lk in twin.links()})


class TestStagedCompileCounts:
    """The staged path compiles only what its answer depends on."""

    def test_compiles_only_tied_probes_and_admissions(self, monkeypatch):
        from repro.experiments.common import DEFAULTS, Scenario
        from repro.experiments.runner import (
            hermetic_ids,
            scenario_spec,
            simulate_cell,
        )
        from repro.sched import staged_scheduler_spec
        from repro.traces.events import EventGeneratorConfig

        counts = dict(compiles=0, ties=0, executes=0, refused=0,
                      certified=0, orders=0)
        inside: list[str] = []
        pending_refusal: list[bool] = []

        real_pick = StagedCompileMixin.pick_staged

        def pick(self, ctx, probes):
            feasible = [plan for _, plan in probes if plan.feasible]
            if feasible:
                cost = min(plan.cost for plan in feasible)
                counts["ties"] += sum(1 for plan in feasible
                                      if plan.cost == cost)
            inside.append("pick_staged")
            try:
                return real_pick(self, ctx, probes)
            finally:
                inside.pop()

        real_execute = PlanExecutor.execute

        def execute(self, state, plan, start_time):
            counts["executes"] += 1
            inside.append("execute")
            try:
                return real_execute(self, state, plan, start_time)
            finally:
                inside.pop()

        real_compile = compile_mod.compile_plan

        def compile_counted(state, plan, config=None):
            counts["compiles"] += 1
            return real_compile(state, plan, config)

        real_one_stage = compile_mod._one_stage

        def one_stage(state, steps):
            # Every staged/augmented compile, whichever binding called it.
            assert inside, "compiled outside pick_staged / execute"
            stage = real_one_stage(state, steps)
            counts["certified" if stage is not None else "refused"] += 1
            pending_refusal.append(stage is None)
            return stage

        real_order = compile_mod.find_safe_order

        def order(state, steps):
            assert pending_refusal and pending_refusal.pop(), \
                "ordered a plan the certificate accepted"
            counts["orders"] += 1
            return real_order(state, steps)

        monkeypatch.setattr(StagedCompileMixin, "pick_staged", pick)
        monkeypatch.setattr(PlanExecutor, "execute", execute)
        monkeypatch.setattr(staged_mod, "compile_plan", compile_counted)
        monkeypatch.setattr(executor_mod, "compile_plan", compile_counted)
        monkeypatch.setattr(compile_mod, "_one_stage", one_stage)
        monkeypatch.setattr(compile_mod, "find_safe_order", order)

        scenario = Scenario(
            utilization=0.85, seed=0, events=24, churn=True,
            event_config=EventGeneratorConfig(min_flows=3, max_flows=8),
            defaults=replace(DEFAULTS, k=4))
        with hermetic_ids():
            result = simulate_cell(
                scenario_spec(scenario),
                staged_scheduler_spec("staged-plmtf", 0, 4, "staged"),
                compile_mode="staged")
        stages = result["metrics"]["per_event_stages"]
        assert counts["executes"] == len(stages) == 24
        assert counts["compiles"] <= counts["ties"] + counts["executes"]
        assert counts["compiles"] == counts["certified"] + counts["refused"]
        assert counts["orders"] == counts["refused"]
        # The scenario exercises both paths: multi-stage plans are ordered.
        assert counts["certified"] > 0 and max(stages) > 1
