"""Unit tests for plan application and the executor's timing."""

import random

import networkx as nx
import pytest

from repro.core.compile import PlanCompilerConfig, compile_plan
from repro.core.event import make_event
from repro.core.exceptions import (
    ControlPlaneError,
    InsufficientBandwidthError,
    PlanningError,
)
from repro.core.executor import PlanExecutor, RetryPolicy, apply_plan
from repro.core.flow import Flow
from repro.core.plan import EventPlan
from repro.core.planner import EventPlanner
from repro.network.routing.provider import PathProvider
from repro.network.topology.custom import CustomTopology
from repro.sim.controlplane import (
    ScriptedControlPlane,
    UnreliableControlPlane,
)
from repro.sim.timing import TimingModel


def diamond_topology(capacity=100.0) -> CustomTopology:
    g = nx.Graph()
    for h in ("a", "b", "c", "d"):
        g.add_node(h, kind="host")
    for s in ("s1", "s2", "top", "bot"):
        g.add_node(s, kind="switch")
    for u, v in (("a", "s1"), ("c", "s1"), ("s1", "top"), ("s1", "bot"),
                 ("top", "s2"), ("bot", "s2"), ("s2", "b"), ("s2", "d")):
        g.add_edge(u, v, capacity=capacity)
    return CustomTopology(g, name="diamond", max_paths=4)


def update_flow(fid, demand, duration=1.0):
    return Flow(flow_id=fid, src="a", dst="b", demand=demand,
                duration=duration)


def _planned():
    """(network, plan-with-migration) pair computed on identical state."""
    topo = diamond_topology()
    net = topo.network()
    net.place(Flow(flow_id="bgt", src="c", dst="d", demand=45.0),
              ("c", "s1", "top", "s2", "d"))
    net.place(Flow(flow_id="bgb", src="c", dst="d", demand=10.0),
              ("c", "s1", "bot", "s2", "d"))
    planner = EventPlanner(PathProvider(topo))
    event = make_event([update_flow("f1", 60.0)])
    plan = planner.plan_event(net, event, random.Random(1), commit=False)
    assert plan.feasible and plan.cost > 0
    return net, plan


@pytest.fixture()
def planned():
    return _planned()


class TestApplyPlan:
    def test_applies_migrations_and_placements(self, planned):
        net, plan = planned
        rerouted = apply_plan(net, plan)
        assert rerouted  # the blocking background flow moved
        for fp in plan.flow_plans:
            assert net.has_flow(fp.flow.flow_id)
            assert net.placement(fp.flow.flow_id).path == fp.path
        net.check_invariants()

    def test_infeasible_plan_rejected(self, planned):
        net, plan = planned
        bad = EventPlan(event=plan.event, flow_plans=(),
                        blocked=plan.event.flows)
        with pytest.raises(PlanningError):
            apply_plan(net, bad)

    def test_stale_plan_rolls_back(self, planned):
        net, plan = planned
        # Invalidate the plan: consume (almost) all the bandwidth the plan
        # counted on along its chosen path.
        path = plan.flow_plans[0].path
        thief_demand = max(net.path_residual(path) - 5.0, 1.0)
        net.place(Flow(flow_id="thief", src="a", dst="b",
                       demand=thief_demand), path)
        before_used = {link: net.used(*link) for link in net.links()}
        with pytest.raises(InsufficientBandwidthError):
            apply_plan(net, plan)
        after_used = {link: net.used(*link) for link in net.links()}
        assert before_used == pytest.approx(after_used)
        assert not net.has_flow(plan.flow_plans[0].flow.flow_id)
        net.check_invariants()

    def test_invalid_path_rolls_back(self):
        # Regression: rollback used to trigger only on bandwidth failures,
        # so a plan whose later placement hit a non-bandwidth error left
        # the earlier placements behind.
        from repro.core.exceptions import InvalidPathError
        from repro.core.plan import FlowPlan
        net = diamond_topology().network()
        f1, f2 = update_flow("ok", 10.0), update_flow("bad", 10.0)
        event = make_event([f1, f2])
        plan = EventPlan(event=event, flow_plans=(
            FlowPlan(flow=f1, path=("a", "s1", "top", "s2", "b")),
            FlowPlan(flow=f2, path=("a", "s1", "nowhere", "b"))))
        with pytest.raises(InvalidPathError):
            apply_plan(net, plan)
        assert not net.has_flow("ok")
        assert net.used("s1", "top") == pytest.approx(0.0)
        net.check_invariants()

    def test_rule_space_failure_rolls_back(self):
        from repro.core.exceptions import RuleSpaceError
        from repro.core.plan import FlowPlan
        g = diamond_topology().graph()
        g.nodes["top"]["rule_capacity"] = 1
        net = CustomTopology(g, name="d", max_paths=4).network()
        f1, f2 = update_flow("first", 10.0), update_flow("second", 10.0)
        event = make_event([f1, f2])
        top_path = ("a", "s1", "top", "s2", "b")
        plan = EventPlan(event=event, flow_plans=(
            FlowPlan(flow=f1, path=top_path),
            FlowPlan(flow=f2, path=top_path)))  # needs a second rule slot
        with pytest.raises(RuleSpaceError):
            apply_plan(net, plan)
        assert not net.has_flow("first")
        assert net.rules_used("top") == 0
        net.check_invariants()


class TestExecutor:
    def test_execute_times_match_model(self, planned):
        net, plan = planned
        timing = TimingModel(rule_install_s=0.5, migration_rule_s=0.25,
                             drain_s_per_mbps=0.1)
        executor = PlanExecutor(timing)
        record = executor.execute(net, plan, start_time=100.0)
        expected_migration = sum(0.25 + 0.1 * m.migrated_traffic
                                 for m in plan.migrations)
        assert record.migration_time == pytest.approx(expected_migration)
        assert record.install_time == pytest.approx(0.5)
        assert record.finish_setup_time == pytest.approx(
            100.0 + expected_migration + 0.5)
        assert record.rerouted_flow_ids

    def test_default_timing(self, planned):
        net, plan = planned
        record = PlanExecutor().execute(net, plan, start_time=0.0)
        assert record.finish_setup_time > 0.0

    def test_refuses_infeasible(self, planned):
        net, plan = planned
        bad = EventPlan(event=plan.event, flow_plans=(),
                        blocked=plan.event.flows)
        with pytest.raises(PlanningError):
            PlanExecutor().execute(net, bad, 0.0)


def state_fingerprint(net):
    """Everything the planner can observe: flows, paths, residuals, and
    the version counters the probe cache keys freshness on."""
    return {
        "flows": {fid: net.placement(fid).path for fid in net.flow_ids()},
        "used": {link: net.used(*link) for link in net.links()},
        "versions": {link: net.link_version(*link) for link in net.links()},
    }


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_s=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(deadline_s=0.0)


STAGED = PlanCompilerConfig(mode="staged")
AUGMENTED = PlanCompilerConfig(mode="augmented", epsilon=0.1)


class TestUnreliableExecution:
    """Retry / rollback behaviour, once per compile mode.

    Parametrised by subclassing (``compiler`` is the parameter) rather
    than ``pytest.mark.parametrize`` so the atomic ids stay what they
    were; the staged plan has two stages, the augmented one merges them.
    """

    compiler: PlanCompilerConfig | None = None

    def executor(self, timing=None, **kwargs):
        return PlanExecutor(timing, compiler=self.compiler, **kwargs)

    def test_reliable_control_plane_takes_fast_path(self, planned):
        net, plan = planned
        from repro.sim.controlplane import ReliableControlPlane
        record = self.executor(control_plane=ReliableControlPlane()) \
            .execute(net, plan, 0.0)
        assert record.attempts == 1 and record.retry_time == 0.0

    def test_rollback_leaves_state_bit_identical(self, planned):
        net, plan = planned
        before = state_fingerprint(net)
        cp = ScriptedControlPlane([False, False, False])  # every attempt
        executor = self.executor(control_plane=cp,
                                 retry=RetryPolicy(max_retries=2))
        with pytest.raises(ControlPlaneError) as exc:
            executor.execute(net, plan, start_time=0.0)
        assert exc.value.attempts == 3
        assert exc.value.elapsed > 0.0
        assert state_fingerprint(net) == before
        net.check_invariants()

    def test_mid_plan_install_failure_rolls_back_migrations(self, planned):
        net, plan = planned
        assert plan.migrations, "fixture must exercise the migration path"
        before = state_fingerprint(net)
        # First attempt: migrations succeed, the install fails — exactly
        # the partial application the rollback must undo (under staged
        # compilation the failure lands in the second stage).
        script = [True] * len(plan.migrations) + [False]
        executor = self.executor(control_plane=ScriptedControlPlane(script),
                                 retry=RetryPolicy(max_retries=0))
        with pytest.raises(ControlPlaneError):
            executor.execute(net, plan, 0.0)
        assert state_fingerprint(net) == before

    def test_retry_succeeds_and_charges_backoff(self, planned):
        net, plan = planned
        timing = TimingModel(rule_install_s=0.5, migration_rule_s=0.25,
                             drain_s_per_mbps=0.1)
        cp = ScriptedControlPlane([False], jitter_s=0.01)
        executor = self.executor(
            timing, control_plane=cp,
            retry=RetryPolicy(max_retries=2, backoff_s=0.1))
        record = executor.execute(net, plan, start_time=10.0)
        assert record.attempts == 2
        base = (sum(0.25 + 0.1 * m.migrated_traffic
                    for m in plan.migrations)
                + 0.5 * record.stage_count)  # one install round per stage
        # Two full attempt windows + both jitters + the first backoff.
        assert record.finish_setup_time == pytest.approx(
            10.0 + 2 * (base + 0.01) + 0.1)
        assert record.retry_time == pytest.approx(base + 2 * 0.01 + 0.1)
        for fp in plan.flow_plans:
            assert net.has_flow(fp.flow.flow_id)
        net.check_invariants()

    def test_deadline_aborts_before_retries_exhausted(self, planned):
        net, plan = planned
        cp = ScriptedControlPlane([False] * 50)
        executor = self.executor(
            control_plane=cp,
            retry=RetryPolicy(max_retries=10, backoff_s=0.5,
                              deadline_s=1.0))
        with pytest.raises(ControlPlaneError, match="deadline") as exc:
            executor.execute(net, plan, 0.0)
        assert exc.value.attempts < 11

    def test_placement_divergence_not_retried(self, planned):
        net, plan = planned
        path = plan.flow_plans[0].path
        thief_demand = max(net.path_residual(path) - 5.0, 1.0)
        net.place(Flow(flow_id="thief", src="a", dst="b",
                       demand=thief_demand), path)
        before = state_fingerprint(net)
        cp = ScriptedControlPlane([True] * 50)
        executor = self.executor(control_plane=cp,
                                 retry=RetryPolicy(max_retries=5))
        with pytest.raises(InsufficientBandwidthError):
            executor.execute(net, plan, 0.0)
        # One attempt only: the same state would reject the same plan.
        assert cp.consumed <= len(plan.migrations) + len(plan.flow_plans)
        assert state_fingerprint(net) == before
        net.check_invariants()


class TestUnreliableExecutionStaged(TestUnreliableExecution):
    compiler = STAGED

    def test_failure_in_second_stage_restores_version_counters(
            self, planned):
        net, plan = planned
        compiled = compile_plan(net, plan, STAGED)
        assert compiled.stage_count == 2
        first_stage_ops = len(compiled.stages[0].steps)
        before = state_fingerprint(net)
        versions = net.version_snapshot()
        # The whole first stage lands, then stage two's first op fails.
        cp = ScriptedControlPlane([True] * first_stage_ops + [False])
        executor = self.executor(control_plane=cp,
                                 retry=RetryPolicy(max_retries=0))
        with pytest.raises(ControlPlaneError):
            executor.execute(net, plan, 0.0)
        assert cp.consumed == first_stage_ops + 1
        assert state_fingerprint(net) == before
        assert net.version_snapshot() == versions
        net.check_invariants()


class TestUnreliableExecutionAugmented(TestUnreliableExecution):
    compiler = AUGMENTED


class TestStagedMatchesAtomicOnTheControlPlane:
    """Without drift the compiled step order is the plan order, so a
    same-seed control plane is consulted identically in both modes."""

    @pytest.mark.parametrize("failure_prob", [0.0, 0.4])
    def test_same_seed_same_draws(self, failure_prob):
        records, rng_states = {}, {}
        timing = TimingModel()
        for name, compiler in (("atomic", None), ("staged", STAGED)):
            net, plan = _planned()
            cp = UnreliableControlPlane(
                install_failure_prob=failure_prob,
                migration_failure_prob=failure_prob, jitter_s=0.01, seed=3)
            executor = PlanExecutor(
                timing, control_plane=cp, compiler=compiler,
                retry=RetryPolicy(max_retries=20, backoff_s=0.05))
            records[name] = executor.execute(net, plan, start_time=1.0)
            rng_states[name] = cp._rng.getstate()
        atomic, staged = records["atomic"], records["staged"]
        assert (atomic.stage_count, staged.stage_count) == (1, 2)
        assert staged.attempts == atomic.attempts
        assert (atomic.attempts > 1) == (failure_prob > 0.0)
        assert staged.rerouted_flow_ids == atomic.rerouted_flow_ids
        assert rng_states["staged"] == rng_states["atomic"]
        flows = len(atomic.plan.flow_plans)
        assert atomic.install_time == timing.install_time(flows)
        assert staged.install_time == timing.install_time(flows, stages=2)
        extra = timing.rule_install_s * (staged.stage_count - 1)
        assert staged.install_time - atomic.install_time \
            == pytest.approx(extra)
        # Jitter and backoff are the same draws; only the failed
        # attempts' longer staged windows separate the two.
        assert staged.retry_time - atomic.retry_time == pytest.approx(
            extra * (atomic.attempts - 1))
