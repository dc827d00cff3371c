"""Unit tests for the event planner (Cost(U), Definition 2)."""

import random

import networkx as nx
import pytest

from repro.core.event import make_event
from repro.core.flow import Flow
from repro.core.migration import MigrationConfig
from repro.core.planner import EventPlanner, PlannerConfig
from repro.network.routing.provider import PathProvider
from repro.network.topology.custom import CustomTopology


def diamond_topology(capacity=100.0) -> CustomTopology:
    g = nx.Graph()
    for h in ("a", "b", "c", "d", "e", "f"):
        g.add_node(h, kind="host")
    for s in ("s1", "s2", "top", "bot"):
        g.add_node(s, kind="switch")
    for u, v in (("a", "s1"), ("c", "s1"), ("e", "s1"),
                 ("s1", "top"), ("s1", "bot"), ("top", "s2"),
                 ("bot", "s2"), ("s2", "b"), ("s2", "d"), ("s2", "f")):
        g.add_edge(u, v, capacity=capacity)
    return CustomTopology(g, name="diamond", max_paths=4)


BG_TOP = ("c", "s1", "top", "s2", "d")
BG_BOT = ("c", "s1", "bot", "s2", "d")


def update_flow(fid, demand, duration=1.0):
    return Flow(flow_id=fid, src="a", dst="b", demand=demand,
                duration=duration)


@pytest.fixture()
def setup():
    topo = diamond_topology()
    return topo.network(), PathProvider(topo)


class TestConfigValidation:
    def test_bad_path_selection(self):
        with pytest.raises(ValueError, match="path selection"):
            PlannerConfig(path_selection="psychic")

    def test_bad_flow_order(self):
        with pytest.raises(ValueError, match="flow order"):
            PlannerConfig(flow_order="chaotic")

    def test_bad_max_migration_paths(self):
        with pytest.raises(ValueError):
            PlannerConfig(max_migration_paths=0)


class TestDesiredPath:
    def test_deterministic(self, setup):
        net, provider = setup
        paths = provider.paths("a", "b")
        f = update_flow("fx", 10.0)
        assert EventPlanner.desired_path(f, paths) == \
            EventPlanner.desired_path(f, paths)

    def test_distributes_over_paths(self, setup):
        __, provider = setup
        paths = provider.paths("a", "b")
        chosen = {EventPlanner.desired_path(update_flow(f"f{i}", 1.0), paths)
                  for i in range(60)}
        assert len(chosen) == len(paths)  # both candidates get used


class TestPlanEvent:
    def test_free_placement_costs_zero(self, setup):
        net, provider = setup
        planner = EventPlanner(provider)
        event = make_event([update_flow("f1", 10.0)])
        plan = planner.plan_event(net, event, random.Random(1))
        assert plan.feasible
        assert plan.cost == 0.0
        assert plan.migration_count == 0
        assert len(plan.flow_plans) == 1
        assert plan.planning_ops > 0

    def test_probe_does_not_mutate(self, setup):
        net, provider = setup
        planner = EventPlanner(provider)
        event = make_event([update_flow("f1", 10.0)])
        planner.plan_event(net, event, random.Random(1), commit=False)
        assert list(net.flow_ids()) == []

    def test_commit_applies(self, setup):
        net, provider = setup
        planner = EventPlanner(provider)
        event = make_event([update_flow("f1", 10.0)])
        plan = planner.plan_event(net, event, random.Random(1), commit=True)
        assert net.has_flow(plan.flow_plans[0].flow.flow_id)
        net.check_invariants()

    def test_migration_when_desired_path_congested(self, setup):
        net, provider = setup
        # Fill both middle links so any desired path needs migration.
        net.place(Flow(flow_id="bgt", src="c", dst="d", demand=45.0), BG_TOP)
        net.place(Flow(flow_id="bgb", src="c", dst="d", demand=10.0), BG_BOT)
        planner = EventPlanner(provider)
        event = make_event([update_flow("f1", 60.0)])
        plan = planner.plan_event(net, event, random.Random(1), commit=True)
        assert plan.feasible
        assert plan.cost > 0
        # cost equals the demand of the migrated background flow(s)
        migrated = {m.flow.flow_id for m in plan.migrations}
        assert migrated <= {"bgt", "bgb"}
        net.check_invariants()

    def test_infeasible_event_reports_blocked(self, setup):
        net, provider = setup
        planner = EventPlanner(provider)
        # two 60-Mbit/s flows from the same host cannot share a's uplink
        event = make_event([update_flow("f1", 60.0),
                            update_flow("f2", 60.0)])
        plan = planner.plan_event(net, event, random.Random(1), commit=True)
        assert not plan.feasible
        assert len(plan.blocked) == 1
        # infeasible plans never commit
        assert list(net.flow_ids()) == []

    def test_event_flows_not_migrated_for_each_other(self, setup):
        net, provider = setup
        planner = EventPlanner(provider)
        event = make_event([update_flow("f1", 60.0),
                            update_flow("f2", 30.0)])
        plan = planner.plan_event(net, event, random.Random(1))
        assert plan.feasible
        for m in plan.migrations:
            assert m.flow.event_id != event.event_id

    def test_extra_protected_respected(self, setup):
        net, provider = setup
        net.place(Flow(flow_id="bgt", src="c", dst="d", demand=45.0), BG_TOP)
        net.place(Flow(flow_id="bgb", src="c", dst="d", demand=45.0), BG_BOT)
        planner = EventPlanner(provider)
        event = make_event([update_flow("f1", 60.0)])
        plan = planner.plan_event(net, event, random.Random(1),
                                  extra_protected=frozenset(["bgt", "bgb"]))
        assert not plan.feasible


class TestNoMigrationMode:
    def test_blocked_without_migration(self, setup):
        net, provider = setup
        net.place(Flow(flow_id="bgt", src="c", dst="d", demand=95.0), BG_TOP)
        net.place(Flow(flow_id="bgb", src="e", dst="f", demand=95.0),
                  ("e", "s1", "bot", "s2", "f"))
        planner = EventPlanner(provider,
                               PlannerConfig(allow_migration=False))
        event = make_event([update_flow("f1", 10.0)])
        plan = planner.plan_event(net, event, random.Random(1))
        assert not plan.feasible


class TestFlowOrders:
    def _event(self):
        return make_event([update_flow("small", 10.0),
                           update_flow("large", 50.0)])

    def test_largest_first(self, setup):
        net, provider = setup
        planner = EventPlanner(provider,
                               PlannerConfig(flow_order="largest_first"))
        plan = planner.plan_event(net, self._event(), random.Random(1))
        assert plan.flow_plans[0].flow.demand == 50.0

    def test_smallest_first(self, setup):
        net, provider = setup
        planner = EventPlanner(provider,
                               PlannerConfig(flow_order="smallest_first"))
        plan = planner.plan_event(net, self._event(), random.Random(1))
        assert plan.flow_plans[0].flow.demand == 10.0


class TestSearchSelections:
    @pytest.mark.parametrize("mode", ["best_residual", "random", "first"])
    def test_search_modes_place_flow(self, setup, mode):
        net, provider = setup
        planner = EventPlanner(provider,
                               PlannerConfig(path_selection=mode))
        event = make_event([update_flow("f1", 10.0)])
        plan = planner.plan_event(net, event, random.Random(1))
        assert plan.feasible
        assert plan.cost == 0.0

    def test_best_residual_picks_emptier_path(self, setup):
        net, provider = setup
        net.place(Flow(flow_id="bgt", src="c", dst="d", demand=50.0), BG_TOP)
        planner = EventPlanner(
            provider, PlannerConfig(path_selection="best_residual"))
        event = make_event([update_flow("f1", 10.0)])
        plan = planner.plan_event(net, event, random.Random(1))
        assert "bot" in plan.flow_plans[0].path
