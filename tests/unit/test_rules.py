"""Unit tests for switch rule-table (TCAM) capacity tracking."""

import random

import networkx as nx
import pytest

from repro.core.event import make_event
from repro.core.exceptions import RuleSpaceError, TopologyError
from repro.core.flow import Flow
from repro.core.planner import EventPlanner
from repro.network.network import Network
from repro.network.routing.provider import PathProvider
from repro.network.topology.custom import CustomTopology


def rules_diamond(top_rules=None, bot_rules=None, capacity=100.0):
    """The usual diamond; the middle switches may have finite rule tables."""
    g = nx.Graph()
    for h in ("a", "b", "c", "d"):
        g.add_node(h, kind="host")
    g.add_node("s1", kind="switch")
    g.add_node("s2", kind="switch")
    g.add_node("top", kind="switch",
               **({"rule_capacity": top_rules} if top_rules is not None
                  else {}))
    g.add_node("bot", kind="switch",
               **({"rule_capacity": bot_rules} if bot_rules is not None
                  else {}))
    for u, v in (("a", "s1"), ("c", "s1"), ("s1", "top"), ("s1", "bot"),
                 ("top", "s2"), ("bot", "s2"), ("s2", "b"), ("s2", "d")):
        g.add_edge(u, v, capacity=capacity)
    return CustomTopology(g, name="rules-diamond", max_paths=4)


TOP = ("a", "s1", "top", "s2", "b")
BOT = ("a", "s1", "bot", "s2", "b")


def flow(fid, demand=1.0):
    return Flow(flow_id=fid, src="a", dst="b", demand=demand, duration=1.0)


class TestNetworkRules:
    def test_untracked_network_is_free(self):
        net = rules_diamond().network()
        assert not net.tracks_rules
        assert net.rule_capacity("top") is None
        assert net.rules_free("top") is None
        for i in range(50):
            net.place(flow(f"f{i}"), TOP)
        net.check_invariants()

    def test_rules_consumed_and_freed(self):
        net = rules_diamond(top_rules=3).network()
        assert net.tracks_rules
        net.place(flow("f1"), TOP)
        assert net.rules_used("top") == 1
        assert net.rules_free("top") == 2
        net.remove("f1")
        assert net.rules_used("top") == 0
        net.check_invariants()

    def test_exhaustion_raises(self):
        net = rules_diamond(top_rules=2).network()
        net.place(flow("f1"), TOP)
        net.place(flow("f2"), TOP)
        with pytest.raises(RuleSpaceError) as err:
            net.place(flow("f3"), TOP)
        assert err.value.switch == "top"
        # state untouched by the failed placement
        assert net.rules_used("top") == 2
        assert not net.has_flow("f3")
        net.check_invariants()

    def test_other_path_still_open(self):
        net = rules_diamond(top_rules=1).network()
        net.place(flow("f1"), TOP)
        net.place(flow("f2"), BOT)  # bot is unlimited
        net.check_invariants()

    def test_negative_capacity_rejected(self):
        with pytest.raises(TopologyError):
            rules_diamond(top_rules=-1).network()

    def test_default_rule_capacity_applies_to_switches(self):
        topo = rules_diamond()
        net = Network(topo.graph(), default_rule_capacity=2)
        assert net.rule_capacity("top") == 2
        assert net.rule_capacity("a") is None  # hosts exempt

    def test_copy_preserves_rules(self):
        net = rules_diamond(top_rules=3).network()
        net.place(flow("f1"), TOP)
        clone = net.copy()
        assert clone.rules_used("top") == 1
        clone.remove("f1")
        assert net.rules_used("top") == 1
        net.check_invariants()
        clone.check_invariants()

    def test_invariants_catch_rule_drift(self):
        net = rules_diamond(top_rules=3).network()
        net.place(flow("f1"), TOP)
        net._rules_used_col[net._node_index["top"]] += 1
        with pytest.raises(AssertionError):
            net.check_invariants()

    def test_reroute_moves_rules(self):
        net = rules_diamond(top_rules=2, bot_rules=2).network()
        net.place(flow("f1"), TOP)
        net.reroute("f1", BOT)
        assert net.rules_used("top") == 0
        assert net.rules_used("bot") == 1
        net.check_invariants()


class TestViewRules:
    """Rule accounting inside a trial (``Network.trial``)."""

    def test_view_overlay_isolated(self):
        net = rules_diamond(top_rules=2).network()
        with net.trial():
            net.place(flow("v1"), TOP)
            assert net.rules_used("top") == 1
            assert net.node_version("top") == 1
        assert net.rules_used("top") == 0
        assert net.node_version("top") == 0

    def test_view_enforces_limits(self):
        net = rules_diamond(top_rules=1).network()
        with net.trial():
            net.place(flow("v1"), TOP)
            with pytest.raises(RuleSpaceError):
                net.place(flow("v2"), TOP)

    def test_commit_lands_rules_in_base(self):
        net = rules_diamond(top_rules=2).network()
        with net.trial() as trial:
            net.place(flow("v1"), TOP)
            trial.keep()
        assert net.rules_used("top") == 1
        net.check_invariants()

    def test_remove_in_view_frees_rules(self):
        net = rules_diamond(top_rules=1).network()
        net.place(flow("f1"), TOP)
        with net.trial():
            net.remove("f1")
            assert net.rules_used("top") == 0
            net.place(flow("v1"), TOP)  # slot freed in the trial
        assert net.rules_used("top") == 1  # dropped: f1 holds it again
        assert net.node_version("top") == 1
        assert net.placement("f1").path == TOP
        net.check_invariants()


class TestPlannerWithRules:
    def test_planner_routes_around_full_switch(self):
        topo = rules_diamond(top_rules=0)
        net = topo.network()
        planner = EventPlanner(PathProvider(topo))
        event = make_event([flow(f"u{i}") for i in range(3)])
        plan = planner.plan_event(net, event, random.Random(1),
                                  commit=True)
        assert plan.feasible
        for fp in plan.flow_plans:
            assert "top" not in fp.path
        net.check_invariants()

    def test_planner_blocks_when_all_tables_full(self):
        topo = rules_diamond(top_rules=0, bot_rules=0)
        net = topo.network()
        planner = EventPlanner(PathProvider(topo))
        event = make_event([flow("u1")])
        plan = planner.plan_event(net, event, random.Random(1))
        assert not plan.feasible
