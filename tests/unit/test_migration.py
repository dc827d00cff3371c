"""Unit tests for the migration planner (Definition 1 / Eq. 2-5).

Scenarios run on a diamond network: hosts ``a``/``b`` talk across two
disjoint middle paths (via ``top`` or ``bot``), and hosts ``c``/``d`` inject
background flows that share only the *middle* links with ``a->b`` traffic —
so migration (which can never free a host's own access link) has something
it can actually fix.
"""

import random

import networkx as nx
import pytest

from repro.core.flow import Flow
from repro.core.migration import MigrationConfig, MigrationPlanner
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


TOP = ("a", "s1", "top", "s2", "b")
BOT = ("a", "s1", "bot", "s2", "b")
BG_TOP = ("c", "s1", "top", "s2", "d")
BG_BOT = ("c", "s1", "bot", "s2", "d")


def probe(fid, demand):
    """An a->b flow (the update flow whose path must be cleared)."""
    return Flow(flow_id=fid, src="a", dst="b", demand=demand)


def background(fid, demand):
    """A c->d flow sharing only middle links with a->b paths."""
    return Flow(flow_id=fid, src="c", dst="d", demand=demand)


@pytest.fixture()
def setup():
    topo = diamond_topology()
    net = topo.network()
    provider = PathProvider(topo)
    planner = MigrationPlanner(provider)
    return net, provider, planner


class TestConfig:
    def test_bad_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            MigrationConfig(strategy="magic")

    def test_bad_rounds_rejected(self):
        with pytest.raises(ValueError):
            MigrationConfig(max_rounds=0)

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError):
            MigrationConfig(max_migrations_per_flow=0)


class TestCongestedLinks:
    def test_detects_congestion(self, setup):
        net, __, planner = setup
        net.place(probe("bg", 95.0), TOP)
        congested = planner.congested_links(net, TOP, demand=10.0)
        assert set(congested) == {("a", "s1"), ("s1", "top"),
                                  ("top", "s2"), ("s2", "b")}

    def test_clear_path_has_none(self, setup):
        net, __, planner = setup
        assert planner.congested_links(net, TOP, demand=10.0) == []


class TestMakeRoom:
    def test_no_congestion_returns_empty(self, setup):
        net, __, planner = setup
        migrations, ops = planner.make_room(net, probe("new", 10.0), TOP,
                                             frozenset(), random.Random(1))
        assert migrations == []
        assert ops > 0

    def test_migrates_blocking_flow(self, setup):
        net, __, planner = setup
        net.place(background("bg", 45.0), BG_TOP)
        with net.trial():
            migrations, __ops = planner.make_room(
                net, probe("new", 60.0), TOP, frozenset(), random.Random(1))
            assert migrations is not None
            assert [m.flow.flow_id for m in migrations] == ["bg"]
            assert migrations[0].new_path == BG_BOT
            assert net.path_feasible(TOP, 60.0)
        # the dropped trial leaves the network as it was
        assert net.placement("bg").path == BG_TOP

    def test_protected_flows_not_migrated(self, setup):
        net, __, planner = setup
        net.place(background("bg", 45.0), BG_TOP)
        migrations, ops = planner.make_room(net, probe("new", 60.0), TOP,
                                             frozenset(["bg"]),
                                             random.Random(1))
        assert migrations is None  # bg was the only migratable flow
        assert ops > 0  # the failed attempt still charges its work

    def test_fails_when_alternate_is_full(self, setup):
        net, __, planner = setup
        net.place(background("bg1", 45.0), BG_TOP)
        net.place(Flow(flow_id="bg2", src="e", dst="f", demand=60.0),
                  ("e", "s1", "bot", "s2", "f"))
        # moving bg1 to bot needs 45+60 <= 100 there: impossible, and bg2
        # on bot cannot help the top path; no migration set exists.
        migrations, __ops = planner.make_room(net, probe("new", 60.0), TOP,
                                               frozenset(), random.Random(1))
        assert migrations is None

    def test_host_access_shortage_cannot_be_migrated(self, setup):
        net, __, planner = setup
        # a's own uplink is exhausted by another a-flow: no migration of
        # c/d traffic can ever free it.
        net.place(Flow(flow_id="mine", src="a", dst="b", demand=90.0), TOP)
        migrations, __ops = planner.make_room(net, probe("new", 60.0), TOP,
                                               frozenset(), random.Random(1))
        assert migrations is None

    def test_migration_cost_is_sum_of_demands(self, setup):
        net, __, planner = setup
        net.place(background("bg1", 20.0), BG_TOP)
        net.place(background("bg2", 25.0), BG_TOP)
        migrations, __ops = planner.make_room(net, probe("new", 80.0), TOP,
                                               frozenset(), random.Random(1))
        assert migrations is not None
        # residual was 55, need 80 -> deficit 25; best_fit moves bg2 alone
        total = sum(m.migrated_traffic for m in migrations)
        assert total == pytest.approx(25.0)
        assert [m.flow.flow_id for m in migrations] == ["bg2"]


class TestStrategies:
    def _net_with_two_blockers(self):
        topo = diamond_topology()
        net = topo.network()
        net.place(background("small", 20.0), BG_TOP)
        net.place(background("large", 30.0), BG_TOP)
        provider = PathProvider(topo)
        return net, provider

    def test_best_fit_prefers_single_cover(self):
        net, provider = self._net_with_two_blockers()
        planner = MigrationPlanner(provider,
                                   MigrationConfig(strategy="best_fit"))
        # middle residual 50, need 75 -> deficit 25: small(20) alone cannot
        # cover, large(30) can; best_fit moves exactly the large flow.
        migrations, __ = planner.make_room(net, probe("new", 75.0), TOP,
                                            frozenset(), random.Random(1))
        assert migrations is not None
        assert [m.flow.flow_id for m in migrations] == ["large"]

    def test_smallest_first_accumulates(self):
        net, provider = self._net_with_two_blockers()
        planner = MigrationPlanner(
            provider, MigrationConfig(strategy="smallest_first"))
        migrations, __ = planner.make_room(net, probe("new", 75.0), TOP,
                                            frozenset(), random.Random(1))
        assert migrations is not None
        moved = [m.flow.flow_id for m in migrations]
        assert moved[0] == "small"
        assert set(moved) == {"small", "large"}

    def test_largest_first_moves_large(self):
        net, provider = self._net_with_two_blockers()
        planner = MigrationPlanner(
            provider, MigrationConfig(strategy="largest_first"))
        migrations, __ = planner.make_room(net, probe("new", 75.0), TOP,
                                            frozenset(), random.Random(1))
        assert migrations is not None
        assert [m.flow.flow_id for m in migrations] == ["large"]


class TestBudgets:
    def test_migration_budget_respected(self):
        topo = diamond_topology()
        net = topo.network()
        for i in range(5):
            net.place(background(f"bg{i}", 10.0), BG_TOP)
        provider = PathProvider(topo)
        planner = MigrationPlanner(
            provider, MigrationConfig(strategy="smallest_first",
                                      max_migrations_per_flow=2))
        # middle residual 50, need 80 -> deficit 30 needs 3 flows of 10,
        # but the budget allows only 2.
        migrations, ops = planner.make_room(net, probe("new", 80.0), TOP,
                                             frozenset(), random.Random(1))
        assert migrations is None
        assert ops > 0
