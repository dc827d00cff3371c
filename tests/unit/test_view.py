"""Unit tests for ``Network.trial``: nested savepoints on the kernel's own
columns, the what-if mechanism planning and probing run on.

(The module keeps the name and test ids of the copy-on-write overlay it
replaced; each test asks the same question of a trial.)
"""

import networkx as nx
import pytest

from repro.core.exceptions import (
    DuplicateFlowError,
    InsufficientBandwidthError,
    UnknownFlowError,
)
from repro.core.flow import Flow
from repro.network.network import Network


def diamond() -> Network:
    g = nx.DiGraph()
    g.add_node("a", kind="host")
    g.add_node("b", kind="host")
    for s in ("s1", "s2", "top", "bot"):
        g.add_node(s, kind="edge")
    for u, v in (("a", "s1"), ("s1", "top"), ("s1", "bot"),
                 ("top", "s2"), ("bot", "s2"), ("s2", "b")):
        g.add_edge(u, v, capacity=100.0)
        g.add_edge(v, u, capacity=100.0)
    return Network(g)


TOP = ("a", "s1", "top", "s2", "b")
BOT = ("a", "s1", "bot", "s2", "b")


def flow(fid, demand=10.0):
    return Flow(flow_id=fid, src="a", dst="b", demand=demand)


def columns(net: Network):
    """Every raw column a drop must restore, flow table order included."""
    return (list(net._used_col), [list(f) for f in net._flows_col],
            list(net._ver_col), list(net._rules_used_col),
            list(net._node_ver_col), list(net._placements.items()))


@pytest.fixture()
def base() -> Network:
    net = diamond()
    net.place(flow("base1", 20.0), TOP)
    return net


class TestReads:
    def test_transparent_reads(self, base):
        before = columns(base)
        with base.trial():
            assert base.trial_open
            assert base.used("s1", "top") == 20.0
            assert base.has_flow("base1")
            assert base.placement("base1").path == TOP
            assert set(base.flow_ids()) == {"base1"}
        assert not base.trial_open
        assert columns(base) == before

    def test_graph_walks_to_base(self, base):
        graph = base.graph
        with base.trial(), base.trial():
            assert base.graph is graph


class TestMutationIsolation:
    def test_place_does_not_touch_base(self, base):
        before = columns(base)
        with base.trial():
            base.place(flow("v1"), BOT)
            assert base.has_flow("v1")
            assert base.used("s1", "bot") == pytest.approx(10.0)
        assert not base.has_flow("v1")
        assert base.used("s1", "bot") == 0.0
        assert columns(base) == before

    def test_remove_does_not_touch_base(self, base):
        before = columns(base)
        with base.trial():
            base.remove("base1")
            assert not base.has_flow("base1")
            assert list(base.flow_ids()) == []
            with pytest.raises(UnknownFlowError):
                base.placement("base1")
        assert base.has_flow("base1")
        assert columns(base) == before

    def test_flows_on_link_overlay(self, base):
        with base.trial():
            base.place(flow("v1"), TOP)
            assert base.flows_on_link("s1", "top") == {"base1", "v1"}
        assert base.flows_on_link("s1", "top") == {"base1"}

    def test_flow_ids_merge(self, base):
        with base.trial():
            base.place(flow("v1"), BOT)
            base.remove("base1")
            assert set(base.flow_ids()) == {"v1"}
        assert list(base.flow_ids()) == ["base1"]


class TestValidation:
    def test_duplicate_rejected_across_layers(self, base):
        with base.trial(), base.trial():
            with pytest.raises(DuplicateFlowError):
                base.place(flow("base1"), BOT)

    def test_insufficient_bandwidth_in_view(self, base):
        with base.trial():
            base.place(flow("v1", 75.0), BOT)  # a->s1 now at 20+75 = 95
            with pytest.raises(InsufficientBandwidthError):
                base.place(flow("v2", 10.0), BOT)

    def test_failed_place_leaves_view_clean(self, base):
        before = columns(base)
        with base.trial():
            with pytest.raises(InsufficientBandwidthError):
                base.place(flow("big", 90.0), TOP)  # 20 + 90 > 100 on a->s1
            assert columns(base) == before
        assert columns(base) == before


class TestCommit:
    def test_commit_replays_onto_base(self, base):
        with base.trial() as trial:
            base.place(flow("v1"), BOT)
            base.remove("base1")
            trial.keep()
        assert base.has_flow("v1")
        assert not base.has_flow("base1")
        assert not base.trial_open
        base.check_invariants()

    def test_commit_resets_view(self, base):
        """A kept trial leaves the network exactly as the same operations
        made outside any trial do, flow table order included."""
        direct = base.copy()
        for net in (base, direct):
            net.place(flow("v0"), BOT)
        with base.trial() as trial:
            base.reroute("base1", BOT)
            base.place(flow("v1"), TOP)
            base.remove("v0")
            trial.keep()
        direct.reroute("base1", BOT)
        direct.place(flow("v1"), TOP)
        direct.remove("v0")
        assert columns(base) == columns(direct)

    def test_reroute_commit_matches_direct(self, base):
        direct = base.copy()
        direct.reroute("base1", BOT)
        with base.trial() as trial:
            base.reroute("base1", BOT)
            trial.keep()
        assert base.placement("base1").path == BOT
        for link in (("s1", "top"), ("s1", "bot")):
            assert base.used(*link) == direct.used(*link)
        base.check_invariants()

    def test_discarding_view_is_free(self, base):
        """Dropping undoes a remove-and-replace of a flow in the middle of
        every list: each id goes back to its slot."""
        base.place(flow("mid", 5.0), TOP)
        base.place(flow("last", 5.0), TOP)
        before = columns(base)
        with base.trial():
            base.reroute("mid", BOT)
            base.reroute("mid", TOP)
            base.remove("base1")
            base.place(flow("base1", 20.0), BOT)
        assert columns(base) == before
        base.check_invariants()

    def test_reset_discards_mutations(self, base):
        trial = base.trial()
        base.place(flow("v1"), BOT)
        trial.drop()
        assert not base.has_flow("v1")
        assert base.used("s1", "bot") == 0.0
        with pytest.raises(RuntimeError):
            trial.drop()


class TestNestedViews:
    def test_child_sees_parent_mutations(self, base):
        with base.trial():
            base.place(flow("p1"), BOT)
            with base.trial():
                assert base.has_flow("p1")
                assert base.used("s1", "bot") == pytest.approx(10.0)

    def test_child_commit_lands_in_parent_not_base(self, base):
        before = columns(base)
        with base.trial() as parent:
            with base.trial() as child:
                base.place(flow("c1"), BOT)
                with pytest.raises(RuntimeError):
                    parent.keep()  # only the innermost trial resolves
                child.keep()
            assert base.has_flow("c1")
        assert not base.has_flow("c1")
        assert columns(base) == before

    def test_two_level_commit_reaches_base(self, base):
        with base.trial() as parent:
            with base.trial() as child:
                base.place(flow("c1"), BOT)
                child.keep()
            with base.trial():
                base.remove("c1")  # dropped: c1 stays
            parent.keep()
        assert base.has_flow("c1")
        base.check_invariants()
