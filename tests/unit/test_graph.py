"""The in-repo graph container against the networkx graphs it replaced.

Fat-Tree and leaf-spine used to build ``nx.DiGraph`` objects. The builds
below are verbatim copies of those ``_build`` methods; every order the
library reads off a graph (nodes, edges — hence link indices — successors,
predecessors) and every structure derived from it must be equal on both.
"""

from __future__ import annotations

import itertools

import networkx as nx
import pytest

from repro.network.graph import DiGraph
from repro.network.link import link_table_for
from repro.network.network import Network
from repro.network.routing.provider import PathProvider
from repro.network.topology.custom import CustomTopology
from repro.network.topology.fattree import FatTreeTopology
from repro.network.topology.leafspine import LeafSpineTopology


class NxFatTree(FatTreeTopology):
    def _build(self):
        k, half, cap = self.k, self.k // 2, self.link_capacity
        graph = nx.DiGraph()

        def add_duplex(u, v):
            graph.add_edge(u, v, capacity=cap)
            graph.add_edge(v, u, capacity=cap)

        for group in range(half):
            for index in range(half):
                graph.add_node(self.core_name(group, index), kind="core")
        for pod in range(k):
            for j in range(half):
                edge = self.edge_name(pod, j)
                aggr = self.aggr_name(pod, j)
                graph.add_node(edge, kind="edge", pod=pod)
                graph.add_node(aggr, kind="aggr", pod=pod)
                for index in range(half):
                    host = self.host_name(pod, j, index)
                    graph.add_node(host, kind="host", pod=pod)
                    add_duplex(host, edge)
            for j, m in itertools.product(range(half), repeat=2):
                add_duplex(self.edge_name(pod, j), self.aggr_name(pod, m))
            for j in range(half):
                for index in range(half):
                    add_duplex(self.aggr_name(pod, j),
                               self.core_name(j, index))
        return graph


class NxLeafSpine(LeafSpineTopology):
    def _build(self):
        graph = nx.DiGraph()
        cap = self.link_capacity

        def add_duplex(u, v):
            graph.add_edge(u, v, capacity=cap)
            graph.add_edge(v, u, capacity=cap)

        for m in range(self.spines):
            graph.add_node(self.spine_name(m), kind="spine")
        for j in range(self.leaves):
            leaf = self.leaf_name(j)
            graph.add_node(leaf, kind="edge")
            for m in range(self.spines):
                add_duplex(leaf, self.spine_name(m))
            for i in range(self.hosts_per_leaf):
                host = self.host_name(j, i)
                graph.add_node(host, kind="host")
                add_duplex(host, leaf)
        return graph


PAIRS = {
    "fat-tree k=4": (FatTreeTopology(k=4), NxFatTree(k=4)),
    "fat-tree k=8": (FatTreeTopology(k=8), NxFatTree(k=8)),
    "leaf-spine": (LeafSpineTopology(leaves=5, spines=3, hosts_per_leaf=4),
                   NxLeafSpine(leaves=5, spines=3, hosts_per_leaf=4)),
}


@pytest.fixture(params=list(PAIRS), scope="module")
def pair(request):
    return PAIRS[request.param]


class TestSameGraphAsNetworkx:
    def test_builds_the_container(self, pair):
        new, old = pair
        assert type(new.graph()) is DiGraph
        assert isinstance(old.graph(), nx.DiGraph)

    def test_nodes(self, pair):
        new, old = (t.graph() for t in pair)
        assert list(new.nodes) == list(old.nodes)
        assert list(new.nodes()) == list(old.nodes())
        assert list(new.nodes(data=True)) == list(old.nodes(data=True))
        assert list(new.nodes(data="kind")) == list(old.nodes(data="kind"))
        assert list(new.nodes(data="rule_capacity")) \
            == list(old.nodes(data="rule_capacity"))
        assert new.number_of_nodes() == old.number_of_nodes()

    def test_edges(self, pair):
        new, old = (t.graph() for t in pair)
        assert list(new.edges()) == list(old.edges())
        assert list(new.edges(data=True)) == list(old.edges(data=True))
        assert new.number_of_edges() == old.number_of_edges()
        for u, v in old.edges():
            assert new.edges[u, v] == old.edges[u, v]
            assert new.has_edge(u, v)

    def test_adjacency_order(self, pair):
        new, old = (t.graph() for t in pair)
        for n in old.nodes:
            assert list(new.successors(n)) == list(old.successors(n))
            assert list(new.predecessors(n)) == list(old.predecessors(n))

    def test_link_table(self, pair):
        new, old = (t.graph() for t in pair)
        assert link_table_for(new).ids == link_table_for(old).ids

    def test_network_columns(self, pair):
        new, old = (Network(t.graph()) for t in pair)
        assert new._cap_col == old._cap_col
        assert new._switch_idx == old._switch_idx
        assert new._switch_pos == old._switch_pos
        assert new._node_index == old._node_index
        assert new.hosts() == old.hosts() and \
            new.switches() == old.switches()

    def test_rule_limited_network(self, pair):
        new, old = (Network(t.graph(), default_rule_capacity=3)
                    for t in pair)
        assert new._node_index == old._node_index
        assert new._rule_cap_col == old._rule_cap_col

    def test_provider_attachments(self, pair):
        new, old = (PathProvider(t) for t in pair)
        assert new._attachments() == old._attachments()


class TestContainer:
    def test_copy_is_independent(self):
        graph = FatTreeTopology(k=4).graph()
        clone = graph.copy()
        assert list(clone.edges(data=True)) == list(graph.edges(data=True))
        clone.nodes["c0_0"]["rule_capacity"] = 1
        clone.edges["c0_0", "a0_0"]["capacity"] = 5.0
        clone.add_edge("c0_0", "c0_1")
        assert "rule_capacity" not in graph.nodes["c0_0"]
        assert graph.edges["c0_0", "a0_0"]["capacity"] == 1000.0
        assert not graph.has_edge("c0_0", "c0_1")
        assert Network(clone)._rule_cap_col == [1]
        assert Network(graph)._rule_cap_col == []

    def test_node_attribute_writes_reach_a_later_network(self):
        topo = FatTreeTopology(k=4)
        topo.graph().nodes["c1_1"]["rule_capacity"] = 2
        net = topo.network()
        assert net._node_index == {"c1_1": 0}
        assert net._rule_cap_col == [2]

    def test_add_node_updates_and_add_edge_adds_endpoints(self):
        graph = DiGraph()
        graph.add_edge("u", "v", capacity=1.0)
        graph.add_node("u", kind="host")
        graph.add_node("u", pod=0)
        graph.add_edge("u", "v", capacity=2.0)
        assert list(graph.nodes(data=True)) == [
            ("u", {"kind": "host", "pod": 0}), ("v", {})]
        assert graph.edges(data=True) == [("u", "v", {"capacity": 2.0})]
        assert graph.nodes.get("w") is None and "w" not in graph
        assert "v" in graph and "v" in graph.nodes
        assert not graph.has_edge("v", "u")
        assert graph.number_of_edges() == 1
        assert graph.is_directed()

    def test_custom_topology_over_the_container(self):
        new = CustomTopology(FatTreeTopology(k=4).graph())
        old = CustomTopology(NxFatTree(k=4).graph())
        assert link_table_for(new.graph()).ids \
            == link_table_for(old.graph()).ids
        for dst in ("h0_0_1", "h0_1_0", "h3_1_1"):
            assert new.equal_cost_paths("h0_0_0", dst) \
                == old.equal_cost_paths("h0_0_0", dst)
