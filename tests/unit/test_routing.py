"""Unit tests for routing utilities and the PathProvider cache."""

import copy
import gc
import pickle
import random
import tracemalloc

import networkx as nx
import pytest

from repro.core.exceptions import TopologyError
from repro.network.link import link_table_for
from repro.network.routing.candidate import CandidatePath
from repro.network.routing.paths import (
    k_shortest_paths,
    path_hops,
    paths_avoiding,
    paths_through,
)
from repro.network.routing.provider import PathProvider
from repro.network.topology.fattree import FatTreeTopology


class TestKShortestPaths:
    @pytest.fixture(scope="class")
    def g(self):
        graph = nx.DiGraph()
        graph.add_edges_from([("a", "m1"), ("m1", "b"),
                              ("a", "m2"), ("m2", "b"),
                              ("a", "x"), ("x", "y"), ("y", "b")])
        return graph

    def test_returns_shortest_first(self, g):
        paths = k_shortest_paths(g, "a", "b", k=3)
        assert len(paths) == 3
        assert path_hops(paths[0]) <= path_hops(paths[-1])

    def test_k_limits_result(self, g):
        assert len(k_shortest_paths(g, "a", "b", k=2)) == 2

    def test_no_path_returns_empty(self, g):
        g2 = g.copy()
        g2.add_node("island")
        assert k_shortest_paths(g2, "a", "island") == []

    def test_unknown_node_returns_empty(self, g):
        assert k_shortest_paths(g, "a", "ghost") == []

    def test_nonpositive_k(self, g):
        assert k_shortest_paths(g, "a", "b", k=0) == []


class TestPathFilters:
    PATHS = [("a", "m1", "b"), ("a", "m2", "b")]

    def test_paths_avoiding(self):
        kept = paths_avoiding(self.PATHS, ("a", "m1"))
        assert kept == [("a", "m2", "b")]

    def test_paths_through(self):
        kept = paths_through(self.PATHS, ("m2", "b"))
        assert kept == [("a", "m2", "b")]

    def test_path_hops(self):
        assert path_hops(("a", "b", "c")) == 2
        assert path_hops(("a",)) == 0


class TestPathProvider:
    @pytest.fixture(scope="class")
    def topo(self):
        return FatTreeTopology(k=4)

    def test_caches_results(self, topo):
        provider = PathProvider(topo)
        first = provider.paths("h0_0_0", "h1_0_0")
        second = provider.paths("h0_0_0", "h1_0_0")
        assert first is second
        assert provider.cache_size() == 1

    def test_max_paths_cap(self, topo):
        provider = PathProvider(topo, max_paths=2)
        assert len(provider.paths("h0_0_0", "h1_0_0")) == 2

    def test_max_paths_validation(self, topo):
        with pytest.raises(ValueError):
            PathProvider(topo, max_paths=0)

    def test_banned_nodes_filtered(self, topo):
        provider = PathProvider(topo, banned_nodes={"a0_0"})
        for path in provider.paths("h0_0_0", "h1_0_0"):
            assert "a0_0" not in path

    def test_banned_everything_raises(self, topo):
        provider = PathProvider(topo, banned_nodes={"e0_0"})
        with pytest.raises(TopologyError, match="no path"):
            provider.paths("h0_0_0", "h1_0_0")

    def test_shuffled_paths_preserve_cache_order(self, topo):
        provider = PathProvider(topo)
        original = provider.paths("h0_0_0", "h1_0_0")
        snapshot = tuple(original)
        provider.shuffled_paths("h0_0_0", "h1_0_0", random.Random(3))
        assert provider.paths("h0_0_0", "h1_0_0") == snapshot

    def test_shuffled_paths_same_set(self, topo):
        provider = PathProvider(topo)
        shuffled = provider.shuffled_paths("h0_0_0", "h1_0_0",
                                           random.Random(3))
        assert sorted(shuffled) == sorted(provider.paths("h0_0_0",
                                                         "h1_0_0"))

    def test_warm(self, topo):
        provider = PathProvider(topo)
        provider.warm([("h0_0_0", "h1_0_0"), ("h0_0_0", "h2_0_0")])
        assert provider.cache_size() == 2


class TestCandidatePath:
    """What is baked at interning time and what is derived on first read."""

    NODES = ("h0_0_0", "e0_0", "a0_0", "c0_0", "a1_0", "e1_0", "h1_0_0")

    @pytest.fixture(scope="class")
    def table(self):
        return link_table_for(FatTreeTopology(k=4).graph())

    @pytest.mark.parametrize("with_table", [True, False])
    def test_links_and_link_set_derive_lazily(self, table, with_table):
        path = CandidatePath.make(self.NODES, table if with_table else None)
        assert "links" not in vars(path) and "link_set" not in vars(path)
        expected = tuple(zip(self.NODES[:-1], self.NODES[1:]))
        for __ in range(2):  # first read derives, second reads the kept one
            assert path.links == expected
            assert path.link_set == frozenset(expected)
        assert path.links is path.links
        assert path.link_set is path.link_set
        assert (path.link_idx is None) == (not with_table)

    def test_links_are_the_tables_own_ids(self, table):
        path = CandidatePath.make(self.NODES, table)
        assert len(path.links) == len(path.link_idx) == len(self.NODES) - 1
        for link, index in zip(path.links, path.link_idx):
            assert link is table.ids[index]

    def test_make_rejects_non_simple_path(self, table):
        with pytest.raises(ValueError, match="not a simple path"):
            CandidatePath.make(("h0_0_0", "e0_0", "h0_0_0"), table)
        with pytest.raises(ValueError, match="not a simple path"):
            CandidatePath.make(("h0_0_0",))

    def test_make_rejects_link_absent_from_table(self, table):
        with pytest.raises(ValueError, match="absent from the link table"):
            CandidatePath.make(("h0_0_0", "c0_0", "h1_0_0"), table)

    @pytest.mark.parametrize("read_first", [False, True])
    @pytest.mark.parametrize("clone", [
        copy.copy, lambda path: pickle.loads(pickle.dumps(path))])
    def test_round_trips_keep_indices_and_links(self, table, clone,
                                                read_first):
        path = CandidatePath.make(self.NODES, table)
        if read_first:
            assert path.links and path.link_set
        twin = clone(path)
        assert type(twin) is CandidatePath and twin == path
        assert twin.link_idx == path.link_idx
        assert twin.links == path.links
        assert twin.link_set == path.link_set

    def test_interned_paths_stay_lean(self):
        """Interning retains the node tuple, the index tuple and the
        instance dict — no per-path link tuples or frozenset. (1 635 B per
        path when ``links``/``link_set`` were built eagerly.)"""
        topo = FatTreeTopology(k=8)
        hosts = topo.hosts()
        provider = PathProvider(topo)
        provider.paths(hosts[0], hosts[-1])  # link table, topology caches
        pairs = [(a, b) for a in hosts[:32] for b in hosts[-16:]]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            paths = sum(len(provider.paths(a, b)) for a, b in pairs)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(pairs) == 512 and paths == 512 * 16
        assert retained / paths <= 600
