"""Unit tests for routing utilities and the PathProvider cache."""

import copy
import gc
import itertools
import pickle
import random
import tracemalloc

import networkx as nx
import pytest

from repro.core.exceptions import TopologyError
from repro.core.flow import Flow
from repro.core.migration import MigrationPlanner
from repro.network.link import link_table_for, path_links
from repro.network.routing.candidate import CandidatePath
from repro.network.routing.paths import k_shortest_paths, path_hops
from repro.network.routing.provider import PathProvider
from repro.network.topology.custom import CustomTopology
from repro.network.topology.fattree import FatTreeTopology
from repro.network.topology.jellyfish import JellyfishTopology
from repro.network.topology.leafspine import LeafSpineTopology
from repro.traces.background import BackgroundLoader
from repro.traces.yahoo import YahooLikeTrace


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

    def test_warm(self, topo):
        provider = PathProvider(topo)
        provider.warm([("h0_0_0", "h1_0_0"), ("h0_0_0", "h2_0_0")])
        assert provider.cache_size() == 2


class TestCandidatePath:
    """What is baked at interning time and what is derived on each read."""

    NODES = ("h0_0_0", "e0_0", "a0_0", "c0_0", "a1_0", "e1_0", "h1_0_0")

    @pytest.fixture(scope="class")
    def table(self):
        return link_table_for(FatTreeTopology(k=4).graph())

    @pytest.mark.parametrize("with_table", [True, False])
    def test_links_derive_on_each_read(self, table, with_table):
        path = CandidatePath.make(self.NODES, table if with_table else None)
        expected = tuple(zip(self.NODES[:-1], self.NODES[1:]))
        for __ in range(2):
            assert path.links == expected
        assert set(vars(path)) == {"link_idx", "table"}
        assert (path.link_idx is None) == (not with_table)

    def test_crossing_by_index_agrees_with_links(self, table):
        """The migration planner's "does this path cross that link" test,
        on link indices, answers as ``link in path_links(path)`` for every
        candidate of a pair against every link — baked candidates and the
        plain node tuples that fall back to a table lookup alike."""
        provider = PathProvider(FatTreeTopology(k=4))
        planner = MigrationPlanner(provider)
        candidates = provider.paths("h0_0_0", "h3_1_1")
        assert len(candidates) == 4
        for path in (*candidates, *map(tuple, candidates)):
            indices = planner._link_indices(path)
            for i, link in enumerate(provider.table.ids):
                assert (i in indices) == (link in path_links(path))

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
            assert path.links
        twin = clone(path)
        assert type(twin) is CandidatePath and twin == path
        assert twin.link_idx == path.link_idx
        assert twin.links == path.links

    def test_interned_paths_stay_lean(self):
        """Interning retains the node tuple, the index tuple and the
        instance dict — no per-path link tuples or frozenset. (1 635 B per
        path when ``links``/``link_set`` were built eagerly; 411 B
        measured now, bound at +15 %.)"""
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
        assert retained / paths <= 470


# ---------------------------------------------------------------------------
# one template per switch pair == the per-host-pair enumeration it replaced
# ---------------------------------------------------------------------------

def multi_homed_graph():
    """Two switch rows with single-homed hosts under them and one host
    (``m``) homed on both rows, so it is enumerated, never templated."""
    graph = nx.Graph()
    for switch in ("s1", "s2", "t1", "t2"):
        graph.add_node(switch, kind="switch")
    for host in ("a", "b", "c", "d", "m"):
        graph.add_node(host, kind="host")
    graph.add_edges_from(
        [("s1", "t1"), ("s1", "t2"), ("s2", "t1"), ("s2", "t2"),
         ("a", "s1"), ("b", "s1"), ("c", "s2"), ("d", "t1"),
         ("m", "s1"), ("m", "t2")], capacity=1000.0)
    return graph


#: name -> (topology, check ``links`` on every n-th pair). Fat-tree k=8
#: has 235 904 paths; deriving every one's links costs time for a
#: property that is a function of ``link_idx``.
STRUCTURED = {
    "fat-tree-4": (FatTreeTopology(k=4), 1),
    "fat-tree-8": (FatTreeTopology(k=8), 97),
    "leaf-spine": (LeafSpineTopology(leaves=4, spines=3,
                                     hosts_per_leaf=3), 1),
    "jellyfish-10": (JellyfishTopology(switches=10, degree=3,
                                       hosts_per_switch=2, seed=2), 1),
    "jellyfish-20": (JellyfishTopology(switches=20, degree=4,
                                       hosts_per_switch=2, seed=1), 1),
    "multi-homed": (CustomTopology(multi_homed_graph()), 1),
}


def count_enumerations(monkeypatch, topo):
    """The list every ``topo.equal_cost_paths`` call from here on is
    appended to."""
    calls = []
    original = topo.equal_cost_paths
    monkeypatch.setattr(
        topo, "equal_cost_paths",
        lambda s, d: calls.append((s, d)) or original(s, d))
    return calls


def enumerated(topo, src, dst, max_paths=None, banned=frozenset()):
    """``PathProvider.paths`` as it stood when every host pair was
    enumerated on its own."""
    found = [p for p in topo.equal_cost_paths(src, dst)
             if not banned.intersection(p)][:max_paths]
    if not found:
        raise TopologyError(f"no path from {src!r} to {dst!r} in "
                            f"{topo.name}")
    table = link_table_for(topo.graph())
    return tuple(CandidatePath.make(p, table) for p in found)


def assert_same_candidates(provider, topo, every=1, **filters):
    table = link_table_for(topo.graph())
    pairs = itertools.permutations(topo.hosts(), 2)
    for number, (src, dst) in enumerate(pairs):
        try:
            expected = enumerated(topo, src, dst, **filters)
        except TopologyError as exc:
            with pytest.raises(TopologyError) as caught:
                provider.paths(src, dst)
            assert str(caught.value) == str(exc)
            continue
        got = provider.paths(src, dst)
        assert got == expected
        assert all(type(p) is CandidatePath and p.table is table
                   for p in got)
        assert [p.link_idx for p in got] == [p.link_idx for p in expected]
        if number % every == 0:
            assert [p.links for p in got] == [p.links for p in expected]


class TestStructureEqualsEnumeration:
    @pytest.mark.parametrize("name", sorted(STRUCTURED))
    def test_every_pair(self, name):
        topo, every = STRUCTURED[name]
        assert_same_candidates(PathProvider(topo), topo, every)

    @pytest.mark.parametrize("name", ["fat-tree-4", "jellyfish-10",
                                      "multi-homed"])
    def test_max_paths(self, name):
        topo, __ = STRUCTURED[name]
        assert_same_candidates(PathProvider(topo, max_paths=2), topo,
                               max_paths=2)

    @pytest.mark.parametrize("name, banned", [
        ("fat-tree-4", {"a0_0"}),        # a switch: fewer candidates
        ("fat-tree-4", {"e0_0"}),        # an edge switch: pairs with none
        ("fat-tree-4", {"h0_0_1"}),      # a host: its own pairs have none
        ("leaf-spine", {"s1"}),
        ("multi-homed", {"t1"}),
        ("multi-homed", {"m"}),
    ])
    def test_banned_nodes(self, name, banned):
        topo, __ = STRUCTURED[name]
        assert_same_candidates(PathProvider(topo, banned_nodes=banned),
                               topo, banned=frozenset(banned))

    @pytest.mark.parametrize("name", sorted(STRUCTURED))
    def test_bad_endpoints_raise_the_enumerations_errors(self, name):
        topo, __ = STRUCTURED[name]
        host, switch = topo.hosts()[0], topo.switches()[0]
        provider = PathProvider(topo)
        for src, dst in ((host, host), (host, "ghost"), ("ghost", host),
                         (host, switch), (switch, host)):
            with pytest.raises(TopologyError) as expected:
                topo.equal_cost_paths(src, dst)
            assert provider.link_rows(src, dst) is None
            for read in (provider.paths,
                         lambda s, d: provider.candidate(s, d, 0)):
                with pytest.raises(TopologyError) as caught:
                    read(src, dst)
                assert str(caught.value) == str(expected.value)

    def test_multi_homed_host_is_enumerated(self):
        topo, __ = STRUCTURED["multi-homed"]
        provider = PathProvider(topo)
        assert provider.link_rows("m", "d") is None
        assert provider.link_rows("a", "m") is None
        assert provider.link_rows("a", "d") is not None
        assert provider.candidate("m", "d", 0) is provider.paths("m", "d")[0]

    def test_one_enumeration_per_switch_pair(self, monkeypatch):
        topo = FatTreeTopology(k=4)
        calls = count_enumerations(monkeypatch, topo)
        provider = PathProvider(topo)
        hosts = topo.hosts()
        for src, dst in itertools.permutations(hosts, 2):
            provider.link_rows(src, dst)
            provider.candidate(src, dst, 0)
            provider.paths(src, dst)
        edges = len(hosts) // 2        # k=4: two hosts per edge switch
        assert len(calls) == edges * edges
        assert provider.cache_size() == len(hosts) * (len(hosts) - 1)


def alive_candidates(table):
    """``CandidatePath``s over ``table`` that something still holds."""
    return sum(type(obj) is CandidatePath and obj.table is table
               for obj in gc.get_objects())


def assert_equal_candidate(path, reference):
    assert type(path) is CandidatePath
    assert tuple(path) == tuple(reference)
    assert path.link_idx == reference.link_idx
    assert path.table is reference.table


class TestCandidateIdentity:
    """``candidate(s, d, i)`` equals ``paths(s, d)[i]`` always, and is the
    same object once the pair's tuple is cached; the provider keeps no
    path outside that tuple."""

    @pytest.fixture()
    def provider(self):
        return PathProvider(FatTreeTopology(k=4))

    def test_single_first(self, provider):
        single = provider.candidate("h0_0_0", "h1_0_0", 2)
        assert provider.candidate_count("h0_0_0", "h1_0_0") == 4
        assert provider.cache_size() == 0
        full = provider.paths("h0_0_0", "h1_0_0")
        assert_equal_candidate(single, full[2])
        assert provider.candidate("h0_0_0", "h1_0_0", 2) is full[2]

    def test_full_tuple_first(self, provider):
        full = provider.paths("h0_0_0", "h1_0_0")
        for i, path in enumerate(full):
            assert provider.candidate("h0_0_0", "h1_0_0", i) is path

    def test_single_reads_keep_nothing(self, provider):
        table = provider.table
        hosts = provider.topology.hosts()
        gc.collect()
        before = alive_candidates(table)
        for src, dst in itertools.permutations(hosts, 2):
            for i in range(provider.candidate_count(src, dst)):
                provider.candidate(src, dst, i)
        gc.collect()
        assert alive_candidates(table) == before
        assert provider.cache_size() == 0

    @pytest.mark.parametrize("best_path_first", [True, False])
    def test_best_path_hands_out_an_equal_candidate(self, best_path_first):
        topo = FatTreeTopology(k=4)
        provider = PathProvider(topo)
        loader = BackgroundLoader(topo.network(), provider, trace=None,
                                  rng=random.Random(5))
        flow = Flow(flow_id="f", src="h0_0_0", dst="h3_1_1", demand=10.0)
        if best_path_first:
            chosen = loader.best_path(flow)
            assert provider.cache_size() == 0
            full = provider.paths(flow.src, flow.dst)
            assert sum(chosen == path for path in full) == 1
            assert_equal_candidate(chosen, full[full.index(chosen)])
        else:
            full = provider.paths(flow.src, flow.dst)
            chosen = loader.best_path(flow)
            assert sum(chosen is path for path in full) == 1


class TestChurnStaysLazy:
    """What a provider that served only background respawns holds."""

    def test_one_path_per_respawn_and_a_template_per_switch_pair(
            self, monkeypatch):
        topo = FatTreeTopology(k=8)
        calls = count_enumerations(monkeypatch, topo)
        provider = PathProvider(topo)
        network = topo.network()
        trace = YahooLikeTrace(topo.hosts(), seed=3)
        loader = BackgroundLoader(network, provider, trace,
                                  random.Random(4))
        flows = [trace.sample_flow() for __ in range(2000)]
        loader.best_path(flows[0])    # link table, attachments, topo caches
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            placed = 0
            for flow in flows:
                path = loader.best_path(flow)
                if path is not None:
                    network.place(flow, path)
                    placed += 1
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert placed > 1500
        assert provider.cache_size() == 0
        assert len(provider._templates) == len(calls) <= 1024
        # Measured 1 662 B per respawn: the placed path, the slotted
        # placement, the flow's slots in the network's per-link lists, and
        # a share of the 873 templates these flows touched, whose middles
        # hold the graph's own switch names. Bound at +15 %.
        assert retained / placed <= 1900
        # The placements are all that hold the paths churn placed; a
        # provider that kept them would leave ~1 979 alive here.
        del path
        for flow_id in list(network.flow_ids()):
            network.remove(flow_id)
        gc.collect()
        assert alive_candidates(provider.table) == 0
