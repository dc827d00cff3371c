"""Unit tests for the background-traffic loader."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flow import Flow
from repro.network.link import EPS
from repro.network.routing.provider import PathProvider
from repro.network.topology.fattree import FatTreeTopology
from repro.network.topology.jellyfish import JellyfishTopology
from repro.network.topology.leafspine import LeafSpineTopology
from repro.traces.background import BackgroundLoader
from repro.traces.yahoo import YahooLikeTrace


@pytest.fixture(scope="module")
def topo():
    return FatTreeTopology(k=4)


@pytest.fixture(scope="module")
def provider(topo):
    return PathProvider(topo)


def make_loader(topo, provider, seed=1, **kwargs):
    net = topo.network()
    trace = YahooLikeTrace(topo.hosts(), seed=seed)
    loader = BackgroundLoader(net, provider, trace,
                              random.Random(seed + 10), **kwargs)
    return net, loader


class TestValidation:
    def test_bad_host_cap(self, topo, provider):
        net = topo.network()
        trace = YahooLikeTrace(topo.hosts(), seed=1)
        with pytest.raises(ValueError):
            BackgroundLoader(net, provider, trace, host_link_cap=0.0)
        with pytest.raises(ValueError):
            BackgroundLoader(net, provider, trace, host_link_cap=1.5)

    def test_bad_path_policy(self, topo, provider):
        net = topo.network()
        trace = YahooLikeTrace(topo.hosts(), seed=1)
        with pytest.raises(ValueError, match="path policy"):
            BackgroundLoader(net, provider, trace, path_policy="scenic")

    def test_bad_target(self, topo, provider):
        net, loader = make_loader(topo, provider)
        with pytest.raises(ValueError):
            loader.load_to_utilization(1.0)
        with pytest.raises(ValueError):
            loader.load_to_utilization(-0.1)


class TestLoading:
    def test_reaches_target_utilization(self, topo, provider):
        net, loader = make_loader(topo, provider)
        report = loader.load_to_utilization(0.4)
        assert report.utilization >= 0.4
        assert report.utilization == pytest.approx(
            net.average_utilization())
        assert len(report.placed) > 0
        net.check_invariants()

    def test_placed_flows_are_permanent_by_default(self, topo, provider):
        net, loader = make_loader(topo, provider)
        report = loader.load_to_utilization(0.2)
        assert all(f.duration is None for f in report.placed)

    def test_finite_flows_on_request(self, topo, provider):
        net, loader = make_loader(topo, provider)
        report = loader.load_to_utilization(0.2, permanent=False)
        assert all(f.duration is not None for f in report.placed)

    def test_host_cap_respected(self, topo, provider):
        net, loader = make_loader(topo, provider, host_link_cap=0.5)
        loader.load_to_utilization(0.45, max_rejects=500)
        for host in net.hosts():
            for neighbor in net.graph.successors(host):
                assert net.used(host, neighbor) <= 0.5 * 1000.0 + 1e-6
                assert net.used(neighbor, host) <= 0.5 * 1000.0 + 1e-6

    def test_max_flows_cap(self, topo, provider):
        net, loader = make_loader(topo, provider)
        report = loader.load_to_utilization(0.6, max_flows=10)
        assert len(report.placed) == 10

    def test_deterministic(self, topo, provider):
        net1, loader1 = make_loader(topo, provider, seed=5)
        net2, loader2 = make_loader(topo, provider, seed=5)
        r1 = loader1.load_to_utilization(0.3)
        r2 = loader2.load_to_utilization(0.3)
        assert [f.flow_id[-3:] for f in r1.placed] != []  # ids differ but
        assert len(r1.placed) == len(r2.placed)           # structure matches
        assert r1.utilization == pytest.approx(r2.utilization)

    def test_best_policy_balances_better(self, topo, provider):
        net_r, loader_r = make_loader(topo, provider, seed=5)
        loader_r.load_to_utilization(0.4)
        topo2 = FatTreeTopology(k=4)
        net_b = topo2.network()
        trace = YahooLikeTrace(topo2.hosts(), seed=5)
        loader_b = BackgroundLoader(net_b, PathProvider(topo2), trace,
                                    random.Random(15), path_policy="best")
        loader_b.load_to_utilization(0.4)
        assert net_b.max_utilization() <= net_r.max_utilization() + 0.05


class TestWouldFit:
    def test_probe_does_not_place(self, topo, provider):
        net, loader = make_loader(topo, provider)
        trace = YahooLikeTrace(topo.hosts(), seed=99)
        flow = trace.sample_flow()
        assert loader.would_fit(flow)
        assert net.flow_count() == 0


# ---------------------------------------------------------------------------
# best_path against the per-path loop it replaced
# ---------------------------------------------------------------------------

TOPOLOGIES = {
    "fat-tree": FatTreeTopology(k=4),
    "fat-tree-8": FatTreeTopology(k=8),
    "leaf-spine": LeafSpineTopology(leaves=4, spines=3, hosts_per_leaf=3),
    "jellyfish": JellyfishTopology(switches=10, degree=3,
                                   hosts_per_switch=2, seed=2),
}
PROVIDERS = {name: PathProvider(topo) for name, topo in TOPOLOGIES.items()}


def reference_best_path(network, provider, flow, rng, host_link_cap,
                        path_policy):
    """``BackgroundLoader.best_path`` as it stood before the host-cap
    answer was shared between candidates and before candidates were
    scanned as index rows: every candidate a path object, one string-keyed
    cap check per path. Returns the path and how many candidates the cap
    rejected."""
    def exceeds_host_cap(path):
        for u, v in (path[0], path[1]), (path[-2], path[-1]):
            cap = network.capacity(u, v)
            if network.used(u, v) + flow.demand > host_link_cap * cap:
                return True
        return False

    feasible, capped = [], 0
    for path in provider.paths(flow.src, flow.dst):
        residual = network.path_residual(path)
        if residual + EPS < flow.demand:
            continue
        if exceeds_host_cap(path):
            capped += 1
            continue
        feasible.append((residual, path))
    if not feasible:
        return None, capped
    if path_policy == "random":
        return rng.choice(feasible)[1], capped
    best_residual = max(r for r, __ in feasible)
    choices = [p for r, p in feasible if r >= best_residual - EPS]
    return rng.choice(choices), capped


def check_best_path(topology, policy, cap, load_seed, target, probes,
                    network=None, provider=None):
    """Load a network, then compare ``best_path`` with the reference on
    every probe: same path object, same RNG state afterwards. Returns how
    many candidate paths the host cap rejected over all probes."""
    topo = TOPOLOGIES[topology]
    provider = provider or PROVIDERS[topology]
    network = network or topo.network()
    loader = BackgroundLoader(
        network, provider, YahooLikeTrace(topo.hosts(), seed=load_seed),
        random.Random(load_seed + 10), host_link_cap=cap, path_policy=policy)
    loader.load_to_utilization(target, max_rejects=50)
    hosts = topo.hosts()
    capped_total = 0
    for number, (src, dst, demand) in enumerate(probes):
        src, dst = hosts[src % len(hosts)], hosts[dst % len(hosts)]
        if src == dst:
            continue
        flow = Flow(flow_id=f"probe{number}", src=src, dst=dst,
                    demand=demand)
        reference_rng = random.Random()
        reference_rng.setstate(loader.rng.getstate())
        expected, capped = reference_best_path(
            network, provider, flow, reference_rng, cap, policy)
        assert loader.best_path(flow) is expected
        assert loader.rng.getstate() == reference_rng.getstate()
        capped_total += capped
    return capped_total


PROBES = st.lists(
    st.tuples(st.integers(0, 63), st.integers(0, 63),
              st.floats(min_value=1.0, max_value=600.0)),
    min_size=1, max_size=12)


class TestBestPathDifferential:
    @settings(max_examples=40, deadline=None)
    @given(topology=st.sampled_from(sorted(TOPOLOGIES)),
           policy=st.sampled_from(BackgroundLoader.PATH_POLICIES),
           cap=st.sampled_from([0.3, 0.6, 0.9]),
           load_seed=st.integers(0, 1000),
           target=st.floats(min_value=0.05, max_value=0.6),
           probes=PROBES)
    def test_matches_per_path_reference(self, topology, policy, cap,
                                        load_seed, target, probes):
        check_best_path(topology, policy, cap, load_seed, target, probes)

    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("policy", BackgroundLoader.PATH_POLICIES)
    def test_flows_that_trip_the_host_cap(self, topology, policy):
        """Demands above the access headroom the cap leaves but below raw
        residual: the cap, not bandwidth, is what rejects the paths."""
        probes = [(i, i + 5, 450.0) for i in range(24)]
        capped = check_best_path(topology, policy, cap=0.4, load_seed=7,
                                 target=0.2, probes=probes)
        assert capped > 0

    def test_network_on_another_graph_is_read_path_by_path(self):
        """The provider's index rows belong to its own graph's link table.
        A network built on an equal graph whose links were added in
        another order numbers them differently: the loader must read it
        through path objects (whose ``table`` mismatch sends the kernel to
        the string-keyed reads), never through the rows."""
        import networkx as nx
        from repro.network.network import Network

        topo = TOPOLOGIES["fat-tree"]
        graph = nx.DiGraph()
        graph.add_nodes_from(topo.graph().nodes(data=True))
        graph.add_edges_from(reversed(list(topo.graph().edges(data=True))))
        network = Network(graph)
        assert network.link_table() is not PROVIDERS["fat-tree"].table
        assert network.link_table().ids != PROVIDERS["fat-tree"].table.ids

        class NoRows(PathProvider):
            def link_rows(self, src, dst):
                raise AssertionError("index rows read against a foreign "
                                     "link table")

        probes = [(i, i + 5, 450.0) for i in range(24)]
        capped = check_best_path("fat-tree", "random", cap=0.4, load_seed=7,
                                 target=0.2, probes=probes, network=network,
                                 provider=NoRows(topo))
        assert capped > 0
        network.check_invariants()

    def test_candidates_with_different_access_links(self):
        """A multi-homed host and a provider handing out plain tuples: the
        cap answer is per access-link pair, not per host pair."""
        import networkx as nx
        from repro.network.network import Network

        graph = nx.DiGraph()
        for node in "ab":
            graph.add_node(node, kind="host")
        for u, v in ("a", "s1"), ("a", "s2"), ("s1", "b"), ("s2", "b"):
            graph.add_edge(u, v, capacity=1000.0)
        network = Network(graph)
        network.place(Flow(flow_id="bg", src="a", dst="b", demand=300.0),
                      ("a", "s1", "b"))

        class TwoPaths:
            def paths(self, src, dst):
                return (("a", "s1", "b"), ("a", "s2", "b"))

        loader = BackgroundLoader(network, TwoPaths(), trace=None,
                                  rng=random.Random(3), host_link_cap=0.5)
        flow = Flow(flow_id="probe", src="a", dst="b", demand=400.0)
        reference_rng = random.Random(3)
        expected, capped = reference_best_path(
            network, TwoPaths(), flow, reference_rng, 0.5, "random")
        assert capped == 1 and expected == ("a", "s2", "b")
        assert loader.best_path(flow) == expected
        assert loader.rng.getstate() == reference_rng.getstate()
