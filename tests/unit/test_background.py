"""Unit tests for the background-traffic loader."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import InsufficientBandwidthError
from repro.core.flow import Flow, FlowKind
from repro.network.link import EPS
from repro.network.network import Network
from repro.network.routing.provider import PathProvider
from repro.network.topology.fattree import FatTreeTopology
from repro.network.topology.jellyfish import JellyfishTopology
from repro.network.topology.leafspine import LeafSpineTopology
from repro.traces.background import BackgroundLoader, LoadReport
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


def flow_keys(report):
    return [(f.src, f.dst, f.demand) for f in report.placed]


class TestLoading:
    def test_reaches_target_utilization(self, topo, provider):
        net, loader = make_loader(topo, provider)
        report = loader.load_to_utilization(0.4)
        assert report.utilization >= 0.4
        assert report.utilization == net.average_utilization()
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
        # Flow ids come from process-global counters and differ; the flows
        # themselves do not.
        assert r1.placed != []
        assert flow_keys(r1) == flow_keys(r2)
        assert r1.rejected == r2.rejected
        assert r1.utilization == r2.utilization

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


def foreign_network(topo):
    """A network on a graph equal to ``topo``'s whose links were added in
    reverse order, so its link table numbers them differently."""
    graph = nx.DiGraph()
    graph.add_nodes_from(topo.graph().nodes(data=True))
    graph.add_edges_from(reversed(list(topo.graph().edges(data=True))))
    return Network(graph)


class NoRows(PathProvider):
    def template(self, src, dst):
        raise AssertionError("index rows read against a foreign link table")


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
        topo = TOPOLOGIES["fat-tree"]
        network = foreign_network(topo)
        assert network.link_table() is not PROVIDERS["fat-tree"].table
        assert network.link_table().ids != PROVIDERS["fat-tree"].table.ids

        probes = [(i, i + 5, 450.0) for i in range(24)]
        capped = check_best_path("fat-tree", "random", cap=0.4, load_seed=7,
                                 target=0.2, probes=probes, network=network,
                                 provider=NoRows(topo))
        assert capped > 0
        network.check_invariants()

    def test_candidates_with_different_access_links(self):
        """A multi-homed host and a provider handing out plain tuples: the
        cap answer is per access-link pair, not per host pair."""
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


# ---------------------------------------------------------------------------
# load_to_utilization against the loop it replaced
# ---------------------------------------------------------------------------

def reference_load(loader, network, trace, target, permanent=True,
                   max_rejects=2000, max_flows=100000):
    """``load_to_utilization`` as it stood before the stop test kept its
    per-link terms: ``average_utilization()`` re-run before every sample,
    placed or rejected."""
    placed = []
    rejected = 0
    consecutive_rejects = 0
    while (len(placed) < max_flows
           and network.average_utilization() < target):
        flow = trace.sample_flow(kind=FlowKind.BACKGROUND,
                                 permanent=permanent)
        path = loader.best_path(flow)
        if path is None:
            rejected += 1
            consecutive_rejects += 1
            if consecutive_rejects >= max_rejects:
                break
            continue
        try:
            network.place(flow, path)
        except InsufficientBandwidthError:
            rejected += 1
            consecutive_rejects += 1
            if consecutive_rejects >= max_rejects:
                break
            continue
        consecutive_rejects = 0
        placed.append(flow)
    return LoadReport(placed=placed, rejected=rejected,
                      utilization=network.average_utilization())


def load_outcome(topology, target, policy, permanent, reference,
                 make_network=None, provider=None, seed=3):
    """Load a fresh network with the loader or the reference loop and
    return everything the loop decides: the report, the final ``used``
    column, the placement paths and the loader's RNG state."""
    topo = TOPOLOGIES[topology]
    network = make_network() if make_network else topo.network()
    trace = YahooLikeTrace(topo.hosts(), seed=seed)
    loader = BackgroundLoader(network, provider or PROVIDERS[topology],
                              trace, random.Random(seed + 10),
                              path_policy=policy)
    if reference:
        report = reference_load(loader, network, trace, target, permanent)
    else:
        report = loader.load_to_utilization(target, permanent)
    return (flow_keys(report), report.rejected, report.utilization,
            list(network.used_col()),
            [tuple(network.placement(f.flow_id).path) for f in report.placed],
            loader.rng.getstate())


def assert_same_load(*args, **kwargs):
    ours = load_outcome(*args, reference=False, **kwargs)
    assert ours == load_outcome(*args, reference=True, **kwargs)
    return ours


LOAD_CASES = [
    (topology, target)
    for topology in ("fat-tree", "leaf-spine", "jellyfish")
    for target in (0.3, 0.7, 0.9)
] + [("fat-tree-8", 0.7)]


class TestLoadDifferential:
    """The loader's stop decision, placements and RNG stream equal the
    re-scanning loop's, down to the last bit of ``utilization``."""

    @pytest.mark.parametrize("topology,target", LOAD_CASES)
    @pytest.mark.parametrize("policy", BackgroundLoader.PATH_POLICIES)
    @pytest.mark.parametrize("permanent", [True, False])
    def test_matches_rescanning_loop(self, topology, target, policy,
                                     permanent):
        keys, *__ = assert_same_load(topology, target, policy, permanent)
        assert keys

    def test_rule_limited_network(self):
        """Full rule tables refuse placements ``best_path`` found: the
        ``RuleSpaceError`` branch must leave the terms as it found them."""
        topo = TOPOLOGIES["fat-tree"]
        keys, rejected, utilization, *__ = assert_same_load(
            "fat-tree", 0.5, "random", True,
            make_network=lambda: topo.network(default_rule_capacity=40))
        # The tables, not bandwidth, end the load well short of the target.
        assert keys and rejected > 0 and utilization < 0.4

    def test_network_on_another_graph(self):
        topo = TOPOLOGIES["fat-tree"]
        keys, *__ = assert_same_load(
            "fat-tree", 0.7, "random", True,
            make_network=lambda: foreign_network(topo),
            provider=NoRows(topo))
        assert keys


def test_load_scans_the_fabric_at_most_twice(monkeypatch):
    """However many samples are placed or rejected, one call reads every
    switch link at most twice: the term list it starts from and the
    report's exact utilization."""
    scans = []
    terms = Network._switch_terms

    def counting(self, idx):
        result = terms(self, idx)
        if len(result) == len(self.switch_links()):
            scans.append(len(result))
        return result

    monkeypatch.setattr(Network, "_switch_terms", counting)
    net, loader = make_loader(FatTreeTopology(k=4), PROVIDERS["fat-tree"])
    report = loader.load_to_utilization(0.9)
    assert len(report.placed) > 100 and report.rejected > 5000
    assert len(scans) <= 2
