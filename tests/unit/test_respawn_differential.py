"""Churn respawns against a verbatim copy of the respawn they replaced.

The RNG draw sequence of a respawn is the spec every schedule pin sits on:
the same ``Random`` calls, in the same order, with the same values, and
the same path chosen from them. The reference below is the respawn as it
stood before the fast path: ``hash_endpoints``,
``TraceGenerator.sample_endpoints``/``sample_flow``,
``YahooLikeTrace.sample_demand``/``sample_duration`` and
``BackgroundLoader.best_path``/``_feasible_rows`` (with the
``Network.row_residuals`` loop it read) copied verbatim, reading the
network only through its public index accessors.

Production and reference run in lockstep on two copies of one loaded
network, with equal RNG states. After every respawn the endpoints, demand,
duration, size, flow id, the chosen path (nodes and ``link_idx``) and both
RNG states must be equal; so must every placement a
``load_to_utilization`` makes, and the path chosen for demands placed
exactly on a link's feasibility or host-cap edge, which random draws
almost never hit.
"""

from __future__ import annotations

import abc
import hashlib
import math
import random
from typing import Sequence, TypeVar

import pytest

from repro.core.exceptions import InsufficientBandwidthError
from repro.core.flow import (
    Flow,
    FlowKind,
    flow_id_state,
    next_flow_id,
    set_flow_id_state,
)
from repro.network.failures import FailureInjector
from repro.network.link import EPS
from repro.network.routing.provider import PathProvider
from repro.network.topology.fattree import FatTreeTopology
from repro.traces.background import BackgroundLoader
from repro.traces.yahoo import YahooLikeTrace

_T = TypeVar("_T")

# ---------------------------------------------------------------------------
# The reference: today's respawn, copied verbatim
# ---------------------------------------------------------------------------


def lognormal(rng: random.Random, median: float, sigma: float) -> float:
    """Sample a log-normal with the given *median* (not mean) and shape."""
    return median * math.exp(sigma * rng.gauss(0.0, 1.0))


def pareto(rng: random.Random, xm: float, alpha: float) -> float:
    """Sample a Pareto with scale ``xm`` and shape ``alpha``."""
    u = rng.random()
    # Clamp to avoid division by zero on the (measure-zero) u == 0 draw.
    u = max(u, 1e-12)
    return xm / u ** (1.0 / alpha)


def clamp(value: float, low: float, high: float) -> float:
    """Clamp ``value`` into ``[low, high]``."""
    return max(low, min(high, value))


def hash_endpoints(hosts: Sequence[str], src_key: str,
                   dst_key: str) -> tuple[str, str]:
    if len(hosts) < 2:
        raise ValueError("need at least two hosts to place a flow")

    def bucket(key: str) -> int:
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") % len(hosts)

    si = bucket(src_key)
    di = bucket(dst_key)
    if si == di:
        di = (di + 1) % len(hosts)
    return hosts[si], hosts[di]


class TraceGenerator(abc.ABC):
    name: str = "trace"

    def __init__(self, hosts: Sequence[str], seed: int = 0,
                 endpoint_skew: float = 0.0):
        if len(hosts) < 2:
            raise ValueError("a trace needs at least two hosts")
        if endpoint_skew < 0:
            raise ValueError("endpoint_skew must be >= 0")
        self._hosts = list(hosts)
        self._rng = random.Random(seed)
        self._serial = 0
        self.endpoint_skew = endpoint_skew
        if endpoint_skew > 0:
            ranked = list(self._hosts)
            self._rng.shuffle(ranked)
            weights = [1.0 / (rank + 1) ** endpoint_skew
                       for rank in range(len(ranked))]
            total = sum(weights)
            self._skewed_hosts = ranked
            self._skew_weights = [w / total for w in weights]
        else:
            self._skewed_hosts = None
            self._skew_weights = None

    @property
    def rng(self) -> random.Random:
        return self._rng

    @abc.abstractmethod
    def sample_demand(self) -> float:
        """Draw a flow bandwidth demand in Mbit/s."""

    @abc.abstractmethod
    def sample_duration(self) -> float:
        """Draw a flow duration in seconds."""

    def sample_endpoints(self) -> tuple[str, str]:
        self._serial += 1
        if self._skewed_hosts is not None:
            src, dst = self._rng.choices(self._skewed_hosts,
                                         weights=self._skew_weights, k=2)
            while dst == src:
                dst = self._rng.choices(self._skewed_hosts,
                                        weights=self._skew_weights, k=1)[0]
            return src, dst
        src_key = f"{self.name}-src-{self._rng.randrange(2 ** 32)}"
        dst_key = f"{self.name}-dst-{self._rng.randrange(2 ** 32)}"
        return hash_endpoints(self._hosts, src_key, dst_key)

    def sample_flow(self, kind: FlowKind = FlowKind.BACKGROUND,
                    permanent: bool = False) -> Flow:
        src, dst = self.sample_endpoints()
        demand = self.sample_demand()
        duration = None if permanent else self.sample_duration()
        size = demand * duration if duration is not None else 0.0
        return Flow(flow_id=next_flow_id(), src=src, dst=dst, demand=demand,
                    size=size, duration=duration, kind=kind)


class ReferenceYahooTrace(TraceGenerator):
    name = "yahoo-like"

    def __init__(self, hosts: Sequence[str], seed: int = 0,
                 demand_median: float = 15.0, demand_sigma: float = 0.8,
                 elephant_prob: float = 0.08, elephant_scale: float = 60.0,
                 elephant_alpha: float = 1.5, demand_min: float = 1.0,
                 demand_max: float = 200.0, duration_median: float = 8.0,
                 duration_sigma: float = 1.0, endpoint_skew: float = 0.0):
        super().__init__(hosts, seed, endpoint_skew=endpoint_skew)
        self.demand_median = demand_median
        self.demand_sigma = demand_sigma
        self.elephant_prob = elephant_prob
        self.elephant_scale = elephant_scale
        self.elephant_alpha = elephant_alpha
        self.demand_min = demand_min
        self.demand_max = demand_max
        self.duration_median = duration_median
        self.duration_sigma = duration_sigma

    def sample_demand(self) -> float:
        if self.rng.random() < self.elephant_prob:
            demand = pareto(self.rng, self.elephant_scale,
                            self.elephant_alpha)
        else:
            demand = lognormal(self.rng, self.demand_median,
                               self.demand_sigma)
        return clamp(demand, self.demand_min, self.demand_max)

    def sample_duration(self) -> float:
        return max(0.05, lognormal(self.rng, self.duration_median,
                                   self.duration_sigma))


def row_residuals(network, rows):
    """``Network.row_residuals`` over the public index accessors."""
    inf = float("inf")
    residuals = []
    for row in rows:
        best = inf
        for i in row:
            res = network.capacity_idx(i) - network.used_idx(i)
            if res < best:
                best = res
        residuals.append(best)
    return residuals


class ReferenceLoader:
    """``BackgroundLoader``'s path choice for templated pairs."""

    def __init__(self, network, provider, rng, host_link_cap=0.9,
                 path_policy="random"):
        self._network = network
        self._provider = provider
        self._rng = rng
        self._host_link_cap = host_link_cap
        self._path_policy = path_policy
        self._link_rows = provider.link_rows

    @property
    def rng(self) -> random.Random:
        return self._rng

    def best_path(self, flow: Flow) -> tuple[str, ...] | None:
        rows = (self._link_rows(flow.src, flow.dst)
                if self._link_rows is not None else None)
        if rows is None:
            return self._choose(self._feasible_paths(flow))
        chosen = self._choose(self._feasible_rows(flow.demand, *rows))
        if chosen is None:
            return None
        return self._provider.candidate(flow.src, flow.dst, chosen)

    def _choose(self, feasible: list[tuple[float, _T]]) -> _T | None:
        if not feasible:
            return None
        if self._path_policy == "random":
            return self._rng.choice(feasible)[1]
        best_residual = max(r for r, __ in feasible)
        choices = [c for r, c in feasible if r >= best_residual - EPS]
        return self._rng.choice(choices)

    def _feasible_rows(self, demand: float, up: int, down: int,
                       rows: tuple[tuple[int, ...], ...]
                       ) -> list[tuple[float, int]]:
        network, limit = self._network, self._host_link_cap
        cap_up, used_up = network.capacity_idx(up), network.used_idx(up)
        cap_down = network.capacity_idx(down)
        used_down = network.used_idx(down)
        access = min(cap_up - used_up, cap_down - used_down)
        if (access + EPS < demand or used_up + demand > limit * cap_up
                or used_down + demand > limit * cap_down):
            return []
        feasible = []
        for i, middle in enumerate(row_residuals(network, rows)):
            residual = middle if middle < access else access
            if residual + EPS < demand:
                continue
            feasible.append((residual, i))
        return feasible

    def _feasible_paths(self, flow):
        raise AssertionError("every fat-tree host pair is templated")


# ---------------------------------------------------------------------------
# Lockstep driver
# ---------------------------------------------------------------------------

TOPOLOGIES = {4: FatTreeTopology(k=4), 8: FatTreeTopology(k=8)}
PROVIDERS = {k: PathProvider(topo) for k, topo in TOPOLOGIES.items()}
LOADED: dict[int, object] = {}
RESPAWNS = 2000  # per case; eight cases


def loaded_network(k):
    """One network per fabric, loaded to 70 % with finite flows (the
    churn regime); cases work on copies."""
    if k not in LOADED:
        topo = TOPOLOGIES[k]
        network = topo.network()
        BackgroundLoader(network, PROVIDERS[k],
                         YahooLikeTrace(topo.hosts(), seed=k),
                         random.Random(k + 100)).load_to_utilization(
            0.7, permanent=False)
        LOADED[k] = network
    return LOADED[k].copy()


def flow_fields(flow):
    return (flow.flow_id, flow.src, flow.dst, flow.demand, flow.duration,
            flow.size, flow.kind)


def sample_both(ours, theirs, **kwargs):
    """Draw one flow from each side with the flow-id counter at the same
    point; both must draw the same flow and consume the same ids."""
    start = flow_id_state()
    flow = ours.sample_flow(**kwargs)
    after = flow_id_state()
    set_flow_id_state(start)
    expected = theirs.sample_flow(**kwargs)
    assert flow_id_state() == after
    assert flow_fields(flow) == flow_fields(expected)
    assert ours.rng.getstate() == theirs.rng.getstate()
    return flow, expected


def choose_both(loader, reference, flow, expected):
    path = loader.best_path(flow)
    expected_path = reference.best_path(expected)
    if expected_path is None:
        assert path is None
    else:
        assert tuple(path) == tuple(expected_path)
        assert path.link_idx == expected_path.link_idx
    assert loader.rng.getstate() == reference.rng.getstate()
    return path, expected_path


def place_both(network, flow, path, ref_network, expected, expected_path):
    """Place on both copies; a refusal must be the same on both."""
    try:
        network.place(flow, path)
    except InsufficientBandwidthError:
        with pytest.raises(InsufficientBandwidthError):
            ref_network.place(expected, expected_path)
        return False
    ref_network.place(expected, expected_path)
    return True


class TestRespawnDifferential:
    @pytest.mark.parametrize("k", [4, 8])
    @pytest.mark.parametrize("policy", BackgroundLoader.PATH_POLICIES)
    @pytest.mark.parametrize("fault", [False, True])
    def test_respawns_match_reference(self, k, policy, fault):
        topo, provider = TOPOLOGIES[k], PROVIDERS[k]
        network, ref_network = loaded_network(k), loaded_network(k)
        if fault:
            # A zero-capacity core link: every candidate across it must
            # be infeasible on both sides alike.
            core = next(n for n in topo.switches() if n.startswith("c"))
            aggr = next(iter(topo.graph().successors(core)))
            for net in network, ref_network:
                FailureInjector(net).fail_link(aggr, core)
        seed = 1000 * k + 7
        trace = YahooLikeTrace(topo.hosts(), seed=seed)
        ref_trace = ReferenceYahooTrace(topo.hosts(), seed=seed)
        loader = BackgroundLoader(network, provider, trace,
                                  random.Random(seed + 1),
                                  path_policy=policy)
        reference = ReferenceLoader(ref_network, provider,
                                    random.Random(seed + 1),
                                    path_policy=policy)
        assert trace.rng.getstate() == ref_trace.rng.getstate()

        picker = random.Random(seed + 2)
        live = sorted(network.flow_ids(), key=lambda f: int(f[1:]))
        placed = rejected = 0
        for __ in range(RESPAWNS):
            # A finished background flow leaves both copies...
            i = picker.randrange(len(live))
            victim = live[i]
            live[i] = live[-1]
            live.pop()
            network.remove(victim)
            ref_network.remove(victim)
            # ...and its replacement is drawn and placed on both.
            flow, expected = sample_both(trace, ref_trace,
                                         kind=FlowKind.BACKGROUND,
                                         permanent=False)
            path, expected_path = choose_both(loader, reference, flow,
                                              expected)
            if path is None:
                rejected += 1
                continue
            if place_both(network, flow, path, ref_network, expected,
                          expected_path):
                live.append(flow.flow_id)
                placed += 1
        assert placed > RESPAWNS // 2
        links = range(len(network.link_table()))
        assert [network.used_idx(i) for i in links] \
            == [ref_network.used_idx(i) for i in links]
        network.check_invariants()

    def test_skewed_endpoints_match_reference(self):
        topo = TOPOLOGIES[4]
        trace = YahooLikeTrace(topo.hosts(), seed=5, endpoint_skew=1.2)
        ref_trace = ReferenceYahooTrace(topo.hosts(), seed=5,
                                        endpoint_skew=1.2)
        for __ in range(500):
            sample_both(trace, ref_trace, permanent=True)


class TestFeasibilityBoundary:
    @pytest.mark.parametrize("policy", BackgroundLoader.PATH_POLICIES)
    def test_demands_at_a_links_residual(self, policy):
        """Demands at exactly ``residual + EPS`` of a candidate's link, and
        one ulp either side: the feasibility and host-cap comparisons must
        agree with the reference's bit for bit, where a rearranged test
        (``residual >= demand - EPS``, say) rounds differently."""
        topo, provider = TOPOLOGIES[8], PROVIDERS[8]
        network = loaded_network(8)
        loader = BackgroundLoader(network, provider, None, random.Random(3),
                                  path_policy=policy)
        reference = ReferenceLoader(network, provider, random.Random(3),
                                    path_policy=policy)
        hosts = topo.hosts()
        probes = 0
        for n in range(0, 400, 2):
            src, dst = hosts[n % len(hosts)], hosts[(7 * n + 5) % len(hosts)]
            if src == dst:
                continue
            up, down, rows = provider.link_rows(src, dst)
            links = {up, down, *(i for row in rows[:3] for i in row)}
            for i in sorted(links):
                cap, used = network.capacity_idx(i), network.used_idx(i)
                for edge in (cap - used + EPS, 0.9 * cap - used):
                    for demand in (edge, math.nextafter(edge, math.inf),
                                   math.nextafter(edge, -math.inf)):
                        if demand <= 0:
                            continue
                        flow = Flow(flow_id="probe", src=src, dst=dst,
                                    demand=demand)
                        reference.rng.setstate(loader.rng.getstate())
                        choose_both(loader, reference, flow, flow)
                        probes += 1
        assert probes > 3000


class TestLoadDifferential:
    @pytest.mark.parametrize("policy", BackgroundLoader.PATH_POLICIES)
    def test_load_to_utilization_matches_reference(self, policy):
        """``load_to_utilization``'s placements, driven by the reference
        respawn through the stop rule the loader documents: the mean
        switch-link utilization, asked after every placed flow."""
        topo, provider = TOPOLOGIES[4], PROVIDERS[4]
        network, ref_network = topo.network(), topo.network()
        trace = YahooLikeTrace(topo.hosts(), seed=11)
        ref_trace = ReferenceYahooTrace(topo.hosts(), seed=11)
        loader = BackgroundLoader(network, provider, trace,
                                  random.Random(12), path_policy=policy)
        reference = ReferenceLoader(ref_network, provider, random.Random(12),
                                    path_policy=policy)
        start = flow_id_state()
        report = loader.load_to_utilization(0.7, permanent=False)
        after = flow_id_state()
        set_flow_id_state(start)
        expected, rejected = [], 0
        while ref_network.average_utilization() < 0.7:
            flow = ref_trace.sample_flow(kind=FlowKind.BACKGROUND,
                                         permanent=False)
            path = reference.best_path(flow)
            if path is None:
                rejected += 1
                continue
            ref_network.place(flow, path)
            expected.append((flow_fields(flow), tuple(path), path.link_idx))
        assert flow_id_state() == after
        assert report.rejected == rejected
        assert [(flow_fields(f), tuple(network.placement(f.flow_id).path),
                 network.placement(f.flow_id).path.link_idx)
                for f in report.placed] == expected
        assert trace.rng.getstate() == ref_trace.rng.getstate()
        assert loader.rng.getstate() == reference.rng.getstate()
