"""Micro-benchmarks of the hot code paths.

These run with pytest-benchmark's normal statistics (many rounds) since they
are sub-millisecond operations: flow placement, what-if view probing, cost
planning, and Fat-Tree path enumeration. They guard against accidental
complexity regressions in the planner's inner loop — the component every
LMTF round calls α+1 times.
"""

import random

import pytest

from repro.core.event import make_event
from repro.core.flow import Flow, next_flow_id
from repro.core.planner import EventPlanner
from repro.network.routing.provider import PathProvider
from repro.network.topology.fattree import FatTreeTopology
from repro.network.view import NetworkView
from repro.sched.base import QueuedEvent, SchedulingContext
from repro.sched.lmtf import LMTFScheduler
from repro.traces.background import BackgroundLoader
from repro.traces.benson import BensonLikeTrace
from repro.traces.yahoo import YahooLikeTrace


@pytest.fixture(scope="module")
def loaded():
    topo = FatTreeTopology(k=8)
    provider = PathProvider(topo)
    network = topo.network()
    trace = YahooLikeTrace(topo.hosts(), seed=1)
    BackgroundLoader(network, provider, trace,
                     random.Random(2)).load_to_utilization(0.7)
    return topo, provider, network


def test_place_remove_roundtrip(benchmark, loaded):
    topo, provider, network = loaded
    path = provider.paths("h0_0_0", "h7_3_3")[0]

    def place_remove():
        flow = Flow(flow_id=next_flow_id(), src="h0_0_0", dst="h7_3_3",
                    demand=1.0)
        network.place(flow, path)
        network.remove(flow.flow_id)

    benchmark(place_remove)


def test_view_probe_overhead(benchmark, loaded):
    topo, provider, network = loaded
    path = provider.paths("h0_0_0", "h7_3_3")[0]

    def probe():
        view = NetworkView(network)
        flow = Flow(flow_id=next_flow_id(), src="h0_0_0", dst="h7_3_3",
                    demand=1.0)
        view.place(flow, path)
        return view.path_residual(path)

    benchmark(probe)


def test_path_residual(benchmark, loaded):
    topo, provider, network = loaded
    paths = provider.paths("h0_0_0", "h7_3_3")

    def residuals():
        return [network.path_residual(p) for p in paths]

    benchmark(residuals)


def test_fattree_path_enumeration(benchmark):
    topo = FatTreeTopology(k=8)
    topo.graph()  # build outside the timed region

    def enumerate_paths():
        return topo.equal_cost_paths("h0_0_0", "h7_3_3")

    result = benchmark(enumerate_paths)
    assert len(result) == 16


def test_event_cost_probe(benchmark, loaded):
    """One LMTF cost probe: plan a 30-flow event on a throwaway view."""
    topo, provider, network = loaded
    planner = EventPlanner(provider)
    trace = BensonLikeTrace(topo.hosts(), seed=5, duration_median=1.0)
    event = make_event(trace.flows(30))
    rng = random.Random(6)

    def probe():
        return planner.probe_cost(network, event, rng)

    benchmark(probe)


def test_network_copy(benchmark, loaded):
    __, __provider, network = loaded
    benchmark(network.copy)


# --------------------------------------------------------- probe cache


@pytest.fixture(scope="module")
def steady_state():
    """A moderately loaded fat-tree: the probe cache's steady-state regime.

    At ~0.4 utilization most candidate plans are migration-free and hence
    footprint-cacheable; at 0.7 (the ``loaded`` fixture) nearly every plan
    migrates, draws randomness, and is uncacheable by design.
    """
    topo = FatTreeTopology(k=8)
    provider = PathProvider(topo)
    network = topo.network()
    trace = YahooLikeTrace(topo.hosts(), seed=1)
    BackgroundLoader(network, provider, trace,
                     random.Random(2)).load_to_utilization(0.4)
    btrace = BensonLikeTrace(topo.hosts(), seed=5, duration_median=1.0)
    events = [make_event(btrace.flows(5), label=f"probe{i}")
              for i in range(16)]
    return provider, network, events


def _lmtf_rounds(provider, network, events, cache, rounds=60):
    """Run ``rounds`` LMTF scheduling rounds; return (decisions, scheduler).

    ``select`` never mutates the network, so every round probes the same
    state — the cache's best case, and exactly the work profile of the
    steady-state rounds between admissions in a full simulation.
    """
    scheduler = LMTFScheduler(alpha=4, seed=3, probe_cache=cache)
    planner = EventPlanner(provider)
    rng = random.Random(7)
    queue = [QueuedEvent(event, seq=i) for i, event in enumerate(events)]
    ctx = SchedulingContext(now=0.0, queue=queue, planner=planner,
                            network=network, rng=rng)
    decisions = [scheduler.select(ctx) for _ in range(rounds)]
    return decisions, scheduler


def _admission_signature(decisions):
    return [(tuple(a.queued.event.event_id for a in d.admissions),
             d.planning_ops) for d in decisions]


def test_lmtf_probe_rounds_cached(benchmark, steady_state):
    """Steady-state LMTF rounds with the footprint cache on.

    Asserts the cache's contract on top of timing it: admissions and
    charged planning ops are identical to the uncached runs (see the
    companion benchmark below), and the hit rate clears 50%.
    """
    provider, network, events = steady_state
    decisions, scheduler = benchmark(
        lambda: _lmtf_rounds(provider, network, events, cache=True))
    baseline, _ = _lmtf_rounds(provider, network, events, cache=False)
    assert _admission_signature(decisions) == _admission_signature(baseline)
    stats = scheduler.cache.totals
    benchmark.extra_info["hit_rate"] = round(stats.hit_rate, 3)
    benchmark.extra_info["hits"] = stats.hits
    benchmark.extra_info["misses"] = stats.misses
    assert stats.hit_rate > 0.5


def test_lmtf_probe_rounds_uncached(benchmark, steady_state):
    """The same rounds with the cache off — the wall-clock baseline."""
    provider, network, events = steady_state
    benchmark(lambda: _lmtf_rounds(provider, network, events, cache=False))


# ----------------------------------------------------- learned ranking


def _llmtf_rounds(provider, network, events, rounds=60):
    """Confident L-LMTF rounds: only ``budget`` of α+1 candidates probed."""
    from repro.sched.learned.scheduler import LearnedLMTFScheduler

    scheduler = LearnedLMTFScheduler(alpha=4, seed=3, probe_cache=True,
                                     budget=2, warmup=0,
                                     error_threshold=1e9)
    planner = EventPlanner(provider)
    rng = random.Random(7)
    queue = [QueuedEvent(event, seq=i) for i, event in enumerate(events)]
    ctx = SchedulingContext(now=0.0, queue=queue, planner=planner,
                            network=network, rng=rng)
    decisions = [scheduler.select(ctx) for _ in range(rounds)]
    return decisions, scheduler


def test_llmtf_probe_rounds(benchmark, steady_state):
    """Steady-state L-LMTF rounds (the companion to the LMTF rounds
    above): the learned shortlist trims probe work to the budget, so the
    per-round cost should sit well under the uncached exact baseline."""
    provider, network, events = steady_state
    decisions, scheduler = benchmark(
        lambda: _llmtf_rounds(provider, network, events))
    skipped = sum(d.probes_skipped for d in decisions)
    benchmark.extra_info["probes_skipped"] = skipped
    benchmark.extra_info["fallback_rounds"] = sum(
        int(d.fallback) for d in decisions)
    assert skipped > 0  # the budget actually trimmed the probe loop
    assert all(d.admissions for d in decisions)


def test_feature_extract(benchmark, loaded):
    """One feature extraction must cost <2% of the exact cost probe it
    stands in for — the overhead budget the learned ranking adds to the
    serial path. Measured on the gate benchmark's workload (a 30-flow
    event on the 70%-loaded fabric, see ``test_event_cost_probe``)."""
    import time as _time

    from repro.sched.learned.features import FeatureExtractor

    topo, provider, network = loaded
    planner = EventPlanner(provider)
    extractor = FeatureExtractor(planner)
    trace = BensonLikeTrace(topo.hosts(), seed=5, duration_median=1.0)
    event = make_event(trace.flows(30))
    queued = QueuedEvent(event, seq=0)
    benchmark(lambda: extractor.extract(queued, network))

    # Ratio measured directly (not via benchmark.stats) so the assertion
    # also runs under --benchmark-disable in the CI smoke.
    reps = 50
    t0 = _time.perf_counter()
    for _ in range(reps):
        extractor.extract(queued, network)
    extract_s = (_time.perf_counter() - t0) / reps
    rng = random.Random(6)
    reps = 20
    t0 = _time.perf_counter()
    for _ in range(reps):
        planner.probe_cost(network, event, rng)
    probe_s = (_time.perf_counter() - t0) / reps
    ratio = extract_s / probe_s
    benchmark.extra_info["probe_ratio"] = round(ratio, 5)
    assert ratio < 0.02
