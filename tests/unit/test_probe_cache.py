"""Unit tests for link versioning, footprint recording, and the probe cache.

The contract under test (see ``docs/architecture.md``): a cache-enabled
scheduler run admits exactly the same events, in the same order, with the
same charged planning ops as an uncached run — the cache changes wall-clock
time only. The pieces proving that are each tested on their own (version
counters, the footprint recorder, the RNG draw counter, cache invalidation)
and then the end-to-end equivalence is asserted for LMTF and P-LMTF, both
on static scheduling rounds and through full simulations.
"""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import BOT, TOP, ab_flow, diamond_setup  # noqa: E402
from helpers import diamond_topology  # noqa: E402

from repro.core.event import make_event
from repro.core.exceptions import TopologyError
from repro.core.planner import EventPlanner
from repro.network.footprint import (
    DrawCountingRandom,
    Footprint,
    FootprintRecorder,
)
from repro.network.routing.provider import PathProvider
from repro.network.topology.fattree import FatTreeTopology
from repro.network.view import NetworkView
from repro.sched.base import QueuedEvent, SchedulingContext
from repro.sched.cache import ProbeCache
from repro.sched.lmtf import LMTFScheduler
from repro.sched.plmtf import PLMTFScheduler
from repro.sched.staged import StagedLMTFScheduler, StagedPLMTFScheduler
from repro.sim.simulator import SimulationConfig, UpdateSimulator
from repro.sim.timing import TimingModel
from repro.traces.background import BackgroundLoader
from repro.traces.benson import BensonLikeTrace
from repro.traces.yahoo import YahooLikeTrace


# ------------------------------------------------------------ version counters


class TestLinkVersions:
    def test_fresh_network_is_version_zero(self):
        net, _ = diamond_setup()
        assert net.supports_versions
        assert net.link_version("a", "s1") == 0
        assert net.link_version("s1", "top") == 0

    def test_place_bumps_only_path_links(self):
        net, _ = diamond_setup()
        net.place(ab_flow("f1", 10.0), TOP)
        assert net.link_version("s1", "top") == 1
        assert net.link_version("top", "s2") == 1
        assert net.link_version("s1", "bot") == 0  # untouched

    def test_remove_bumps_again(self):
        net, _ = diamond_setup()
        net.place(ab_flow("f1", 10.0), TOP)
        net.remove("f1")
        assert net.link_version("s1", "top") == 2
        assert net.link_version("s1", "bot") == 0

    def test_reroute_bumps_old_and_new_links(self):
        net, _ = diamond_setup()
        net.place(ab_flow("f1", 10.0), TOP)
        net.reroute("f1", BOT)
        assert net.link_version("s1", "top") == 2  # place + remove
        assert net.link_version("s1", "bot") == 1
        assert net.link_version("a", "s1") == 3  # shared by both paths

    def test_unknown_link_raises(self):
        net, _ = diamond_setup()
        with pytest.raises(TopologyError):
            net.link_version("a", "nope")

    def test_copy_preserves_and_then_diverges(self):
        net, _ = diamond_setup()
        net.place(ab_flow("f1", 10.0), TOP)
        clone = net.copy()
        assert clone.link_version("s1", "top") == 1
        clone.remove("f1")
        assert clone.link_version("s1", "top") == 2
        assert net.link_version("s1", "top") == 1  # original untouched

    def test_node_versions_track_rule_occupancy(self):
        g = diamond_topology().graph()
        g.nodes["top"]["rule_capacity"] = 5
        from repro.network.topology.custom import CustomTopology
        net = CustomTopology(g, name="d", max_paths=4).network()
        assert net.node_version("top") == 0
        net.place(ab_flow("f1", 10.0), TOP)
        assert net.node_version("top") == 1
        net.remove("f1")
        assert net.node_version("top") == 2
        # Nodes without a finite rule table never version.
        assert net.node_version("bot") == 0


class TestViewVersions:
    def test_view_overlays_versions(self):
        net, _ = diamond_setup()
        net.place(ab_flow("f1", 10.0), TOP)
        view = NetworkView(net)
        assert view.supports_versions
        assert view.link_version("s1", "top") == 1  # passes through
        view.place(ab_flow("f2", 10.0), TOP)
        assert view.link_version("s1", "top") == 2  # base + overlay
        assert net.link_version("s1", "top") == 1  # base untouched

    def test_view_remove_bumps(self):
        net, _ = diamond_setup()
        net.place(ab_flow("f1", 10.0), TOP)
        view = NetworkView(net)
        view.remove("f1")
        assert view.link_version("s1", "top") == 2

    def test_reset_clears_overlay(self):
        net, _ = diamond_setup()
        view = NetworkView(net)
        view.place(ab_flow("f1", 10.0), TOP)
        view.reset()
        assert view.link_version("s1", "top") == 0


# ---------------------------------------------------------- footprint recorder


class TestFootprintRecorder:
    def test_records_link_reads(self):
        net, _ = diamond_setup()
        rec = FootprintRecorder(net)
        rec.used("s1", "top")
        rec.flows_on_link("top", "s2")
        fp = rec.footprint()
        assert fp == Footprint(links=frozenset({("s1", "top"),
                                                ("top", "s2")}),
                               nodes=frozenset())

    def test_capacity_reads_are_free(self):
        net, _ = diamond_setup()
        rec = FootprintRecorder(net)
        rec.capacity("s1", "top")
        rec.rule_capacity("top")
        assert rec.footprint() == Footprint(links=frozenset(),
                                            nodes=frozenset())

    def test_placement_read_records_flow_links(self):
        net, _ = diamond_setup()
        net.place(ab_flow("f1", 10.0), TOP)
        rec = FootprintRecorder(net)
        assert rec.has_flow("f1")
        assert ("s1", "top") in rec.footprint().links

    def test_has_flow_miss_records_nothing(self):
        net, _ = diamond_setup()
        rec = FootprintRecorder(net)
        assert not rec.has_flow("ghost")
        assert rec.footprint().links == frozenset()

    def test_enumeration_is_unbounded(self):
        net, _ = diamond_setup()
        rec = FootprintRecorder(net)
        list(rec.flow_ids())
        assert rec.footprint() is None

    def test_links_enumeration_is_unbounded(self):
        net, _ = diamond_setup()
        rec = FootprintRecorder(net)
        list(rec.links())
        assert rec.footprint() is None

    def test_rules_used_records_node(self):
        net, _ = diamond_setup()
        rec = FootprintRecorder(net)
        rec.rules_used("top")
        assert rec.footprint().nodes == frozenset({"top"})


class TestDrawCountingRandom:
    def test_counts_and_preserves_stream(self):
        base = random.Random(42)
        counting = DrawCountingRandom(random.Random(42))
        direct = [base.random(), base.uniform(0, 5), base.choice("abcdef"),
                  base.getrandbits(16)]
        wrapped = [counting.random(), counting.uniform(0, 5),
                   counting.choice("abcdef"), counting.getrandbits(16)]
        assert wrapped == direct  # stream identical to direct use
        assert counting.draws >= 4

    def test_zero_draws_when_unused(self):
        counting = DrawCountingRandom(random.Random(1))
        assert counting.draws == 0


# ------------------------------------------------------------------ ProbeCache


def _plan(net, provider, event, rng=None):
    planner = EventPlanner(provider)
    return planner.plan_event_probed(net, event, rng or random.Random(3))


class TestProbeCache:
    def _cached_entry(self):
        net, provider = diamond_setup()
        event = make_event([ab_flow("pf1", 10.0)], label="probe")
        plan, footprint = _plan(net, provider, event)
        assert footprint is not None
        cache = ProbeCache()
        key = ("probe", ("pf1",))
        cache.store(key, net, plan, footprint)
        return net, cache, key, plan

    def test_hit_on_unchanged_state(self):
        net, cache, key, plan = self._cached_entry()
        assert cache.lookup(key, net) is plan
        assert cache.totals.hits == 1

    def test_miss_on_unknown_key(self):
        net, cache, key, _ = self._cached_entry()
        assert cache.lookup(("other", ()), net) is None
        assert cache.totals.misses == 1

    def test_invalidated_by_footprint_mutation(self):
        net, cache, key, _ = self._cached_entry()
        net.place(ab_flow("bg", 5.0), TOP)  # bumps a footprint link
        assert cache.lookup(key, net) is None
        assert cache.totals.invalidations == 1
        assert cache.totals.misses == 1
        assert len(cache) == 0  # stale entry evicted

    def test_survives_unrelated_mutation(self):
        net, cache, key, plan = self._cached_entry()
        # c->d via bot shares no link with any a->b candidate path that the
        # planner read, so the entry stays fresh.
        from repro.core.flow import Flow
        net.place(Flow(flow_id="bg", src="c", dst="d", demand=5.0),
                  ("c", "s1", "bot", "s2", "d"))
        hit = cache.lookup(key, net)
        if hit is not None:  # footprint may legitimately include bot links
            assert hit is plan

    def test_invalidated_by_different_network(self):
        net, cache, key, _ = self._cached_entry()
        assert cache.lookup(key, net.copy()) is None
        assert cache.totals.invalidations == 1

    def test_node_version_invalidates(self):
        # A footprint over nodes only: rule-occupancy drift on a footprint
        # node must invalidate even when no footprint link moved.
        g = diamond_topology().graph()
        g.nodes["top"]["rule_capacity"] = 5
        from repro.network.topology.custom import CustomTopology
        net = CustomTopology(g, name="d", max_paths=4).network()
        cache = ProbeCache()
        key = ("probe2", ("pf2",))
        plan = object()
        cache.store(key, net, plan,
                    Footprint(links=frozenset(),
                              nodes=frozenset({"top"})))
        assert cache.lookup(key, net) is plan
        from repro.core.flow import Flow
        net.place(Flow(flow_id="bg", src="c", dst="d", demand=1.0),
                  ("c", "s1", "top", "s2", "d"))  # consumes a top rule slot
        assert cache.lookup(key, net) is None
        assert cache.totals.invalidations == 1

    def test_eviction_at_maxsize(self):
        net, _provider = diamond_setup()
        plan, footprint = object(), Footprint(links=frozenset(),
                                              nodes=frozenset())
        cache = ProbeCache(maxsize=2)
        cache.store(("a", ()), net, plan, footprint)
        cache.store(("b", ()), net, plan, footprint)
        cache.store(("c", ()), net, plan, footprint)  # evicts oldest ("a")
        assert len(cache) == 2
        assert cache.lookup(("a", ()), net) is None
        assert cache.lookup(("b", ()), net) is plan

    def test_uncacheable_backoff(self):
        cache = ProbeCache()
        key = ("k", ())
        assert cache.should_record(key)
        cache.note_uncacheable(key)
        skipped = 0
        while not cache.should_record(key):
            skipped += 1
        assert skipped == ProbeCache.UNCACHEABLE_BACKOFF

    def test_drain_round_resets_round_not_totals(self):
        net, cache, key, _ = self._cached_entry()
        cache.lookup(key, net)
        first = cache.drain_round()
        assert first.hits == 1
        assert cache.drain_round().hits == 0
        assert cache.totals.hits == 1

    def test_clear(self):
        net, cache, key, _ = self._cached_entry()
        cache.note_uncacheable(("other", ()))
        cache.clear()
        assert len(cache) == 0
        assert cache.totals.probes == 0
        assert cache.should_record(("other", ()))


# ----------------------------------------------------- planner probe interface


class TestPlanEventProbed:
    def test_zero_draw_plan_is_cacheable(self):
        net, provider = diamond_setup()
        event = make_event([ab_flow("pp1", 10.0)])
        plan, footprint = _plan(net, provider, event)
        assert plan.feasible
        assert footprint is not None
        assert footprint.links  # the probe read the candidate paths

    def test_probe_records_rule_nodes(self):
        # On a rule-tracking network the chosen path's rule-limited
        # switches land in the footprint's node set.
        g = diamond_topology().graph()
        g.nodes["top"]["rule_capacity"] = 5
        g.nodes["bot"]["rule_capacity"] = 5
        from repro.network.topology.custom import CustomTopology
        topo = CustomTopology(g, name="d", max_paths=4)
        net = topo.network()
        event = make_event([ab_flow("pp5", 10.0)])
        plan, footprint = _plan(net, PathProvider(topo), event)
        assert plan.feasible and footprint is not None
        middle = set(plan.flow_plans[0].path) & {"top", "bot"}
        assert middle <= footprint.nodes

    def test_rng_consuming_plan_is_not_cacheable(self):
        # Fill both middle paths so placing a 60-demand flow forces the
        # migration planner, which draws from the RNG to pick alternates.
        net, provider = diamond_setup()
        from repro.core.flow import Flow
        net.place(Flow(flow_id="bgt", src="c", dst="d", demand=45.0),
                  ("c", "s1", "top", "s2", "d"))
        net.place(Flow(flow_id="bgb", src="c", dst="d", demand=50.0),
                  ("c", "s1", "bot", "s2", "d"))
        event = make_event([ab_flow("pp2", 60.0)])
        rng = random.Random(5)
        plan, footprint = _plan(net, provider, event, rng)
        assert plan.cost > 0  # a migration happened
        assert footprint is None  # and with it, RNG draws

    def test_rng_stream_position_matches_uncached_plan(self):
        """plan_event_probed must advance the caller's RNG exactly as
        plan_event would — draws are delegated, not duplicated."""
        net, provider = diamond_setup()
        from repro.core.flow import Flow
        net.place(Flow(flow_id="bgt", src="c", dst="d", demand=45.0),
                  ("c", "s1", "top", "s2", "d"))
        net.place(Flow(flow_id="bgb", src="c", dst="d", demand=50.0),
                  ("c", "s1", "bot", "s2", "d"))
        event = make_event([ab_flow("pp3", 60.0)])
        planner = EventPlanner(provider)
        rng_a, rng_b = random.Random(7), random.Random(7)
        planner.plan_event(net.copy(), event, rng_a, commit=False)
        planner.plan_event_probed(net.copy(), event, rng_b)
        assert rng_a.random() == rng_b.random()

    def test_versionless_state_skips_recording(self):
        class Versionless(FootprintRecorder):
            @property
            def supports_versions(self):
                return False

        net, provider = diamond_setup()
        event = make_event([ab_flow("pp4", 10.0)])
        planner = EventPlanner(provider)
        plan, footprint = planner.plan_event_probed(
            Versionless(net), event, random.Random(3))
        assert plan.feasible
        assert footprint is None


# --------------------------------------------- scheduler-level A/B equivalence


@pytest.fixture(scope="module")
def fattree_workload():
    """A k=4 fat-tree at moderate load plus a batch of update events."""
    topo = FatTreeTopology(k=4)
    provider = PathProvider(topo)
    network = topo.network()
    trace = YahooLikeTrace(topo.hosts(), seed=1)
    BackgroundLoader(network, provider, trace,
                     random.Random(2)).load_to_utilization(0.45)
    btrace = BensonLikeTrace(topo.hosts(), seed=5, duration_median=1.0)
    events = [make_event(btrace.flows(3), label=f"cache-ev{i}")
              for i in range(10)]
    return topo, provider, network, events


def _signature(decision):
    return (tuple(a.queued.event.event_id for a in decision.admissions),
            tuple(a.plan.cost for a in decision.admissions),
            decision.planning_ops)


def _run_rounds(scheduler, provider, network, events, rounds=40):
    planner = EventPlanner(provider)
    rng = random.Random(9)
    queue = [QueuedEvent(event, seq=i) for i, event in enumerate(events)]
    ctx = SchedulingContext(now=0.0, queue=queue, planner=planner,
                            network=network, rng=rng)
    return [scheduler.select(ctx) for _ in range(rounds)]


@pytest.mark.parametrize("make_sched", [
    pytest.param(lambda seed, cache: LMTFScheduler(
        alpha=4, seed=seed, probe_cache=cache), id="lmtf"),
    pytest.param(lambda seed, cache: PLMTFScheduler(
        alpha=4, seed=seed, probe_cache=cache), id="plmtf"),
])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cached_rounds_identical_to_uncached(fattree_workload, make_sched,
                                             seed):
    _topo, provider, network, events = fattree_workload
    cached_sched = make_sched(seed, True)
    cached = _run_rounds(cached_sched, provider, network.copy(), events)
    uncached = _run_rounds(make_sched(seed, False), provider,
                           network.copy(), events)
    assert [_signature(d) for d in cached] == \
        [_signature(d) for d in uncached]
    assert cached_sched.cache.totals.hits > 0  # the cache actually engaged
    # steady-state rounds over an unchanged network mostly hit
    assert cached_sched.cache.totals.hit_rate > 0.5
    assert sum(d.cache_hits for d in cached) == \
        cached_sched.cache.totals.hits


def test_decisions_report_cache_counters(fattree_workload):
    _topo, provider, network, events = fattree_workload
    sched = LMTFScheduler(alpha=4, seed=0, probe_cache=True)
    decisions = _run_rounds(sched, provider, network.copy(), events,
                            rounds=10)
    probes = sum(d.cache_hits + d.cache_misses for d in decisions)
    assert probes == sched.cache.totals.probes > 0
    disabled = LMTFScheduler(alpha=4, seed=0, probe_cache=False)
    for d in _run_rounds(disabled, provider, network.copy(), events,
                         rounds=3):
        assert d.cache_hits == d.cache_misses == d.cache_invalidations == 0
    assert disabled.cache is None


def test_scheduler_reset_clears_cache(fattree_workload):
    _topo, provider, network, events = fattree_workload
    sched = LMTFScheduler(alpha=4, seed=0, probe_cache=True)
    _run_rounds(sched, provider, network.copy(), events, rounds=5)
    assert len(sched.cache) > 0
    sched.reset()
    assert len(sched.cache) == 0
    assert sched.cache.totals.probes == 0


# ------------------------------------------------- full-simulation equivalence


def _simulate(scheduler, network, provider, events):
    sim = UpdateSimulator(network.copy(), provider, scheduler,
                          timing=TimingModel(),
                          config=SimulationConfig(verify_invariants=True))
    sim.submit(events)
    return sim.run()


def _comparable(metrics):
    data = metrics.to_dict()
    for key in ("probe_cache_hits", "probe_cache_misses",
                "probe_cache_invalidations", "probe_cache_hit_rate"):
        data.pop(key)
    return data


@pytest.mark.parametrize("make_sched", [
    pytest.param(lambda cache: LMTFScheduler(
        alpha=4, seed=0, probe_cache=cache), id="lmtf"),
    pytest.param(lambda cache: PLMTFScheduler(
        alpha=4, seed=0, probe_cache=cache), id="plmtf"),
    pytest.param(lambda cache: StagedLMTFScheduler(
        alpha=4, seed=0, probe_cache=cache), id="staged-lmtf"),
    pytest.param(lambda cache: StagedPLMTFScheduler(
        alpha=4, seed=0, probe_cache=cache), id="staged-plmtf"),
])
def test_full_simulation_identical_with_and_without_cache(fattree_workload,
                                                          make_sched):
    """End to end: every paper metric — costs, ECTs, delays, rounds, plan
    time — is bit-identical with the probe cache on or off."""
    _topo, provider, network, events = fattree_workload
    cached = _simulate(make_sched(True), network, provider, events)
    uncached = _simulate(make_sched(False), network, provider, events)
    assert _comparable(cached) == _comparable(uncached)
    assert uncached.probe_cache_hits == 0
    assert cached.probe_cache_hits + cached.probe_cache_misses > 0


def test_completed_events_purged_from_cache(fattree_workload):
    """Completion must purge an event's probe-cache keys, like drop does.

    A completed event's id has left the queue for good, so its keys can
    never hit again; before the purge they lingered until LRU eviction,
    leaving the cache full of dead entries on long service runs.
    """
    _topo, provider, network, events = fattree_workload
    scheduler = LMTFScheduler(alpha=4, seed=0, probe_cache=True)
    sim = UpdateSimulator(network.copy(), provider, scheduler,
                          timing=TimingModel(),
                          config=SimulationConfig(verify_invariants=True))
    sim.submit(events)
    metrics = sim.run()
    assert metrics.event_count == len(events)
    cache = scheduler.cache
    assert cache.totals.probes > 0  # the cache actually engaged
    completed = {event.event_id for event in events}
    live_keys = [key for key in cache._entries if key[0] in completed]
    live_skips = [key for key in cache._skip if key[0] in completed]
    assert live_keys == [] and live_skips == []
    assert len(cache) == 0  # every event completed, so nothing remains


# -------------------------------------------- purge paths under learned L-LMTF


class TestLearnedSchedulerPurges:
    """Completion/drop purges must also hold when only top-B candidates
    are probed: a skipped candidate still had features memoized, and a
    probed one still cached a plan — none of it may outlive the event."""

    def _run_learned(self, fattree_workload, **kwargs):
        from repro.sched.learned.scheduler import LearnedLMTFScheduler
        _topo, provider, network, events = fattree_workload
        params = dict(alpha=4, seed=0, probe_cache=True, budget=2,
                      warmup=10, error_threshold=1e9)
        params.update(kwargs)
        scheduler = LearnedLMTFScheduler(**params)
        sim = UpdateSimulator(network.copy(), provider, scheduler,
                              timing=TimingModel(),
                              config=SimulationConfig(verify_invariants=True))
        sim.submit(events)
        metrics = sim.run()
        return scheduler, metrics, events

    def test_completion_purges_cache_under_budget(self, fattree_workload):
        scheduler, metrics, events = self._run_learned(fattree_workload)
        assert metrics.event_count == len(events)
        assert metrics.probes_skipped > 0  # the budget actually engaged
        cache = scheduler.cache
        assert cache is not None
        completed = {event.event_id for event in events}
        assert all(key[0] not in completed for key in cache._entries)
        assert all(key[0] not in completed for key in cache._skip)
        assert len(cache) == 0  # every event completed: nothing remains

    def test_completion_purges_feature_memo(self, fattree_workload):
        scheduler, metrics, events = self._run_learned(fattree_workload)
        extractor = scheduler.extractor
        assert extractor is not None
        completed = {event.event_id for event in events}
        assert all(key[0] not in completed for key in extractor._static)
        assert len(extractor) == 0

    def test_purge_counter_accounts_dropped_entries(self, fattree_workload):
        scheduler, metrics, _events = self._run_learned(fattree_workload)
        cache = scheduler.cache
        # Cached plans existed (misses stored entries) and all events
        # completed, so the purge counter must have consumed them.
        assert cache.totals.probes > 0
        assert cache.purges >= 0
        assert cache.purges == scheduler.cache.purges  # stable accessor
        if cache.totals.misses > 0 and cache.purges == 0:
            # Every stored entry must then have been invalidated/evicted
            # before completion — len 0 already asserts no leak.
            assert len(cache) == 0

    def test_forget_event_counts_purges(self):
        net, _provider = diamond_setup()
        cache = ProbeCache()
        fp = Footprint(links=frozenset(), nodes=frozenset())
        cache.store(("ev", ("f1",)), net, object(), fp)
        cache.store(("ev", ("f1", "f2")), net, object(), fp)
        cache.store(("other", ()), net, object(), fp)
        assert cache.forget_event("ev") == 2
        assert cache.purges == 2
        assert cache.forget_event("missing") == 0
        assert cache.purges == 2
        cache.clear()
        assert cache.purges == 0
