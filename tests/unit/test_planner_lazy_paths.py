"""The planner builds a host pair's full candidate tuple only when a flow's
desired path fails even with migration.

A guard on what it asks the provider for, and a differential against a
reference planner that reads every flow's candidates from ``paths()``
first and picks the desired one out of them.
"""

import functools
import random
import sys
from pathlib import Path
from typing import Sequence

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import network_columns  # noqa: E402

from repro.core.event import make_event
from repro.core.exceptions import InsufficientBandwidthError
from repro.core.flow import Flow
from repro.core.migration import MigrationConfig
from repro.core.plan import FlowPlan
from repro.core.planner import EventPlanner, PlannerConfig
from repro.experiments.runner import hermetic_ids
from repro.network.routing.candidate import CandidatePath
from repro.network.routing.provider import PathProvider
from repro.network.topology.fattree import FatTreeTopology
from repro.traces.background import BackgroundLoader
from repro.traces.events import EventGenerator, EventGeneratorConfig
from repro.traces.yahoo import YahooLikeTrace


class PathsFirstPlanner(EventPlanner):
    """Reference: every flow's candidates come from ``paths()`` before the
    desired one is picked out of them."""

    def _plan_flow(self, state, flow, protected, rng):
        paths: Sequence[CandidatePath] = \
            self._provider.paths(flow.src, flow.dst)
        ops = 0
        if self._config.path_selection == "desired":
            desired = self.desired_path(flow, paths)
            ops += 1
            if state.path_feasible(desired, flow.demand):
                try:
                    state.place(flow, desired)
                except InsufficientBandwidthError:
                    pass
                else:
                    return FlowPlan(flow=flow, path=desired), ops
            if self._config.allow_migration:
                plan, mig_ops = self._try_migration(state, flow, desired,
                                                    protected, rng)
                ops += mig_ops
                if plan is not None:
                    return plan, ops
            else:
                return None, ops
            paths = [p for p in paths if p is not desired]

        ops += len(paths)
        remaining = list(paths)
        while remaining:
            chosen = self._select_feasible_path(state, flow, remaining, rng)
            if chosen is None:
                break
            try:
                state.place(flow, chosen)
            except InsufficientBandwidthError:
                remaining.remove(chosen)
                continue
            return FlowPlan(flow=flow, path=chosen), ops
        if not self._config.allow_migration:
            return None, ops
        ranked = sorted(paths,
                        key=lambda p: (self._deficit(state, p, flow.demand),
                                       rng.random()))
        for path in ranked[:self._config.max_migration_paths]:
            plan, mig_ops = self._try_migration(state, flow, path,
                                                protected, rng)
            ops += mig_ops
            if plan is not None:
                return plan, ops
        return None, ops


def count_paths_calls(monkeypatch, provider):
    """The list every ``provider.paths`` call from here on is appended to."""
    calls = []
    original = provider.paths
    monkeypatch.setattr(provider, "paths",
                        lambda s, d: calls.append((s, d)) or original(s, d))
    return calls


def plan_summary(plan):
    """Everything a plan decides, as plain values."""
    return (plan.feasible,
            [f.flow_id for f in plan.blocked],
            [(fp.flow.flow_id, tuple(fp.path),
              [(m.flow.flow_id, tuple(m.old_path), tuple(m.new_path))
               for m in fp.migrations])
             for fp in plan.flow_plans],
            plan.planning_ops)


K8 = FatTreeTopology(k=8)


class TestDesiredPathsOnly:
    """k=8, lightly loaded: a fitting desired path is all a flow reads."""

    @pytest.fixture()
    def loaded(self):
        provider = PathProvider(K8)
        network = K8.network()
        trace = YahooLikeTrace(K8.hosts(), seed=1)
        BackgroundLoader(network, provider, trace,
                         random.Random(2)).load_to_utilization(0.2)
        return network, provider

    def event(self, pairs, demand=5.0):
        return make_event([Flow(flow_id=f"u{i}", src=s, dst=d,
                                demand=demand, duration=1.0)
                           for i, (s, d) in enumerate(pairs)])

    def test_fitting_event_builds_no_tuple(self, loaded, monkeypatch):
        network, provider = loaded
        hosts = K8.hosts()
        rng = random.Random(7)
        pairs = [tuple(rng.sample(hosts, 2)) for __ in range(40)]
        calls = count_paths_calls(monkeypatch, provider)
        assert provider.cache_size() == 0
        plan = EventPlanner(provider).plan_event(network, self.event(pairs),
                                                 random.Random(0),
                                                 commit=True)
        assert plan.feasible and plan.cost == 0.0
        assert calls == []
        assert provider.cache_size() == 0
        for fp in plan.flow_plans:
            reference = PathProvider(K8).paths(fp.flow.src, fp.flow.dst)
            assert fp.path == EventPlanner.desired_path(fp.flow, reference)

    def test_blocked_desired_path_builds_its_pair_only(self, loaded,
                                                       monkeypatch):
        network, provider = loaded
        # One flow across pods 0 and 1; the others stay inside pods 2-7,
        # so they never touch its middle links.
        others = [h for h in K8.hosts() if not h.startswith(("h0_", "h1_"))]
        rng = random.Random(3)
        pairs = [("h0_0_0", "h1_0_0")]
        pairs += [tuple(rng.sample(others, 2)) for __ in range(39)]
        event = self.event(pairs)
        first = event.flows[0]
        index = EventPlanner.desired_index(
            first, provider.candidate_count(first.src, first.dst))
        # A flow under the same switch pair fills the desired path's
        # middle, and every flow there is protected: migration cannot
        # move any of them, and the alternates have room.
        path = provider.candidate("h0_0_1", "h1_0_1", index)
        network.place(Flow(flow_id="blocker", src="h0_0_1", dst="h1_0_1",
                           demand=network.path_residual(path[1:-1]) - 1.0),
                      path)
        pinned = frozenset().union(*(network.flows_on_link(u, v)
                                     for u, v in zip(path[1:-2], path[2:-1])))
        calls = count_paths_calls(monkeypatch, provider)
        plan = EventPlanner(provider).plan_event(
            network, event, random.Random(0), commit=True,
            extra_protected=pinned)
        assert plan.feasible and plan.cost == 0.0
        assert calls == [("h0_0_0", "h1_0_0")]
        assert provider.cache_size() == 1
        placed = plan.flow_plans[0]
        assert placed.flow.flow_id == first.flow_id
        assert placed.path != provider.paths(first.src, first.dst)[index]


@functools.cache
def churned(k, seed):
    """A k-ary fat-tree loaded to 0.85 with trace-duration flows, half of
    them removed and the load refilled (fresh and older placements mixed),
    and twelve update events for it."""
    topo = FatTreeTopology(k=k)
    with hermetic_ids():
        provider = PathProvider(topo)
        network = topo.network()
        loader = BackgroundLoader(network, provider,
                                  YahooLikeTrace(topo.hosts(), seed=seed),
                                  random.Random(seed + 100))
        report = loader.load_to_utilization(0.85, permanent=False)
        for flow in random.Random(seed).sample(report.placed,
                                               len(report.placed) // 2):
            network.remove(flow.flow_id)
        loader.load_to_utilization(0.85, permanent=False)
        events = EventGenerator(
            YahooLikeTrace(topo.hosts(), seed=seed),
            EventGeneratorConfig(min_flows=5, max_flows=25),
            seed=seed).generate(12)
    return topo, network, events


@pytest.mark.parametrize("config", [
    PlannerConfig(),
    PlannerConfig(flow_order="largest_first"),
    PlannerConfig(migration=MigrationConfig(max_migrations_per_flow=1)),
    PlannerConfig(allow_migration=False),
], ids=["default", "largest-first", "one-migration", "no-migration"])
@pytest.mark.parametrize("k, seed", [(4, 0), (4, 1), (8, 0), (8, 2)])
def test_same_plans_as_the_paths_first_reference(k, seed, config):
    """Committed event by event on two copies of one churned network: same
    paths, migrations, blocked flows, ``planning_ops`` and RNG state."""
    topo, network, events = churned(k, seed)
    sides = []
    for planner_cls in (EventPlanner, PathsFirstPlanner):
        provider = PathProvider(topo)
        sides.append((planner_cls(provider, config), network.copy(),
                      random.Random(seed), provider))
    migrated = searched = 0
    for event in events:
        summaries = []
        for planner, state, rng, __ in sides:
            plan = planner.plan_event(state, event, rng, commit=True)
            summaries.append(plan_summary(plan))
        assert summaries[0] == summaries[1]
        assert sides[0][2].getstate() == sides[1][2].getstate()
        reference = sides[1][3]
        migrated += sum(len(fp.migrations) for fp in plan.flow_plans)
        searched += len(plan.blocked) + sum(
            fp.path != EventPlanner.desired_path(
                fp.flow, reference.paths(fp.flow.src, fp.flow.dst))
            for fp in plan.flow_plans)
    assert network_columns(sides[0][1]) == network_columns(sides[1][1])
    if config.allow_migration:
        # The regime reaches the branches the two planners take apart:
        # migration onto a desired path, and the search past it.
        assert migrated > 0 and searched > 0
