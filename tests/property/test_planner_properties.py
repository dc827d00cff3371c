"""Property-based tests for the migration/event planners.

Core safety properties: whatever plan the planner produces, (1) applying it
never oversubscribes a link, (2) its reported ``Cost(U)`` equals the summed
demands of the flows it actually migrated (Definition 2), and (3) probing
never mutates the network.
"""

import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import (  # noqa: E402
    BG_BOT,
    BG_TOP,
    EF_BOT,
    EF_TOP,
    cd_flow,
    diamond_topology,
    ef_flow,
)

from repro.core.event import make_event
from repro.core.executor import apply_plan
from repro.core.flow import Flow
from repro.core.planner import EventPlanner
from repro.network.routing.provider import PathProvider

TOPO = diamond_topology()
PROVIDER = PathProvider(TOPO)


def loaded_network(bg_top: float, bg_bot: float, ef_top: float,
                   ef_bot: float):
    network = TOPO.network()
    if bg_top > 0:
        network.place(cd_flow("bgt", bg_top), BG_TOP)
    if bg_bot > 0:
        network.place(cd_flow("bgb", bg_bot), BG_BOT)
    if ef_top > 0:
        network.place(ef_flow("eft", ef_top), EF_TOP)
    if ef_bot > 0:
        network.place(ef_flow("efb", ef_bot), EF_BOT)
    return network


background = st.tuples(
    st.floats(min_value=0.0, max_value=49.0),
    st.floats(min_value=0.0, max_value=49.0),
    st.floats(min_value=0.0, max_value=49.0),
    st.floats(min_value=0.0, max_value=49.0),
)

event_demands = st.lists(st.floats(min_value=1.0, max_value=45.0),
                         min_size=1, max_size=4)


class TestPlannerProperties:
    @given(bg=background, demands=event_demands,
           seed=st.integers(min_value=0, max_value=10))
    @settings(max_examples=80, deadline=None)
    def test_plans_apply_without_oversubscription(self, bg, demands, seed):
        network = loaded_network(*bg)
        planner = EventPlanner(PROVIDER)
        flows = [Flow(flow_id=f"u{i}", src="a", dst="b", demand=d,
                      duration=1.0) for i, d in enumerate(demands)]
        event = make_event(flows)
        plan = planner.plan_event(network, event, random.Random(seed))
        if not plan.feasible:
            return
        apply_plan(network, plan)
        network.check_invariants()
        for u, v in network.links():
            assert network.used(u, v) <= network.capacity(u, v) + 1e-6

    @given(bg=background, demands=event_demands,
           seed=st.integers(min_value=0, max_value=10))
    @settings(max_examples=80, deadline=None)
    def test_cost_equals_migrated_demand(self, bg, demands, seed):
        network = loaded_network(*bg)
        planner = EventPlanner(PROVIDER)
        flows = [Flow(flow_id=f"u{i}", src="a", dst="b", demand=d,
                      duration=1.0) for i, d in enumerate(demands)]
        event = make_event(flows)
        plan = planner.plan_event(network, event, random.Random(seed))
        migrated_total = sum(m.flow.demand for m in plan.migrations)
        assert plan.cost == pytest.approx(migrated_total)

    @given(bg=background, demands=event_demands,
           seed=st.integers(min_value=0, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_probe_never_mutates(self, bg, demands, seed):
        network = loaded_network(*bg)
        snapshot = {link: network.used(*link) for link in network.links()}
        flow_ids = list(network.flow_ids())
        planner = EventPlanner(PROVIDER)
        flows = [Flow(flow_id=f"u{i}", src="a", dst="b", demand=d,
                      duration=1.0) for i, d in enumerate(demands)]
        planner.plan_event(network, make_event(flows), random.Random(seed))
        assert list(network.flow_ids()) == flow_ids
        for link, used in snapshot.items():
            assert network.used(*link) == pytest.approx(used)

    @given(bg=background, demands=event_demands,
           seed=st.integers(min_value=0, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_migrated_flows_stay_placed(self, bg, demands, seed):
        """Migration moves flows, it never drops them (paper rejects the
        priority/removal policy of RSVP-TE)."""
        network = loaded_network(*bg)
        before = set(network.flow_ids())
        planner = EventPlanner(PROVIDER)
        flows = [Flow(flow_id=f"u{i}", src="a", dst="b", demand=d,
                      duration=1.0) for i, d in enumerate(demands)]
        plan = planner.plan_event(network, make_event(flows),
                                  random.Random(seed), commit=True)
        after = set(network.flow_ids())
        assert before <= after
        if plan.feasible:
            assert after - before == {f.flow_id for f in flows}
