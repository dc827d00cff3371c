"""Unit tests for plan-level transition-consistency analysis."""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import BG_BOT, BG_TOP, TOP, ab_flow, cd_flow, diamond_setup, ef_flow  # noqa: E402

from repro.core.consistency import (
    is_one_shot_safe,
    one_shot_safety_rate,
    sequential_order_is_safe,
    transient_overloads,
)
from repro.core.event import make_event
from repro.core.plan import EventPlan
from repro.core.planner import EventPlanner


def plan_one(net, provider, flows, seed=1):
    planner = EventPlanner(provider)
    event = make_event(flows)
    return planner.plan_event(net, event, random.Random(seed))


class TestMigrationFreePlans:
    def test_free_plan_is_one_shot_safe(self):
        net, provider = diamond_setup()
        plan = plan_one(net, provider, [ab_flow("f1", 10.0)])
        assert plan.cost == 0
        assert is_one_shot_safe(net, plan)
        assert transient_overloads(net, plan) == []
        assert sequential_order_is_safe(net, plan)

    def test_new_flows_alone_can_overload_transiently_never(self):
        # without migrations, one-shot == sequential: both safe
        net, provider = diamond_setup()
        plan = plan_one(net, provider,
                        [ab_flow("f1", 30.0), ab_flow("f2", 30.0)])
        assert is_one_shot_safe(net, plan) == \
            sequential_order_is_safe(net, plan)


class TestMigrationPlans:
    def _tight_setup(self):
        """bg (45) blocks the desired middle; migrating it to the other
        middle works sequentially, but one-shot transiently needs bg on
        BOTH middles while the 60-Mbit/s event flow also lands."""
        net, provider = diamond_setup()
        net.place(cd_flow("bg", 45.0), BG_TOP)
        net.place(ef_flow("padding", 60.0), ("e", "s1", "bot", "s2", "f"))
        return net, provider

    def test_sequential_safe_by_construction(self):
        net, provider = self._tight_setup()
        plan = plan_one(net, provider, [ab_flow("new", 50.0)])
        if plan.feasible:
            assert sequential_order_is_safe(net, plan)

    def test_one_shot_overload_detected(self):
        net, provider = diamond_setup()
        # both middles carry 45, so whichever path the new 60-Mbit/s flow
        # hashes to needs a migration off it.
        net.place(cd_flow("bg", 45.0), BG_TOP)
        net.place(ef_flow("bg2", 45.0), ("e", "s1", "bot", "s2", "f"))
        plan = plan_one(net, provider, [ab_flow("new", 60.0)])
        assert plan.feasible and plan.cost > 0
        # one-shot: the migrated blocker transiently still occupies the
        # chosen middle (45) while the new flow (60) lands -> 105 > 100.
        overloads = transient_overloads(net, plan)
        chosen_middle = plan.flow_plans[0].path[2]  # 'top' or 'bot'
        assert any(chosen_middle in o.link for o in overloads)
        assert all(o.excess > 0 for o in overloads)
        assert not is_one_shot_safe(net, plan)
        # sequential order is fine regardless
        assert sequential_order_is_safe(net, plan)

    def test_infeasible_plan_is_not_sequential_safe(self):
        net, provider = diamond_setup()
        plan = plan_one(net, provider,
                        [ab_flow("f1", 60.0), ab_flow("f2", 60.0)])
        assert not plan.feasible
        assert not sequential_order_is_safe(net, plan)


class TestStepOrderUnderChurn:
    def test_departed_migrated_flow_is_unsafe_not_a_traceback(self):
        # Regression: sequential_order_is_safe promises False when any
        # intermediate step fails, but a migrated flow that left the
        # network since planning (churn) raised UnknownFlowError instead.
        net, provider = diamond_setup()
        net.place(cd_flow("bg", 45.0), BG_TOP)
        net.place(ef_flow("bg2", 45.0), ("e", "s1", "bot", "s2", "f"))
        plan = plan_one(net, provider, [ab_flow("new", 60.0)])
        assert plan.feasible and len(plan.migrations) == 1
        assert sequential_order_is_safe(net, plan)
        net.remove(plan.migrations[0].flow.flow_id)
        assert sequential_order_is_safe(net, plan) is False


class TestSafetyRate:
    def test_rate_over_mixed_plans(self):
        net, provider = diamond_setup()
        net.place(cd_flow("bg", 45.0), BG_TOP)
        plans = [
            plan_one(net, provider, [ab_flow("a", 5.0)], seed=1),
            plan_one(net, provider, [ab_flow("b", 60.0)], seed=2),
        ]
        rate = one_shot_safety_rate(net, plans)
        assert 0.0 <= rate <= 1.0

    def test_rate_empty_is_one(self):
        net, __ = diamond_setup()
        assert one_shot_safety_rate(net, []) == 1.0

    def test_rate_ignores_infeasible(self):
        net, provider = diamond_setup()
        bad = EventPlan(event=make_event([ab_flow("x", 1.0)]),
                        flow_plans=(),
                        blocked=(ab_flow("x2", 1.0),))
        good = plan_one(net, provider, [ab_flow("g", 5.0)])
        assert one_shot_safety_rate(net, [bad, good]) == 1.0
