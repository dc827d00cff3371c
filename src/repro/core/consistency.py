"""Plan-level transition-consistency analysis.

The paper's related work (§VI) splits update correctness into *consistent*
update (Reitblatt et al.: flip all rules atomically under a version tag) and
*congestion-free* update (zUpdate/SWAN: order the steps so no intermediate
state oversubscribes a link; Dionysus schedules that ordering). This module
answers, for any :class:`~repro.core.plan.EventPlan`, where a plan sits on
that spectrum:

* :func:`transient_overloads` — if the whole plan flipped in **one shot**
  (every migrated flow transiently occupying both its old and new path, the
  event's new flows already sending), which links would exceed capacity and
  by how much?
* :func:`is_one_shot_safe` — no such link: a single version flip is both
  consistent *and* congestion-free.
* :func:`sequential_order_is_safe` — verifies that the plan's own
  step-by-step order (migrations before each placement, in plan order)
  never oversubscribes — a property our planner guarantees by construction,
  re-checked here independently.

The executor applies plans sequentially, so plans never *need* one-shot
safety to execute; the analysis quantifies how often the cheaper one-shot
flip would have been available (the ``consistency`` ablation).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.ordering import plan_steps, transient_additions, try_step
from repro.core.plan import EventPlan
from repro.network.link import EPS, LinkId
from repro.network.state import NetworkState
from repro.network.view import NetworkView


@dataclass(frozen=True)
class TransientOverload:
    """One link that a one-shot flip would transiently oversubscribe."""

    link: LinkId
    capacity: float
    transient_load: float

    @property
    def excess(self) -> float:
        return self.transient_load - self.capacity


def transient_overloads(state: NetworkState,
                        plan: EventPlan) -> list[TransientOverload]:
    """Links oversubscribed by flipping ``plan`` in one shot.

    The transient load of a link is its current usage, **plus** the demand
    of every migrated flow whose *new* path adds the link (its old-path
    usage is still in place mid-flip), **plus** the demand of every event
    flow placed on the link. Flows leaving a link release nothing until the
    flip completes, so their usage still counts.
    """
    added: dict[LinkId, float] = {}
    for step in plan_steps(plan):
        for link, extra in transient_additions(step).items():
            added[link] = added.get(link, 0.0) + extra
    overloads: list[TransientOverload] = []
    for link, extra in sorted(added.items()):
        transient = state.used(*link) + extra
        capacity = state.capacity(*link)
        if transient > capacity + EPS:
            overloads.append(TransientOverload(
                link=link, capacity=capacity, transient_load=transient))
    return overloads


def is_one_shot_safe(state: NetworkState, plan: EventPlan) -> bool:
    """True when a single atomic version flip of ``plan`` is
    congestion-free (no transient overload on any link)."""
    return not transient_overloads(state, plan)


def sequential_order_is_safe(state: NetworkState, plan: EventPlan) -> bool:
    """Independently verify the plan's own step order never oversubscribes.

    Replays :func:`~repro.core.ordering.plan_steps` in order on a throwaway
    view (whose ``place`` rejects oversubscription); the view is discarded,
    so ``state`` is untouched.

    Returns False for infeasible plans or if any intermediate step fails:
    against the planned-on state that would indicate a planner bug (the
    test suite asserts it never happens); against a drifted state it means
    the room is gone or a migrated flow has left the network.
    """
    if not plan.feasible:
        return False
    view = NetworkView(state)
    return all(try_step(view, step) for step in plan_steps(plan))


def one_shot_safety_rate(state: NetworkState,
                         plans: list[EventPlan]) -> float:
    """Fraction of feasible plans that a one-shot flip could execute."""
    feasible = [plan for plan in plans if plan.feasible]
    if not feasible:
        return 1.0
    safe = sum(1 for plan in feasible if is_one_shot_safe(state, plan))
    return safe / len(feasible)
