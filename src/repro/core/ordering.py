"""Greedy safe ordering of update steps (a Dionysus-lite).

The executor applies a plan in the exact order the planner built it, which
is safe against the state the plan was computed on. When the state has
*drifted* (churn between planning and execution, or a hand-assembled set of
moves), that order may no longer work even though *some* order does —
finding one is exactly the dependency-scheduling problem Dionysus solves
for consistent updates.

:func:`find_safe_order` implements the greedy core: repeatedly apply any
step that fits the current state until none is applicable. For unsplittable
flows this either finds a safe sequential order or reports the residual
deadlock (real Dionysus breaks such deadlocks by splitting flows, which the
paper's model — unsplit flows, §III-A — rules out).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from repro.core.exceptions import PlacementError
from repro.core.plan import EventPlan, FlowPlan, Migration
from repro.network.link import LinkId, path_links
from repro.network.state import NetworkState


class StepKind(enum.Enum):
    MIGRATE = "migrate"
    PLACE = "place"


class Step(NamedTuple):
    """One primitive update step of a plan.

    A named tuple, not a dataclass: every execution builds one per
    operation, and a tuple costs a quarter of a frozen dataclass to make.
    """

    kind: StepKind
    flow_id: str
    path: tuple[str, ...]
    demand: float
    payload: Migration | FlowPlan  # what this step came from

    def describe(self) -> str:
        return f"{self.kind.value} {self.flow_id} ({self.demand:.1f} Mbit/s)"


@dataclass
class OrderingResult:
    """Outcome of :func:`find_safe_order`."""

    order: list[Step]
    stuck: list[Step]

    @property
    def complete(self) -> bool:
        """True when every step was ordered (no residual deadlock)."""
        return not self.stuck


def plan_steps(plan: EventPlan) -> list[Step]:
    """Decompose a plan into its primitive steps, in plan order.

    The one place that knows what operations a plan consists of and in
    what order: per flow, its migrations (make-before-break) and then its
    placement. Execution, compilation and the consistency analysis all
    walk this list.
    """
    steps: list[Step] = []
    for flow_plan in plan.flow_plans:
        for migration in flow_plan.migrations:
            flow = migration.flow
            steps.append(Step(StepKind.MIGRATE, flow.flow_id,
                              migration.new_path, flow.demand, migration))
        flow = flow_plan.flow
        steps.append(Step(StepKind.PLACE, flow.flow_id, flow_plan.path,
                          flow.demand, flow_plan))
    return steps


def apply_step(state: NetworkState, step: Step) -> tuple[str, ...] | None:
    """Apply one step to ``state``; any refusal propagates.

    Returns what undoes it: the path a migrated flow left, ``None`` for a
    placement (undone by removing the flow).
    """
    if step.kind is StepKind.MIGRATE:
        old_path = state.placement(step.flow_id).path
        state.reroute(step.flow_id, step.path)
        return old_path
    state.place(step.payload.flow, step.path)
    return None


def try_step(state: NetworkState, step: Step) -> bool:
    """Apply one step to ``state`` if it fits; False when the state refuses
    it in any way — no room, a full rule table, the flow it migrates has
    left the network, the flow it places is already there, or an invalid
    path."""
    try:
        apply_step(state, step)
    except PlacementError:
        return False
    return True


def transient_additions(step: Step) -> dict[LinkId, float]:
    """Per-link load a step adds *while it is in flight*.

    A migrated flow occupies both paths until its stage commits, so only
    links new to its path gain load; a placed flow loads its whole path.
    """
    links = path_links(step.path)
    if step.kind is StepKind.MIGRATE:
        assert isinstance(step.payload, Migration)
        old = frozenset(path_links(step.payload.old_path))
        links = tuple(link for link in links if link not in old)
    return dict.fromkeys(links, step.demand)


def find_safe_order(state: NetworkState, steps: list[Step],
                    apply: bool = False) -> OrderingResult:
    """Greedily order ``steps`` so each fits the state left by its
    predecessors.

    Args:
        state: the state to order against (probed inside a trial).
        steps: primitive steps in any order (e.g. from :func:`plan_steps`,
            possibly from several plans).
        apply: when True and a complete order is found, commit it to
            ``state``; partial orders are never committed.

    Returns:
        An :class:`OrderingResult`; ``result.order`` is a safe prefix (all
        of the steps when ``result.complete``), ``result.stuck`` are steps
        no order can schedule without splitting flows.

    The greedy loop is deterministic (steps are scanned in their given
    order each round). An exchange argument suggests it is also complete
    for this step model — applying a feasible step early only frees its old
    links earlier, and any step that also needed its new links must fit
    alongside it in every safe order anyway — so a stall indicates a swap
    deadlock (mutually dependent migrations), which unsplittable flows
    cannot break. The test suite exercises both outcomes.
    """
    pending = list(steps)
    order: list[Step] = []
    with state.trial() as trial:
        progressed = True
        while pending and progressed:
            progressed = False
            remaining: list[Step] = []
            for step in pending:
                if try_step(state, step):
                    order.append(step)
                    progressed = True
                else:
                    remaining.append(step)
            pending = remaining
        result = OrderingResult(order=order, stuck=pending)
        if apply and result.complete:
            trial.keep()
    return result


def reorder_plan(state: NetworkState, plan: EventPlan,
                 apply: bool = False) -> OrderingResult:
    """Find a safe order for ``plan``'s steps against (possibly drifted)
    ``state``. A drop-in recovery for executor staleness: when the plan's
    built-in order no longer applies, a reordering may still."""
    return find_safe_order(state, plan_steps(plan), apply=apply)
