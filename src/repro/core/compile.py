"""Compile an :class:`EventPlan` into a consistency-aware staged schedule.

The paper treats an event's update as one atomic reroute+install, but the
related consistency literature ("Short Schedules for Fast Flow Rerouting",
"The Augmentation-Speed Tradeoff for Consistent Network Updates") makes the
*transition* itself the object of study: order the primitive steps so no
intermediate state oversubscribes a link, and optionally trade a bounded ε
of transient over-subscription for a shorter schedule. This module is that
compilation stage, sitting between planning and execution:

* ``atomic`` (the default) — the whole plan is the one stage
  :func:`~repro.core.ordering.plan_steps`; the executor builds that stage
  itself without calling this module. Compiled here, the stage's recorded
  ``transient_overload`` is the worst one-shot flip overshoot from
  :func:`repro.core.consistency.transient_overloads` (0.0 when the plan is
  one-shot safe), so the mode doubles as the one-shot-safety probe.
* ``staged`` — strict congestion-freedom: steps are ordered by
  :func:`repro.core.ordering.find_safe_order` and greedily batched into the
  longest prefixes whose *transient* load (a migrated flow occupies both
  its old and new path until the stage commits; a placed flow sends
  immediately) stays within every link's capacity. Most plans fit in one
  stage; when a single pass over the plan certifies that (see
  :func:`_one_stage`), that stage is returned without ordering anything.
* ``augmented`` — like ``staged`` but any link may transiently carry up to
  ``(1 + ε) · capacity`` inside a stage, which merges stages and shortens
  the schedule; the settled state after every stage is back to
  ``≤ capacity`` because settled loads are exactly the planner-verified
  sequential states.

A plan whose sequential order is safe against the compiled-against state
(our planner guarantees this at plan time) always compiles into stages that
respect the ``(1 + ε)`` bound: a single step's transient load on the links
it adds equals its settled load, which the planner already bounded by
capacity. Under state *drift* (churn between planning and execution) a step
may not fit even alone; it is then emitted as its own stage with the
overshoot recorded in ``transient_overload`` rather than dropped — the
executor's live network still enforces hard capacity and its failure path
(rollback + requeue) handles the drift, while the compiler stays total.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.consistency import transient_overloads
from repro.core.ordering import (
    Step,
    StepKind,
    find_safe_order,
    plan_steps,
    transient_additions,
)
from repro.core.plan import EventPlan, Migration
from repro.network.link import EPS, LinkId, is_simple_path, path_links
from repro.network.state import NetworkState

#: Recognized compilation modes.
COMPILE_MODES = ("atomic", "staged", "augmented")

#: How far below ``capacity + EPS`` the one-stage certificate keeps every
#: link's transient load. The certificate's ``used + Σ additions`` takes
#: at most ``n + 1`` roundings over an ``n``-step plan; the trial
#: :func:`~repro.core.ordering.find_safe_order` probes reaches each
#: intermediate load in at most ``2n`` (a reroute's remove and place);
#: the two capacity tests add four more, and ``_batch_stages`` compares
#: the certificate's own partial sums. Each rounding is at most
#: ``2⁻⁵³ · M`` for loads below ``M``, so the sides differ by at most
#: ``(3n + 5) · 2⁻⁵³ · M``: 1.7e-8 Mbit/s for ``n = 500`` steps at
#: ``M = 1e5`` Mbit/s, a sixth of the margin (demands here are
#: O(1)–O(1000) Mbit/s, see ``EPS``).
ONE_STAGE_MARGIN = EPS / 10


@dataclass(frozen=True)
class PlanCompilerConfig:
    """How plans are compiled into staged schedules.

    Attributes:
        mode: one of :data:`COMPILE_MODES` — ``atomic`` (one stage, the
            default), ``staged`` (strict congestion-free stages),
            ``augmented`` (stages may transiently oversubscribe any link
            by ``≤ epsilon · capacity``).
        epsilon: the augmentation knob; must be 0 unless ``mode`` is
            ``augmented``.
    """

    mode: str = "atomic"
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in COMPILE_MODES:
            raise ValueError(f"unknown compile mode {self.mode!r}; "
                             f"pick one of {COMPILE_MODES}")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if self.epsilon > 0 and self.mode != "augmented":
            raise ValueError(
                f"epsilon > 0 requires mode='augmented', got {self.mode!r}")


@dataclass(frozen=True)
class Stage:
    """One batch of steps applied together, then settled.

    ``transient_overload`` is the worst-link fractional overshoot of base
    capacity while the stage is in flight: 0.0 for a congestion-free stage,
    ``≤ ε`` for an augmented stage, larger only when the compiled-against
    state had drifted so far that a single step no longer fits alone.
    """

    steps: tuple[Step, ...]
    transient_overload: float = 0.0


@dataclass(frozen=True)
class CompiledPlan:
    """An ordered sequence of stages realizing ``plan``."""

    plan: EventPlan
    mode: str
    epsilon: float
    stages: tuple[Stage, ...]

    @property
    def stage_count(self) -> int:
        return len(self.stages)

    @property
    def max_transient_overload(self) -> float:
        """Worst fractional capacity overshoot across all stages."""
        return max((s.transient_overload for s in self.stages), default=0.0)

    @property
    def steps(self) -> tuple[Step, ...]:
        """All steps in execution order (stage by stage)."""
        return tuple(s for stage in self.stages for s in stage.steps)


def compile_plan(state: NetworkState, plan: EventPlan,
                 config: PlanCompilerConfig | None = None) -> CompiledPlan:
    """Compile ``plan`` against ``state`` into a :class:`CompiledPlan`.

    Leaves ``state`` as it was (safe ordering probes a dropped trial). The
    compiled steps are a permutation of :func:`plan_steps`; when the plan's
    own sequential order is safe against ``state`` — always true when
    compiling against the state the plan was computed on — the permutation
    is the identity, so stage-by-stage execution reaches a final state
    byte-identical to the atomic :func:`repro.core.executor.apply_plan`.
    """
    config = config or PlanCompilerConfig()
    steps = plan_steps(plan)
    if config.mode == "atomic":
        overloads = transient_overloads(state, plan)
        overload = max((o.excess / o.capacity
                        for o in overloads if o.capacity > 0), default=0.0)
        return CompiledPlan(
            plan=plan, mode=config.mode, epsilon=0.0,
            stages=(Stage(steps=tuple(steps),
                          transient_overload=overload),))
    # Most plans are one stage; certify that in one pass before ordering.
    stage = _one_stage(state, steps)
    if stage is not None:
        return CompiledPlan(plan=plan, mode=config.mode,
                            epsilon=config.epsilon, stages=(stage,))
    ordering = find_safe_order(state, steps)
    # A safe order exists in plan order against the planned-on state; under
    # drift, stuck steps (swap deadlocks) are appended so execution still
    # attempts every step — the live network enforces capacity for real.
    sequence = ordering.order + ordering.stuck
    stages = _batch_stages(state, sequence, config.epsilon)
    if not stages:
        stages = (Stage(steps=()),)
    return CompiledPlan(plan=plan, mode=config.mode,
                        epsilon=config.epsilon, stages=stages)


# ----------------------------------------------------------------- internals


def _one_stage(state: NetworkState, steps: list[Step]) -> Stage | None:
    """The one stage ordering and batching would produce, when a single
    pass over ``steps`` proves it; ``None`` when it cannot.

    The proof: no rule table can refuse a step, every migrated flow sits
    on exactly its migration's old path with its demand, no placed flow
    is there yet, no flow is stepped twice, every path is simple, and on
    every link a step's path crosses ``used + Σ transient additions``
    stays ``ONE_STAGE_MARGIN`` below ``capacity + EPS`` — links a
    migration shares with its old path included, where it adds 0. Every
    step then applies in plan order (sequential loads never exceed the
    transient sum), so :func:`find_safe_order` returns the plan order
    with nothing stuck, and every prefix fits ``_batch_stages``'s first
    batch, which closes once. The stage's overload is that close's own
    expression (``used + 0.0 + add`` against capacity, in the same link
    order), so it is bit-identical.
    """
    if state.tracks_rules:
        return None
    seen: set[str] = set()
    added: dict[LinkId, float] = {}
    shared: list[LinkId] = []
    for step in steps:
        flow_id = step.flow_id
        if flow_id in seen or not is_simple_path(step.path):
            return None
        seen.add(flow_id)
        additions = transient_additions(step)
        if step.kind is StepKind.MIGRATE:
            if not state.has_flow(flow_id):
                return None
            migration = step.payload
            assert isinstance(migration, Migration)
            placement = state.placement(flow_id)
            if (placement.path != migration.old_path
                    or placement.flow.demand != step.demand):
                return None
            shared.extend(link for link in path_links(step.path)
                          if link not in additions)
        elif state.has_flow(flow_id):
            return None
        for link, add in additions.items():
            added[link] = added.get(link, 0.0) + add
    for link in shared:
        if (state.used(*link) + added.get(link, 0.0)
                > state.capacity(*link) + EPS - ONE_STAGE_MARGIN):
            return None
    overload = 0.0
    for link, add in added.items():
        capacity = state.capacity(*link)
        used = state.used(*link)
        if used + add > capacity + EPS - ONE_STAGE_MARGIN:
            return None
        if capacity > 0:
            overload = max(overload, (used + 0.0 + add - capacity) / capacity)
    return Stage(steps=tuple(steps), transient_overload=max(0.0, overload))


def _settle(step: Step, delta: dict[LinkId, float]) -> None:
    """Fold a committed step's steady-state load shift into ``delta``."""
    if step.kind is StepKind.MIGRATE:
        migration = step.payload
        assert isinstance(migration, Migration)
        old = frozenset(path_links(migration.old_path))
        new = frozenset(path_links(migration.new_path))
        for link in new - old:
            delta[link] = delta.get(link, 0.0) + step.demand
        for link in old - new:
            delta[link] = delta.get(link, 0.0) - step.demand
    else:
        for link in path_links(step.path):
            delta[link] = delta.get(link, 0.0) + step.demand


def _batch_stages(state: NetworkState, sequence: list[Step],
                  epsilon: float) -> tuple[Stage, ...]:
    """Greedy longest-prefix batching of ``sequence`` into stages.

    ``delta`` shadows the settled load shift of the stages already closed
    (a plain dict, not a capacity-enforcing trial: augmented stages may
    legally exceed capacity mid-schedule). A step joins the current batch
    iff every link it loads stays within ``(1 + ε) · capacity``; a step
    that does not fit even in an empty batch becomes its own stage with
    the overshoot recorded.
    """
    delta: dict[LinkId, float] = {}
    stages: list[Stage] = []
    batch: list[Step] = []
    batch_added: dict[LinkId, float] = {}

    def headroom(link: LinkId) -> float:
        capacity = state.capacity(*link)
        return ((1.0 + epsilon) * capacity + EPS
                - state.used(*link) - delta.get(link, 0.0))

    def close() -> None:
        if not batch:
            return
        overload = 0.0
        for link, add in batch_added.items():
            capacity = state.capacity(*link)
            if capacity <= 0:
                continue
            transient = state.used(*link) + delta.get(link, 0.0) + add
            overload = max(overload, (transient - capacity) / capacity)
        stages.append(Stage(steps=tuple(batch),
                            transient_overload=max(0.0, overload)))
        for step in batch:
            _settle(step, delta)
        batch.clear()
        batch_added.clear()

    for step in sequence:
        additions = transient_additions(step)
        fits = all(batch_added.get(link, 0.0) + add <= headroom(link)
                   for link, add in additions.items())
        if not fits and batch:
            close()
            fits = all(add <= headroom(link)
                       for link, add in additions.items())
        for link, add in additions.items():
            batch_added[link] = batch_added.get(link, 0.0) + add
        batch.append(step)
        if not fits:
            close()  # drifted singleton: emit with its overshoot recorded
    close()
    return tuple(stages)
