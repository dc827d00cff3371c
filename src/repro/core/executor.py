"""Replays an :class:`EventPlan` onto network state.

Planning runs on throwaway views; execution is the moment the chosen event's
migrations and placements hit real state. A plan is always executed as
*stages of steps*: :func:`~repro.core.ordering.plan_steps` alone says what a
plan's primitive operations are and in what order (make-before-break:
migrations first, freeing the congested links, then the event's flow), and
one applier, :func:`_apply`, walks them forward with one undo log. Atomic
execution is the one stage ``plan_steps(plan)``; ``staged``/``augmented``
execution applies the stages :func:`~repro.core.compile.compile_plan`
batched the same steps into. The :class:`~repro.sim.timing.TimingModel`
converts the plan into simulated time.

:func:`apply_plan` is the pure state-transition part, reused by P-LMTF to
mirror an already-probed plan onto its cumulative batch view so that batch
members are planned against exactly the state their predecessors will leave
behind.

With an unreliable :class:`~repro.sim.controlplane.ControlPlane`, each rule
install / migration drain can fail; the executor then retries the whole plan
with exponential backoff under a :class:`RetryPolicy`, and on exhaustion (or
deadline) rolls the partial application back and raises
:class:`~repro.core.exceptions.ControlPlaneError` with the simulated time
the failed attempts consumed — the simulator requeues the event instead of
crashing the run. A reliable (or absent) control plane is the same loop
succeeding on its first attempt, drawing nothing.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.compile import CompiledPlan, PlanCompilerConfig, compile_plan
from repro.core.exceptions import (
    ControlPlaneError,
    PlacementError,
    PlanningError,
    TopologyError,
)
from repro.core.ordering import Step, StepKind, apply_step, plan_steps
from repro.core.plan import EventPlan, ExecutionRecord
from repro.network.state import NetworkState
from repro.sim.crashpoint import crash_point
from repro.sim.timing import TimingModel

if TYPE_CHECKING:
    from repro.sim.controlplane import ControlPlane
    from repro.sim.hooks import HookBus


def apply_plan(state: NetworkState, plan: EventPlan) -> list[str]:
    """Apply a feasible plan's steps to ``state`` as one stage.

    Returns the ids of the rerouted (migrated) flows. On *any* mid-way
    placement failure — insufficient bandwidth, a full rule table, a
    missing flow or invalid path — the partial application is rolled back
    before the error propagates, leaving ``state`` untouched.

    Raises:
        PlanningError: the plan has blocked flows.
        PlacementError: the state diverged from what the plan was computed
            against and the plan no longer applies (the usual case is
            ``InsufficientBandwidthError``; rule-table-limited networks
            raise its ``RuleSpaceError`` subtype).
    """
    _check_feasible(plan)
    rerouted = _apply(state, (plan_steps(plan),))
    assert rerouted is not None  # only a control plane can fail softly
    return rerouted


def apply_stages(state: NetworkState, compiled: CompiledPlan) -> list[str]:
    """Apply a compiled plan stage by stage.

    Returns the rerouted flow ids. Rollback is *whole-plan*: a failure in
    any stage undoes every stage already applied (newest op first), so the
    caller sees the same all-or-nothing contract as :func:`apply_plan` —
    settled intermediate states never leak past a raised error. The
    ``"stage"`` crash point fires between stages for the chaos harness.
    """
    _check_feasible(compiled.plan)
    rerouted = _apply(state, (stage.steps for stage in compiled.stages))
    assert rerouted is not None
    return rerouted


def _check_feasible(plan: EventPlan) -> None:
    if not plan.feasible:
        raise PlanningError(
            f"refusing to apply infeasible plan for event "
            f"{plan.event.event_id} ({len(plan.blocked)} blocked flows)")


def _apply(state: NetworkState, stages: Iterable[Sequence[Step]],
           cp: "ControlPlane | None" = None) -> list[str] | None:
    """Apply ``stages`` of steps forward — the one applier.

    Returns the rerouted flow ids, or ``None`` when ``cp`` failed an
    operation. ``cp`` is consulted once per step, in step order and
    *before* the state call (``migration_ok`` for a migrate step,
    ``install_ok`` for a place step); without one nothing is drawn. On a
    control-plane failure and on a ``PlacementError``/``TopologyError``
    alike, every operation already applied is undone newest first,
    whatever stage it belonged to. Under ``cp`` that includes the version
    counters (the roll-forward/roll-back pair would otherwise bump them
    with no net change), so memoized probe plans stay provably fresh
    across a failed attempt.
    """
    # Version counters are a Network extension, not part of the
    # NetworkState contract; probe for them instead of isinstance so any
    # version-tracking state benefits.
    snapshot_fn = getattr(state, "version_snapshot", None)
    restore_fn = getattr(state, "restore_versions", None)
    versions = (snapshot_fn() if cp is not None and snapshot_fn is not None
                else None)
    undo_log: list[tuple[str, tuple[str, ...] | None]] = []
    rerouted: list[str] = []

    def undo() -> None:
        for flow_id, old_path in reversed(undo_log):
            if old_path is None:
                state.remove(flow_id)
            else:
                state.reroute(flow_id, old_path)
        if versions is not None and restore_fn is not None:
            restore_fn(versions)

    try:
        for index, steps in enumerate(stages):
            if index:
                crash_point("stage")
            for step in steps:
                if cp is not None and not (
                        cp.migration_ok() if step.kind is StepKind.MIGRATE
                        else cp.install_ok()):
                    undo()
                    return None
                old_path = apply_step(state, step)
                undo_log.append((step.flow_id, old_path))
                if old_path is not None:  # a migration
                    rerouted.append(step.flow_id)
    except (PlacementError, TopologyError):
        undo()
        raise
    return rerouted


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry knobs for execution on an unreliable control plane.

    Attributes:
        max_retries: additional attempts after the first failure.
        backoff_s: wait before the first retry; doubles each retry
            (``backoff_s * backoff_factor ** (attempt - 1)``).
        backoff_factor: exponential backoff multiplier.
        deadline_s: per-plan budget of simulated seconds (attempt time +
            backoff). Execution aborts once the next wait would exceed it,
            even with retries remaining.
    """

    max_retries: int = 2
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    deadline_s: float = math.inf

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_s < 0:
            raise ValueError("backoff_s must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")


class PlanExecutor:
    """Applies event plans to a network state and accounts their time.

    Args:
        timing: simulated-time model for plan/migration/install costs.
        control_plane: per-operation failure/latency model; ``None`` (or
            any :attr:`~repro.sim.controlplane.ControlPlane.reliable`
            model) is never consulted, so the first attempt succeeds.
        retry: retry/backoff/deadline policy used when ``control_plane``
            is unreliable.
        hooks: optional :class:`~repro.sim.hooks.HookBus`; when given, the
            executor announces burned retries as
            :class:`~repro.sim.hooks.ExecutionRetried` instead of the
            caller scraping ``attempts`` off records and exceptions. The
            hook fires once per execute with the *failed* attempt count —
            both on eventual success and right before a
            :class:`~repro.core.exceptions.ControlPlaneError` (a
            propagating ``PlacementError`` reports nothing).
        compiler: plan-compilation config; ``None`` means ``atomic``.
            Atomic is the one stage ``plan_steps(plan)`` — no
            ``compile_plan`` call at all; ``staged``/``augmented`` compile
            each plan at execute time and apply it stage by stage,
            charging install latency per stage.
    """

    def __init__(self, timing: TimingModel | None = None,
                 control_plane: "ControlPlane | None" = None,
                 retry: RetryPolicy | None = None,
                 hooks: "HookBus | None" = None,
                 compiler: PlanCompilerConfig | None = None) -> None:
        self._timing = timing or TimingModel()
        self._control_plane = control_plane
        self._retry = retry or RetryPolicy()
        self._hooks = hooks
        self._compiler = compiler or PlanCompilerConfig()

    @property
    def timing(self) -> TimingModel:
        return self._timing

    @property
    def retry(self) -> RetryPolicy:
        return self._retry

    @property
    def compiler(self) -> PlanCompilerConfig:
        return self._compiler

    def execute(self, state: NetworkState, plan: EventPlan,
                start_time: float) -> ExecutionRecord:
        """Apply ``plan`` to ``state`` starting at ``start_time``.

        Returns an :class:`ExecutionRecord` whose ``finish_setup_time`` is
        when all the event's flows are installed and running; their
        transmissions then complete on their own service times. On an
        unreliable control plane the record also carries the attempts made
        and the simulated time lost to retries.

        A staged/augmented plan is compiled against the live state — the
        one it was planned against in the default round pipeline — so the
        compiled step order is the plan order and the settled state is the
        atomic one's; install latency is charged per stage.

        Raises:
            PlanningError: the plan has blocked flows (callers must only
                execute feasible plans).
            PlacementError: the state changed since planning and the plan
                no longer fits — the caller should replan. Not retried
                (the same state rejects the same plan); state is rolled
                back before this propagates.
            ControlPlaneError: every attempt failed on the control plane
                or the retry deadline elapsed; state is rolled back.
        """
        _check_feasible(plan)
        cp = self._control_plane
        if cp is not None and cp.reliable:
            cp = None
        stages: Sequence[Sequence[Step]]
        overload = 0.0
        if self._compiler.mode == "atomic":
            stages = (plan_steps(plan),)
        else:
            compiled = compile_plan(state, plan, self._compiler)
            stages = [stage.steps for stage in compiled.stages]
            overload = compiled.max_transient_overload
        migration_time = self._timing.migration_time(plan.migrations)
        install_time = self._timing.install_time(
            len(plan.flow_plans), stages=len(stages))
        base_time = migration_time + install_time
        elapsed = 0.0
        attempts = 0
        while True:
            attempts += 1
            jitter = cp.attempt_jitter_s() if cp is not None else 0.0
            rerouted = _apply(state, stages, cp)
            # A failed attempt still occupied the control plane for the
            # full issue-and-wait window; charge it like a successful one.
            elapsed += base_time + jitter
            if rerouted is not None:
                self._note_retries(plan, attempts)
                # Two float associations on purpose: the schedule pins
                # were captured with each, and they differ in the last bit.
                finish = (start_time + migration_time + install_time
                          if cp is None else start_time + elapsed)
                return ExecutionRecord(
                    plan=plan,
                    start_time=start_time,
                    migration_time=migration_time,
                    install_time=install_time,
                    finish_setup_time=finish,
                    rerouted_flow_ids=tuple(rerouted),
                    attempts=attempts,
                    retry_time=elapsed - base_time,
                    stage_count=len(stages),
                    max_transient_overload=overload,
                    epsilon=self._compiler.epsilon,
                )
            backoff = (self._retry.backoff_s
                       * self._retry.backoff_factor ** (attempts - 1))
            if attempts > self._retry.max_retries:  # retries_left == 0
                reason = (f"all {attempts} execution attempts failed on "
                          f"the control plane")
            elif elapsed + backoff > self._retry.deadline_s:
                reason = (f"execution deadline "
                          f"{self._retry.deadline_s:.3f}s exceeded after "
                          f"{attempts} attempt(s)")
            else:
                elapsed += backoff
                continue
            self._note_retries(plan, attempts)
            raise ControlPlaneError(
                f"event {plan.event.event_id}: {reason}",
                attempts=attempts, elapsed=elapsed)

    def _note_retries(self, plan: EventPlan, attempts: int) -> None:
        """Announce the failed attempts of one execute on the hook bus."""
        if attempts > 1 and self._hooks is not None:
            from repro.sim.hooks import ExecutionRetried
            self._hooks.emit(ExecutionRetried(
                event_id=plan.event.event_id, retries=attempts - 1))
