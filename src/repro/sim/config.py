"""Run-level simulator configuration (extracted from the old monolith).

Kept in its own module so the hook bus, the round pipeline, and plugins can
all name :class:`SimulationConfig` without importing the simulator itself.
``repro.sim.simulator`` re-exports it, so existing imports keep working.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.compile import PlanCompilerConfig


@dataclass(frozen=True)
class SimulationConfig:
    """Run-level simulator knobs.

    Attributes:
        seed: seed for the planner RNG (path tiebreaks). Scheduler sampling
            uses the scheduler's own seed.
        verify_invariants: re-derive and assert network bookkeeping after
            every round (slow; the test suite turns it on).
        stall_fallback: when the scheduler admits nothing, nothing is
            running, and no future engine event can change the state, scan
            the queue in arrival order and admit the first feasible event
            instead of deadlocking. A strict-FIFO purist can turn this off
            and accept :class:`~repro.core.exceptions.SimulationError` on
            pathological workloads.
        background_churn: when True, finite-duration background flows
            complete over simulated time and respawn from the simulator's
            ``churn_trace``, so the network state — and therefore queued
            events' costs — keeps changing, as §IV-A of the paper
            describes.
        round_barrier: when the next scheduling round may start.
            ``completion`` (default, matching the paper's Fig. 3 arithmetic
            and its "an update event cannot finish until such flows have
            been completed") waits for every admitted flow to finish
            transmitting; an event's ECT then includes its flows'
            transmissions. ``setup`` starts the next round as soon as the
            admitted updates are installed (plan + migration drain +
            install) — the pipelined reading in which ECT measures only the
            update application; admitted flows keep transmitting across
            subsequent rounds and contend with later events. Used by the
            model-sensitivity ablation.
        exec_max_retries: execution attempts after the first failure on an
            unreliable control plane (ignored on the reliable default);
            backoff and deadline keep
            :class:`~repro.core.executor.RetryPolicy`'s defaults.
        max_deferrals: requeue budget per event. An admitted event whose
            execution fails is requeued (deferred); an event that can
            never be placed while the run is otherwise stalled is likewise
            deferred instead of deadlocking. Past this many deferrals the
            event is *dropped* with accounting (``RunMetrics.
            dropped_events`` / ``stranded_traffic``). ``None`` (default)
            keeps the legacy strictness: execution failures still requeue,
            but nothing is ever dropped and a permanent stall raises
            :class:`~repro.core.exceptions.SimulationError` as before.
        repair_flow_duration: transmission duration given to the
            replacement flows of auto-generated repair events (stranded
            permanent background flows have none of their own).
        compile_mode: plan-compilation mode handed to the executor —
            ``atomic`` (default: each plan is one stage), ``staged``
            (congestion-free stages), or ``augmented``
            (stages may transiently oversubscribe links by
            ``compile_epsilon · capacity``).
        compile_epsilon: the augmentation knob; must be 0 unless
            ``compile_mode`` is ``augmented``.
    """

    seed: int = 0
    verify_invariants: bool = False
    stall_fallback: bool = True
    background_churn: bool = False
    round_barrier: str = "completion"
    exec_max_retries: int = 2
    max_deferrals: int | None = None
    repair_flow_duration: float = 30.0
    compile_mode: str = "atomic"
    compile_epsilon: float = 0.0

    def __post_init__(self) -> None:
        if self.round_barrier not in ("completion", "setup"):
            raise ValueError(f"unknown round_barrier "
                             f"{self.round_barrier!r}; pick 'completion' "
                             f"or 'setup'")
        if self.max_deferrals is not None and self.max_deferrals < 0:
            raise ValueError("max_deferrals must be >= 0 or None")
        if self.repair_flow_duration <= 0:
            raise ValueError("repair_flow_duration must be positive")
        # The (mode, ε) rule lives in PlanCompilerConfig alone.
        PlanCompilerConfig(mode=self.compile_mode,
                           epsilon=self.compile_epsilon)
