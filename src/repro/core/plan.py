"""Plan objects produced by the event planner and consumed by the executor.

Planning and execution are deliberately separated: the planner runs inside a
trial on the network (:meth:`~repro.network.network.Network.trial`), dropped
afterwards, so that schedulers can *probe* the update cost of many candidate
events per round (LMTF samples ``α+1`` of them) without changing the real
network, and the executor later replays the chosen plan against live state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.event import UpdateEvent
from repro.core.flow import Flow


@dataclass(frozen=True)
class Migration:
    """Reroute one existing flow to free bandwidth on a congested link.

    The migrated traffic of this migration — the term it contributes to
    ``Cost(U)`` in Definition 2 — is the flow's bandwidth demand.
    """

    flow: Flow
    old_path: tuple[str, ...]
    new_path: tuple[str, ...]

    @property
    def migrated_traffic(self) -> float:
        """Bandwidth demand moved by this migration (Mbit/s)."""
        return self.flow.demand


@dataclass(frozen=True)
class FlowPlan:
    """How one flow of an update event is accommodated.

    Attributes:
        flow: the event flow being inserted.
        path: the path selected for it.
        migrations: existing flows that must move *before* this flow can be
            placed — the set ``F_a`` of Definition 1. Empty when the path had
            sufficient residual bandwidth.
    """

    flow: Flow
    path: tuple[str, ...]
    migrations: tuple[Migration, ...] = ()

    @property
    def cost(self) -> float:
        """Migrated traffic charged to this flow: ``sum(F_a)``."""
        return sum(m.migrated_traffic for m in self.migrations)


@dataclass
class EventPlan:
    """A complete plan for one update event.

    Attributes:
        event: the event being planned.
        flow_plans: one :class:`FlowPlan` per successfully planned flow, in
            planning order.
        blocked: flows for which no placement exists even with migration;
            an event with blocked flows is infeasible against the probed
            network state and must wait.
        planning_ops: number of elementary planning operations performed
            (path feasibility checks + migration-candidate scans); the
            simulated plan-time model charges time proportional to this.
    """

    event: UpdateEvent
    flow_plans: tuple[FlowPlan, ...] = ()
    blocked: tuple[Flow, ...] = ()
    planning_ops: int = 0

    @property
    def feasible(self) -> bool:
        """True when every flow of the event found a placement."""
        return not self.blocked

    @property
    def cost(self) -> float:
        """``Cost(U)``: total migrated traffic over all flows (Definition 2)."""
        return sum(fp.cost for fp in self.flow_plans)

    @property
    def migrations(self) -> tuple[Migration, ...]:
        """All migrations of the plan, in execution order."""
        return tuple(m for fp in self.flow_plans for m in fp.migrations)

    @property
    def migration_count(self) -> int:
        return sum(len(fp.migrations) for fp in self.flow_plans)


@dataclass
class ExecutionRecord:
    """What actually happened when a plan was executed.

    Produced by the executor and consumed by the metrics collector.

    Attributes:
        plan: the executed plan.
        start_time: simulated time execution began (after planning).
        migration_time: simulated seconds spent draining migrations.
        install_time: simulated seconds spent installing the event's flows.
        finish_setup_time: time at which all event flows were running.
        attempts: execution attempts made (1 on a reliable control plane).
        retry_time: simulated seconds lost to failed attempts, backoff
            waits, and control-plane latency jitter; included in
            ``finish_setup_time``.
        stage_count: stages of the compiled schedule actually applied
            (1 under atomic compilation).
        max_transient_overload: worst fractional capacity overshoot any
            link saw while a stage was in flight (0.0 when congestion-free).
        epsilon: the augmentation knob the plan was compiled with.
    """

    plan: EventPlan
    start_time: float = 0.0
    migration_time: float = 0.0
    install_time: float = 0.0
    finish_setup_time: float = 0.0
    rerouted_flow_ids: tuple[str, ...] = field(default=())
    attempts: int = 1
    retry_time: float = 0.0
    stage_count: int = 1
    max_transient_overload: float = 0.0
    epsilon: float = 0.0
