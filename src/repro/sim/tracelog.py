"""Simulation observability: a structured trace log.

:class:`TraceLog` subscribes to the simulator's
:class:`~repro.sim.hooks.HookBus` and turns every significant transition
(round decided, event admitted, flow finished, background churned, fault
injected, execution failed, ...) into a structured record. The log dumps as
JSON Lines, which makes scheduler behaviour diffable across runs ("why did
LMTF defer U7 in round 3?") without attaching a debugger to a discrete-event
simulation. Anything else that wants to observe a run subscribes to
``UpdateSimulator.hooks`` the same way; there is no second observer
interface.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.sim import hooks as _hooks


@dataclass
class TraceRecord:
    """One structured log record."""

    time: float
    kind: str
    data: dict[str, Any]

    def to_json(self) -> str:
        return json.dumps({"t": round(self.time, 6), "kind": self.kind,
                           **self.data})


@dataclass
class TraceLog:
    """Accumulates simulator transitions as structured records.

    Pass it as ``UpdateSimulator(listener=log)``; the simulator calls
    :meth:`subscribe` right after the metrics collector subscribed, so
    each record lands after the ledger was charged for the same hook.

    Args:
        capture_flows: record per-flow completions too (high volume —
            thousands of records on churny runs; off by default).
    """

    capture_flows: bool = False
    records: list[TraceRecord] = field(default_factory=list)

    def _add(self, time: float, kind: str, **data: Any) -> None:
        self.records.append(TraceRecord(time=time, kind=kind, data=data))

    # ---------------------------------------------------------------- hooks

    def subscribe(self, bus: "_hooks.HookBus") -> None:
        """Start recording ``bus``'s emissions."""
        bus.subscribe(_hooks.PreRound, self._on_pre_round)
        bus.subscribe(_hooks.EventAdmitted, self._on_admitted)
        bus.subscribe(_hooks.EventCompleted, self._on_completed)
        bus.subscribe(_hooks.FlowFinished, self._on_flow_finished)
        bus.subscribe(_hooks.ChurnTick, self._on_churn)
        bus.subscribe(_hooks.FaultInjected, self._on_fault)
        bus.subscribe(_hooks.FaultHealed, self._on_heal)
        bus.subscribe(_hooks.ExecutionFailed, self._on_exec_failed)
        bus.subscribe(_hooks.EventDeferred, self._on_deferred)
        bus.subscribe(_hooks.EventDropped, self._on_dropped)

    def _on_pre_round(self, hook: "_hooks.PreRound") -> None:
        # The round is decided, not yet executed: an event whose execution
        # then fails is named here and gets no ``admission`` record.
        self._add(hook.now, "round", index=hook.index,
                  decided=list(hook.admitted), ops=hook.planning_ops,
                  plan_time=round(hook.plan_time, 6),
                  queue=hook.queue_depth)

    def _on_admitted(self, hook: "_hooks.EventAdmitted") -> None:
        self._add(hook.exec_start, "admission", event=hook.event_id,
                  cost=round(hook.cost, 3), migrations=hook.migrations,
                  flows=hook.flows)

    def _on_completed(self, hook: "_hooks.EventCompleted") -> None:
        self._add(hook.now, "complete", event=hook.event_id)

    def _on_flow_finished(self, hook: "_hooks.FlowFinished") -> None:
        if self.capture_flows:
            self._add(hook.now, "flow_finish", flow=hook.flow_id,
                      event=hook.event_id)

    def _on_churn(self, hook: "_hooks.ChurnTick") -> None:
        if self.capture_flows:
            self._add(hook.now, "churn", flow=hook.flow_id,
                      respawned=hook.respawned)

    def _on_fault(self, hook: "_hooks.FaultInjected") -> None:
        self._add(hook.now, "fault", what=hook.description,
                  stranded_flows=hook.stranded_flows,
                  stranded_demand=round(hook.stranded_demand, 3))

    def _on_heal(self, hook: "_hooks.FaultHealed") -> None:
        self._add(hook.now, "heal", what=hook.description)

    def _on_exec_failed(self, hook: "_hooks.ExecutionFailed") -> None:
        self._add(hook.now, "exec_failure", event=hook.event_id,
                  attempts=hook.attempts, reason=hook.reason)

    def _on_deferred(self, hook: "_hooks.EventDeferred") -> None:
        self._add(hook.now, "deferral", event=hook.event_id,
                  count=hook.count)

    def _on_dropped(self, hook: "_hooks.EventDropped") -> None:
        self._add(hook.now, "drop", event=hook.event_id,
                  stranded_demand=round(hook.stranded_demand, 3))

    # --------------------------------------------------------------- export

    def of_kind(self, kind: str) -> list[TraceRecord]:
        """All records of one kind, in time order."""
        return [r for r in self.records if r.kind == kind]

    def to_jsonl(self) -> str:
        """The whole log as JSON Lines."""
        return "\n".join(record.to_json() for record in self.records)

    def save(self, path: str | Path) -> None:
        """Write the log as JSON Lines, atomically.

        An interrupt mid-save leaves the previous file intact instead of a
        truncated JSONL that downstream tooling would trust.
        """
        from repro.core.ioutil import atomic_write_text
        atomic_write_text(path, self.to_jsonl() + "\n")

    def __len__(self) -> int:
        return len(self.records)
