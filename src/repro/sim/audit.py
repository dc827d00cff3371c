"""Lifecycle-invariant auditor: turns silent bookkeeping drift into a crash.

Every event has one row, owned by the
:class:`~repro.sim.lifecycle.EventLifecycle`; the per-state counts, the
metrics records and ``events_remaining`` are all read off those rows, so
they cannot disagree with each other. What can still drift is state kept
*outside* the rows, on its own code path: the
:class:`~repro.sim.pipeline.RoundPipeline` queue, the decided-round index,
the engine's O(1) pending counter and the network's trial stack. A missed
queue removal or a double decrement there desynchronizes them *silently*:
the run still drains and produces numbers, just subtly wrong ones (this is
exactly how the tombstone-cancel and empty-round bugs survived several
releases).

:class:`LifecycleAuditor` is a plain hook-bus subscriber that checks that
state against the rows at every settled round boundary — the one instant
where no event may legitimately sit in a mid-round state — and raises
:class:`AuditError` carrying a machine-readable diff on the first mismatch.
Every check but the engine heap recount is O(queue depth), not O(total
events), so the auditor is cheap enough to leave enabled on unbounded
service runs.

Enable it per-simulator (``UpdateSimulator(..., audit=True)``), globally via
the ``REPRO_AUDIT=1`` environment variable (how the schedule-pin tests
re-run byte-identity checks audited), or attach one explicitly::

    auditor = LifecycleAuditor()
    sim.attach(auditor)
    sim.run()
    auditor.assert_drained()   # terminal-state check after the run

The auditor only *reads* simulator state and subscribes only ``PostRound``,
so attaching it cannot perturb record order — the schedule pins stay
byte-identical with auditing on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.exceptions import SimulationError
from repro.sim.hooks import PostRound
from repro.sim.lifecycle import EventState

if TYPE_CHECKING:
    from repro.sim.hooks import SimulatorPort

__all__ = ["AuditError", "LifecycleAuditor"]


class AuditError(SimulationError):
    """Two bookkeeping surfaces disagree about the simulation's state.

    ``diff`` maps each failed invariant's name to an ``(observed,
    expected)`` pair; the message renders the same information for humans.
    """

    def __init__(self, message: str,
                 diff: dict[str, tuple[Any, Any]]) -> None:
        super().__init__(message)
        self.diff = diff


def _first_unqueued_row(sim: SimulatorPort) -> tuple[str, str] | None:
    """The first queued event whose row is not ``QUEUED``, with its state
    (``None`` when every row is)."""
    queued = sim.pipeline.queued_event_ids()
    states = sim.lifecycle.states(queued)
    if states.count(EventState.QUEUED) == len(states):
        return None
    index = next(i for i, state in enumerate(states)
                 if state is not EventState.QUEUED)
    return queued[index], states[index].value


def _raise_on_failures(checks: dict[str, tuple[Any, Any]],
                       heading: str) -> None:
    """Raise :class:`AuditError` naming every ``(observed, expected)``
    pair of ``checks`` that differs."""
    failed = {name: pair for name, pair in checks.items()
              if pair[0] != pair[1]}
    if failed:
        detail = "; ".join(f"{name}: observed {obs!r}, expected {exp!r}"
                           for name, (obs, exp) in failed.items())
        raise AuditError(f"{heading}: {detail}", diff=failed)


class LifecycleAuditor:
    """Hook-bus subscriber checking the state kept outside the event rows.

    At every ``PostRound`` (the settled round boundary) the auditor asserts:

    * no event occupies a mid-round state (``PROBED``/``ADMITTED``/
      ``DEFERRED`` populations are zero),
    * the pipeline queue holds exactly the ``QUEUED`` rows: its depth
      equals their count and every queued event's row is ``QUEUED``
      (together, set equality without a sort),
    * the decided rounds counted so far equal the settled round's index,
    * the engine's O(1) ``pending`` counter matches an O(n) heap recount
      (the tombstone-drift detector) and is non-negative,
    * no network trial is open: every what-if a round tried was kept or
      dropped before the round settled.

    Args:
        every: audit every ``every``-th round (1 audits all of them);
            service deployments may dilute the ``live_pending`` heap scan.
    """

    def __init__(self, every: int = 1) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self._every = every
        self._sim: SimulatorPort | None = None
        self._audits = 0

    # -------------------------------------------------------------- plugin

    def attach(self, sim: SimulatorPort) -> None:
        """Subscribe to ``sim``'s ``PostRound`` hook (the plugin protocol)."""
        self._sim = sim
        sim.hooks.subscribe(PostRound, self._on_post_round)

    @property
    def audits(self) -> int:
        """Rounds audited so far (each one passed, or we raised)."""
        return self._audits

    def _on_post_round(self, hook: PostRound) -> None:
        if hook.index % self._every == 0:
            self.audit(round_index=hook.index)

    # -------------------------------------------------------------- checks

    def audit(self, round_index: int | None = None) -> None:
        """Run every cross-check now; raise :class:`AuditError` on drift.

        Args:
            round_index: the settled round's 1-based index, when invoked
                from ``PostRound`` (enables the round-counting checks).
        """
        sim = self._require_sim()
        counts = sim.lifecycle.counts()

        # name -> (observed, expected); insertion order is report order.
        checks: dict[str, tuple[Any, Any]] = {
            "mid_round_states": (
                {s.value: counts[s] for s in (EventState.PROBED,
                                              EventState.ADMITTED,
                                              EventState.DEFERRED)
                 if counts[s]},
                {}),
            "queue_depth_vs_queued_rows": (
                sim.pipeline.queue_depth, counts[EventState.QUEUED]),
            "queued_event_row_state": (_first_unqueued_row(sim), None),
            "network_trial_open": (sim.network.trial_open, False),
        }
        if round_index is not None:
            checks["metrics_rounds_vs_round_index"] = (
                sim.metrics_collector.round_count, round_index)
        checks["engine_pending_nonnegative"] = (sim.engine.pending >= 0, True)
        checks["engine_pending_vs_heap_recount"] = (
            sim.engine.pending, sim.engine.live_pending())
        where = (f"round {round_index}" if round_index is not None
                 else "ad-hoc audit")
        _raise_on_failures(checks, f"lifecycle audit failed at {where} "
                                   f"(t={sim.now:.6f})")
        self._audits += 1

    def assert_drained(self) -> None:
        """Assert the post-run terminal picture: every row completed or
        dropped, nothing queued, nothing pending in the engine.

        Call after ``run()`` returns (or after a service drain); raises
        :class:`AuditError` if any event is still live.
        """
        sim = self._require_sim()
        checks: dict[str, tuple[Any, Any]] = {
            "events_remaining_zero": (sim.lifecycle.remaining, 0),
            "live_rows": (sim.metrics_collector.incomplete_events(), []),
            "queue_empty": (sim.pipeline.queue_depth, 0),
            "engine_drained": (sim.engine.pending, 0),
        }
        _raise_on_failures(checks, f"drain audit failed (t={sim.now:.6f})")

    def _require_sim(self) -> SimulatorPort:
        if self._sim is None:
            raise SimulationError("auditor not attached to a simulator")
        return self._sim

    def __repr__(self) -> str:
        target = "detached" if self._sim is None else "attached"
        return (f"<LifecycleAuditor {target}, every={self._every}, "
                f"{self._audits} audits passed>")
