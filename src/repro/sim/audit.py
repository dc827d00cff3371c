"""Lifecycle-invariant auditor: turns silent bookkeeping drift into a crash.

The simulator keeps the same population in four independent ledgers — the
:class:`~repro.sim.lifecycle.EventLifecycle` state machine, the
:class:`~repro.sim.pipeline.RoundPipeline` queue and ``events_remaining``
counter, the :class:`~repro.sim.metrics.MetricsCollector` records, and the
engine's pending-event counter. Each is updated on its own code path, so a
missed emit or a double decrement desynchronizes them *silently*: the run
still drains and produces numbers, just subtly wrong ones (this is exactly
how the tombstone-cancel and empty-round bugs survived several releases).

:class:`LifecycleAuditor` is a plain hook-bus subscriber that cross-checks
all four ledgers at every settled round boundary — the one instant where no
event may legitimately sit in a mid-round state — and raises
:class:`AuditError` carrying a machine-readable diff on the first mismatch.
Every check is O(queue depth), not O(total events), so the auditor is cheap
enough to leave enabled on unbounded service runs.

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


def _first_difference(observed: list, expected: list) -> tuple[Any, Any]:
    """``(None, None)`` for equal sequences, else the first position where
    they part as ``((index, observed item), (index, expected item))`` — an
    item is ``None`` past the end of the shorter one. Keeps the diff of two
    run-long sequences one entry long."""
    if observed == expected:
        return None, None
    index = next((i for i, pair in enumerate(zip(observed, expected))
                  if pair[0] != pair[1]),
                 min(len(observed), len(expected)))
    return ((index, observed[index] if index < len(observed) else None),
            (index, expected[index] if index < len(expected) else None))


class LifecycleAuditor:
    """Hook-bus subscriber cross-checking the simulator's ledgers.

    At every ``PostRound`` (the settled round boundary) the auditor asserts:

    * no event occupies a mid-round state (``PROBED``/``ADMITTED``/
      ``DEFERRED`` populations are zero),
    * the pipeline queue mirrors the lifecycle's ``QUEUED`` population and
      the metrics collector's waiting ledger (the events it has an open
      queue stay for, which ``rounds_waited`` is charged from),
    * ``events_remaining`` equals the live lifecycle population
      (``QUEUED`` + ``EXECUTING``),
    * the metrics collector has a record per registered event and its
      completed/dropped/round counters match the lifecycle and the
      pipeline's round index,
    * the engine's O(1) ``pending`` counter matches an O(n) heap recount
      (the tombstone-drift detector) and is non-negative.

    Args:
        every: audit every ``every``-th round (1 audits all of them);
            service deployments may dilute the ``live_pending`` heap scan.
        check_engine: include the engine heap recount (the only check that
            is O(pending events) rather than O(queue depth)).
    """

    def __init__(self, every: int = 1, check_engine: bool = True) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self._every = every
        self._check_engine = check_engine
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
        pipeline = sim.pipeline
        collector = sim.metrics_collector
        live = counts[EventState.QUEUED] + counts[EventState.EXECUTING]

        # name -> (observed, expected); insertion order is report order.
        checks: dict[str, tuple[Any, Any]] = {
            "mid_round_states": (
                {s.value: counts[s] for s in (EventState.PROBED,
                                              EventState.ADMITTED,
                                              EventState.DEFERRED)
                 if counts[s]},
                {}),
            "queue_depth_vs_lifecycle_queued": (
                pipeline.queue_depth, counts[EventState.QUEUED]),
            "events_remaining_vs_lifecycle_live": (
                pipeline.events_remaining, live),
            "metrics_records_vs_lifecycle_registered": (
                collector.record_count, len(sim.lifecycle)),
            "metrics_completed_vs_lifecycle": (
                collector.completed_count, counts[EventState.COMPLETED]),
            "metrics_dropped_vs_lifecycle": (
                collector.dropped_count, counts[EventState.DROPPED]),
            "waiting_ledger_vs_queue": _first_difference(
                sorted(collector.waiting_ids),
                sorted(pipeline.queued_event_ids())),
        }
        if round_index is not None:
            checks["metrics_rounds_vs_round_index"] = (
                collector.round_count, round_index)
        if self._check_engine:
            engine = sim.engine
            checks["engine_pending_nonnegative"] = (
                engine.pending >= 0, True)
            checks["engine_pending_vs_heap_recount"] = (
                engine.pending, engine.live_pending())

        failed = {name: pair for name, pair in checks.items()
                  if pair[0] != pair[1]}
        if failed:
            where = (f"round {round_index}" if round_index is not None
                     else "ad-hoc audit")
            detail = "; ".join(f"{name}: observed {obs!r}, expected {exp!r}"
                               for name, (obs, exp) in failed.items())
            raise AuditError(
                f"lifecycle audit failed at {where} (t={sim.now:.6f}): "
                f"{detail}", diff=failed)
        self._audits += 1

    def assert_drained(self) -> None:
        """Assert the post-run terminal picture: everything completed or
        dropped, nothing queued, nothing pending in the engine.

        Call after ``run()`` returns (or after a service drain); raises
        :class:`AuditError` if any event is still live.
        """
        sim = self._require_sim()
        counts = sim.lifecycle.counts()
        terminal = counts[EventState.COMPLETED] + counts[EventState.DROPPED]
        checks: dict[str, tuple[Any, Any]] = {
            "terminal_events_vs_registered": (terminal, len(sim.lifecycle)),
            "queue_empty": (sim.pipeline.queue_depth, 0),
            "events_remaining_zero": (sim.pipeline.events_remaining, 0),
            "engine_drained": (sim.engine.pending, 0),
        }
        failed = {name: pair for name, pair in checks.items()
                  if pair[0] != pair[1]}
        if failed:
            detail = "; ".join(f"{name}: observed {obs!r}, expected {exp!r}"
                               for name, (obs, exp) in failed.items())
            raise AuditError(
                f"drain audit failed (t={sim.now:.6f}): {detail}",
                diff=failed)

    def assert_restored(self, journal_records: list[dict]) -> None:
        """Cross-check a checkpoint-restored simulator against its journal.

        ``journal_records`` must be the journal *prefix* the checkpoint
        covers (every record appended up to the checkpoint's recorded
        offset). Journal and checkpoint were written by independent code
        paths — the journal per-record at commit time, the checkpoint at
        the tick, from the ledgers' own counters — so agreement here means
        a torn/stale/mixed state dir could not have slipped through:

        * ``ingest`` records match the restored lifecycle's registered
          population (every journaled arrival is known, none invented),
        * ``complete``/``drop`` records match both the lifecycle's
          terminal counts and the metrics collector's counters,
        * the standard ad-hoc ledger audit passes on the restored state.

        Raises :class:`AuditError` with the usual machine-readable diff.
        """
        sim = self._require_sim()
        counts = sim.lifecycle.counts()
        collector = sim.metrics_collector
        by_kind: dict[str, int] = {}
        for record in journal_records:
            kind = str(record.get("kind"))
            by_kind[kind] = by_kind.get(kind, 0) + 1
        checks: dict[str, tuple[Any, Any]] = {
            "journal_ingests_vs_lifecycle_registered": (
                by_kind.get("ingest", 0), len(sim.lifecycle)),
            "journal_completes_vs_lifecycle": (
                by_kind.get("complete", 0), counts[EventState.COMPLETED]),
            "journal_completes_vs_metrics": (
                by_kind.get("complete", 0), collector.completed_count),
            "journal_drops_vs_lifecycle": (
                by_kind.get("drop", 0), counts[EventState.DROPPED]),
            "journal_drops_vs_metrics": (
                by_kind.get("drop", 0), collector.dropped_count),
        }
        failed = {name: pair for name, pair in checks.items()
                  if pair[0] != pair[1]}
        if failed:
            detail = "; ".join(f"{name}: observed {obs!r}, expected {exp!r}"
                               for name, (obs, exp) in failed.items())
            raise AuditError(
                f"restore audit failed (t={sim.now:.6f}): {detail}",
                diff=failed)
        self.audit()

    def _require_sim(self) -> SimulatorPort:
        if self._sim is None:
            raise SimulationError("auditor not attached to a simulator")
        return self._sim

    def __repr__(self) -> str:
        target = "detached" if self._sim is None else "attached"
        return (f"<LifecycleAuditor {target}, every={self._every}, "
                f"{self._audits} audits passed>")
