"""Per-event planning: place every flow of an update event, migrating
existing flows when needed, and report ``Cost(U)`` (paper Definition 2).

The planner is the single component both *probed* (LMTF computes the cost of
``α+1`` candidate events per round) and *executed* (the chosen event's plan is
replayed on the live network), so it works against any
:class:`~repro.network.state.NetworkState` and only mutates it when asked to
``commit``. It plans on the state itself inside a trial
(:meth:`~repro.network.network.Network.trial`): a migration attempt is a
nested trial, kept when it succeeds and dropped when it fails, and the
event's trial is dropped unless the plan is committed.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.event import UpdateEvent
from repro.core.exceptions import InsufficientBandwidthError
from repro.core.flow import Flow
from repro.core.migration import MigrationConfig, MigrationPlanner
from repro.core.plan import EventPlan, FlowPlan
from repro.network.footprint import (
    DrawCountingRandom,
    Footprint,
    FootprintRecorder,
)
from repro.network.link import EPS
from repro.network.routing.candidate import CandidatePath
from repro.network.routing.provider import PathProvider
from repro.network.state import NetworkState

#: How the planner picks among feasible candidate paths.
PATH_SELECTION = ("desired", "best_residual", "random", "first")

#: In which order an event's flows are planned.
FLOW_ORDERS = ("given", "largest_first", "smallest_first")


@dataclass(frozen=True)
class PlannerConfig:
    """Tunables of the event planner.

    Attributes:
        path_selection: how a flow's path is chosen.

            * ``desired`` (default, the paper's model): each flow has a
              single *desired path*, picked by a deterministic hash of its
              id over the candidate set (ECMP-style). If the desired path
              lacks residual bandwidth, existing flows are migrated off its
              congested links (Definition 1). Only when no migration set
              exists does the planner fall back to alternate paths. The
              deterministic choice also makes a probe's ``Cost(U)`` equal
              the cost realized at execution against the same state — which
              is what LMTF's comparisons assume.
            * ``best_residual`` — search all candidates, pick the largest
              bottleneck residual, and migrate only when none fits.
            * ``random`` / ``first`` — like ``best_residual`` but picking a
              uniformly random / the first feasible candidate.
        flow_order: order in which an event's flows are planned;
            ``largest_first`` packs big flows before the path pool fragments.
        allow_migration: when False the planner never migrates existing
            flows — a flow without a feasible path is simply blocked. Used
            by the Fig. 1 success-probability experiment and as an ablation.
        max_migration_paths: how many candidate paths (ordered by estimated
            migration deficit) to attempt migration on before declaring the
            flow blocked.
        migration: knobs of the migration heuristic itself.
    """

    path_selection: str = "desired"
    flow_order: str = "given"
    allow_migration: bool = True
    max_migration_paths: int = 4
    migration: MigrationConfig = field(default_factory=MigrationConfig)

    def __post_init__(self) -> None:
        if self.path_selection not in PATH_SELECTION:
            raise ValueError(f"unknown path selection "
                             f"{self.path_selection!r}; "
                             f"pick one of {PATH_SELECTION}")
        if self.flow_order not in FLOW_ORDERS:
            raise ValueError(f"unknown flow order {self.flow_order!r}; "
                             f"pick one of {FLOW_ORDERS}")
        if self.max_migration_paths < 1:
            raise ValueError("max_migration_paths must be >= 1")


class EventPlanner:
    """Plans update events against a network state."""

    def __init__(self, provider: PathProvider,
                 config: PlannerConfig | None = None) -> None:
        self._provider = provider
        self._config = config or PlannerConfig()
        self._migration = MigrationPlanner(provider, self._config.migration)

    @property
    def config(self) -> PlannerConfig:
        return self._config

    @property
    def provider(self) -> PathProvider:
        return self._provider

    # ------------------------------------------------------------ public API

    def plan_event(self, state: NetworkState, event: UpdateEvent,
                   rng: random.Random, commit: bool = False,
                   extra_protected: frozenset[str] = frozenset()) -> EventPlan:
        """Plan all flows of ``event`` against ``state``.

        Args:
            state: network state to plan against; it is planned on in a
                trial and left as it was unless the plan is committed.
            rng: randomness source (path tiebreaks) — pass a seeded
                ``random.Random`` for reproducible plans.
            commit: when True and the plan is feasible, apply it to
                ``state`` (migrations rerouted, event flows placed).
            extra_protected: flow ids that must not be migrated, e.g. the
                running flows of other events in a P-LMTF batch.

        Returns:
            An :class:`EventPlan`; ``plan.feasible`` is False when at least
            one flow found no placement even with migration, in which case
            ``state`` is left untouched regardless of ``commit``.
        """
        protected = frozenset(f.flow_id for f in event.flows) | extra_protected
        flow_plans: list[FlowPlan] = []
        blocked: list[Flow] = []
        total_ops = 0
        with state.trial() as trial:
            for flow in self._ordered_flows(event):
                plan, ops = self._plan_flow(state, flow, protected, rng)
                total_ops += ops
                if plan is None:
                    blocked.append(flow)
                else:
                    flow_plans.append(plan)
            event_plan = EventPlan(event=event, flow_plans=tuple(flow_plans),
                                   blocked=tuple(blocked),
                                   planning_ops=total_ops)
            if commit and event_plan.feasible:
                trial.keep()
        return event_plan

    def plan_event_probed(
            self, state: NetworkState, event: UpdateEvent,
            rng: random.Random) -> tuple[EventPlan, Footprint | None]:
        """Plan without committing, recording the plan's read footprint.

        Returns ``(plan, footprint)``. The footprint is the exact set of
        links/nodes whose state the plan depends on: as long as each one's
        version counter (:meth:`NetworkState.link_version`) is unchanged, a
        replan would reproduce this plan bit-for-bit, so callers may reuse
        it (see :class:`repro.sched.cache.ProbeCache`).

        The footprint is ``None`` — the plan is *not* memoizable — when
        planning consumed randomness (a replan at a different RNG-stream
        position could differ), made an unbounded read, or ``state`` does
        not maintain version counters. The RNG stream advances exactly as a
        plain :meth:`plan_event` call would, so probed and unprobed
        planning are interchangeable without perturbing determinism.
        """
        if not state.supports_versions:
            return self.plan_event(state, event, rng, commit=False), None
        recorder = FootprintRecorder(state)
        counting = DrawCountingRandom(rng)
        plan = self.plan_event(recorder, event, counting, commit=False)
        if counting.draws:
            return plan, None
        return plan, recorder.footprint()

    # -------------------------------------------------------------- internals

    def _ordered_flows(self, event: UpdateEvent) -> list[Flow]:
        flows = list(event.flows)
        if self._config.flow_order == "largest_first":
            flows.sort(key=lambda f: (-f.demand, f.flow_id))
        elif self._config.flow_order == "smallest_first":
            flows.sort(key=lambda f: (f.demand, f.flow_id))
        return flows

    def _plan_flow(self, state: NetworkState, flow: Flow,
                   protected: frozenset[str],
                   rng: random.Random) -> tuple[FlowPlan | None, int]:
        """Place one flow, migrating existing flows if necessary.

        Under ``desired`` selection only the desired candidate is built
        until it fails even with migration; the pair's full candidate
        tuple is asked for only then.
        """
        provider, src, dst = self._provider, flow.src, flow.dst
        ops = 0
        if self._config.path_selection != "desired":
            paths: Sequence[CandidatePath] = provider.paths(src, dst)
        else:
            index = self.desired_index(flow,
                                       provider.candidate_count(src, dst))
            desired = provider.candidate(src, dst, index)
            ops += 1
            if state.path_feasible(desired, flow.demand):
                try:
                    state.place(flow, desired)
                except InsufficientBandwidthError:
                    pass  # rule-table shortage; try migration/alternates
                else:
                    return FlowPlan(flow=flow, path=desired), ops
            if self._config.allow_migration:
                plan, mig_ops = self._try_migration(state, flow, desired,
                                                    protected, rng)
                ops += mig_ops
                if plan is not None:
                    return plan, ops
            else:
                return None, ops
            # Desired path unusable even with migration: fall through to the
            # alternate-path search below. The desired path is excluded — it
            # was just proven infeasible (and its migration attempt failed),
            # so re-probing it could only repeat that result.
            paths = [p for i, p in enumerate(provider.paths(src, dst))
                     if i != index]

        ops += len(paths)
        remaining = list(paths)
        while remaining:
            chosen = self._select_feasible_path(state, flow, remaining, rng)
            if chosen is None:
                break
            try:
                state.place(flow, chosen)
            except InsufficientBandwidthError:
                # Bandwidth looked fine but a switch's rule table is full;
                # drop this candidate and try the next.
                remaining.remove(chosen)
                continue
            return FlowPlan(flow=flow, path=chosen), ops
        if not self._config.allow_migration:
            return None, ops

        # No feasible path: attempt migration on the candidate paths with the
        # smallest estimated deficit first (least migration to arrange).
        ranked = sorted(paths,
                        key=lambda p: (self._deficit(state, p, flow.demand),
                                       rng.random()))
        for path in ranked[:self._config.max_migration_paths]:
            plan, mig_ops = self._try_migration(state, flow, path,
                                                protected, rng)
            ops += mig_ops
            if plan is not None:
                return plan, ops
        return None, ops

    @staticmethod
    def desired_index(flow: Flow, count: int) -> int:
        """Position of the flow's hash-designated (ECMP-style) desired
        path among its pair's ``count`` candidates."""
        return zlib.crc32(flow.flow_id.encode("utf-8")) % count

    @staticmethod
    def desired_path(flow: Flow,
                     paths: Sequence[CandidatePath]) -> CandidatePath:
        """The flow's hash-designated (ECMP-style) desired path."""
        return paths[EventPlanner.desired_index(flow, len(paths))]

    def _try_migration(self, state: NetworkState, flow: Flow,
                       path: CandidatePath, protected: frozenset[str],
                       rng: random.Random) -> tuple[FlowPlan | None, int]:
        """Attempt to make room for ``flow`` on ``path`` via migration, in
        a nested trial kept only when the flow is placed."""
        with state.trial() as attempt:
            migrations, ops = self._migration.make_room(state, flow, path,
                                                        protected, rng)
            if migrations is None:
                # Failed attempts still charge the planning work they did.
                return None, ops
            try:
                state.place(flow, path)
            except InsufficientBandwidthError:
                return None, ops
            attempt.keep()
        return FlowPlan(flow=flow, path=path,
                        migrations=tuple(migrations)), ops

    def _select_feasible_path(
            self, state: NetworkState, flow: Flow,
            paths: Sequence[CandidatePath],
            rng: random.Random) -> CandidatePath | None:
        """Pick a path with sufficient residual, or None."""
        feasible: list[tuple[float, CandidatePath]] = []
        for path in paths:
            residual = state.path_residual(path)
            if residual + EPS >= flow.demand:
                feasible.append((residual, path))
        if not feasible:
            return None
        if self._config.path_selection == "first":
            return feasible[0][1]
        if self._config.path_selection == "random":
            return rng.choice(feasible)[1]
        best_residual = max(r for r, __ in feasible)
        best = [p for r, p in feasible if r >= best_residual - EPS]
        return rng.choice(best)

    @staticmethod
    def _deficit(state: NetworkState, path: Sequence[str],
                 demand: float) -> float:
        """Total bandwidth that migration must free along ``path``."""
        return sum(max(0.0, demand - res)
                   for res in state.path_residuals(path))
