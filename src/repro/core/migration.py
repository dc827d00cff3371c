"""Greedy approximation of the minimum-migration-traffic problem.

Paper §III-B / §IV-A: when a flow ``f_a`` of an update event cannot be placed
because links of its desired path lack residual bandwidth, a subset ``F_a`` of
the existing flows crossing those congested links must be migrated to other
paths so that, on every congested link, *freed + residual >= d^{f_a}*
(Eq. 3), while no migrated flow may congest its new path (Eq. 5). Choosing
the minimum-traffic ``F_a`` is NP-complete, so the paper — and this module —
uses a greedy covering heuristic.

The planner mutates the :class:`NetworkState` it is given (rerouting the
migrated flows and leaving room for the new flow), so callers hand it a
throwaway :class:`~repro.network.view.NetworkView` per attempt and commit
only successful attempts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.core.exceptions import InsufficientBandwidthError
from repro.core.flow import Flow, Placement
from repro.core.plan import Migration
from repro.network.link import EPS, LinkId, path_links
from repro.network.routing.candidate import CandidatePath
from repro.network.routing.provider import PathProvider
from repro.network.state import NetworkState

#: Migration-set selection strategies (ablation knob; the paper's heuristic
#: corresponds to ``best_fit``).
STRATEGIES = ("best_fit", "smallest_first", "largest_first")


@dataclass(frozen=True)
class MigrationConfig:
    """Tunables of the migration heuristic.

    Attributes:
        strategy: how flows are picked off a congested link —
            ``best_fit`` first tries the single smallest flow whose demand
            covers the whole deficit and falls back to smallest-first
            accumulation (minimizes migrated traffic, the paper's goal);
            ``smallest_first`` / ``largest_first`` are ablation variants.
        max_rounds: migrations can shift congestion onto other links of the
            desired path; the planner re-derives the congested-link set and
            retries up to this many rounds before declaring the path
            infeasible.
        max_migrations_per_flow: hard cap on ``|F_a|`` so pathological states
            cannot trigger migration storms.
        prefer_disjoint: when choosing the new path of a migrated flow,
            prefer paths that share no link with the new flow's desired path,
            so the migration cannot re-congest it.
    """

    strategy: str = "best_fit"
    max_rounds: int = 4
    max_migrations_per_flow: int = 16
    prefer_disjoint: bool = True

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown migration strategy "
                             f"{self.strategy!r}; pick one of {STRATEGIES}")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.max_migrations_per_flow < 1:
            raise ValueError("max_migrations_per_flow must be >= 1")


class MigrationPlanner:
    """Computes and applies the migration set ``F_a`` for one new flow."""

    def __init__(self, provider: PathProvider,
                 config: MigrationConfig | None = None) -> None:
        self._provider = provider
        self._config = config or MigrationConfig()

    @property
    def config(self) -> MigrationConfig:
        return self._config

    # ------------------------------------------------------------ public API

    def congested_links(self, state: NetworkState, path: Sequence[str],
                        demand: float) -> list[LinkId]:
        """The set ``E^c_{f_a}`` of Definition 1 for ``path``/``demand``."""
        return [link for link, res in zip(path_links(path),
                                          state.path_residuals(path))
                if res + EPS < demand]

    def make_room(self, state: NetworkState, flow: Flow,
                  path: Sequence[str], protected: frozenset[str],
                  rng: random.Random) -> tuple[list[Migration] | None, int]:
        """Migrate existing flows off ``path`` until ``flow`` fits.

        Mutates ``state`` by rerouting the chosen flows. Returns
        ``(migrations, ops)`` — the applied migrations and the number of
        elementary planning operations performed. ``migrations`` is ``None``
        when no migration set exists within the configured budget (the
        caller then discards its attempt view, so the mutations vanish);
        the ops are still reported so failed attempts charge the planning
        work they actually did.

        Args:
            path: the new flow's desired path; a plain node sequence is
                indexed against the provider's link table here, once.
            protected: flow ids that must not be migrated — the flows of the
                event currently being planned, plus anything the caller wants
                pinned.
        """
        path = CandidatePath.of(path, self._provider.table)
        migrations: list[Migration] = []
        ops = 0
        avoid = frozenset(path.link_idx)
        for _round in range(self._config.max_rounds):
            congested = self.congested_links(state, path, flow.demand)
            ops += len(path) - 1
            if not congested:
                return migrations, ops
            for link in congested:
                if len(migrations) >= self._config.max_migrations_per_flow:
                    return None, ops
                relieved, link_ops = self._relieve_link(
                    state, link, flow.demand, protected, avoid, rng,
                    budget=self._config.max_migrations_per_flow
                    - len(migrations))
                ops += link_ops
                if relieved is None:
                    return None, ops
                migrations.extend(relieved)
        # Rounds exhausted: if the path is now clear we still succeeded.
        ops += len(path) - 1
        if not self.congested_links(state, path, flow.demand):
            return migrations, ops
        return None, ops

    # -------------------------------------------------------------- internals

    def _relieve_link(self, state: NetworkState, link: LinkId, demand: float,
                      protected: frozenset[str], avoid: frozenset[int],
                      rng: random.Random,
                      budget: int) -> tuple[list[Migration] | None, int]:
        """Free enough bandwidth on one congested link (Eq. 3 for ``link``).

        Returns ``(migrations, ops)``; migrations is ``None`` on failure.
        """
        ops = 0
        deficit = demand - state.residual(*link)
        if deficit <= EPS:
            return [], ops
        candidates = [state.placement(fid)
                      for fid in state.flows_on_link(*link)
                      if fid not in protected]
        ops += len(candidates)
        candidates.sort(key=lambda pl: (pl.flow.demand, pl.flow.flow_id))

        chosen: list[Placement] = []
        if self._config.strategy == "best_fit":
            # Smallest single flow that covers the whole deficit by itself.
            for placement in candidates:
                if placement.flow.demand + EPS >= deficit:
                    ops += 1
                    if self._movable(state, placement, link):
                        chosen = [placement]
                        break
        if not chosen:
            order = candidates
            if self._config.strategy == "largest_first":
                order = list(reversed(candidates))
            freed = 0.0
            for placement in order:
                if freed + EPS >= deficit:
                    break
                if len(chosen) >= budget:
                    break
                ops += 1
                if self._movable(state, placement, link):
                    chosen.append(placement)
                    freed += placement.flow.demand
            if freed + EPS < deficit:
                return None, ops

        migrations: list[Migration] = []
        for placement in chosen:
            new_path = self._pick_alternate_path(state, placement, link,
                                                 avoid, rng)
            if new_path is None:
                # Raced with an earlier migration in this batch; the
                # feasibility probe in _movable() used slightly older state.
                return None, ops
            try:
                state.reroute(placement.flow.flow_id, new_path)
            except InsufficientBandwidthError:
                return None, ops
            migrations.append(Migration(flow=placement.flow,
                                        old_path=placement.path,
                                        new_path=new_path))
        return migrations, ops

    def _movable(self, state: NetworkState, placement: Placement,
                 link: LinkId) -> bool:
        """True when the flow has at least one feasible path off ``link``."""
        own = frozenset((placement.flow.flow_id,))
        crossed = self._provider.table.index.get(link)
        for path in self._provider.paths(placement.flow.src,
                                         placement.flow.dst):
            if crossed in path.link_idx:
                continue
            if state.path_feasible(path, placement.flow.demand, ignore=own):
                return True
        return False

    def _pick_alternate_path(self, state: NetworkState, placement: Placement,
                             link: LinkId, avoid: frozenset[int],
                             rng: random.Random) -> tuple[str, ...] | None:
        """Choose the new path for a migrated flow.

        Feasible paths avoiding ``link`` are ranked: paths disjoint from the
        new flow's desired path first (when ``prefer_disjoint``), then by
        bottleneck residual, with a random tiebreak.
        """
        own = frozenset((placement.flow.flow_id,))
        crossed = self._provider.table.index.get(link)
        best: tuple[str, ...] | None = None
        best_key: tuple[bool, float, float] | None = None
        for path in self._provider.paths(placement.flow.src,
                                         placement.flow.dst):
            links = path.link_idx
            if crossed in links:
                continue
            residual = state.path_residual(path, ignore=own)
            if residual + EPS < placement.flow.demand:
                continue
            overlaps = not avoid.isdisjoint(links) \
                if self._config.prefer_disjoint else False
            key = (overlaps, -residual, rng.random())
            if best_key is None or key < best_key:
                best, best_key = path, key
        return best
