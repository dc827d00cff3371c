"""Load background traffic until the network reaches a target utilization.

Paper §V-A: "we inject a large amount of traffic into the Fat-Tree datacenter
as background traffic, so that the network utilization grows up to 70%". The
loader draws flows from a trace generator and greedily places each on its
best feasible path, stopping when the average switch-link utilization reaches
the target (or no more flows fit).

The same :meth:`BackgroundLoader.best_path` serves every churn respawn of a
run, so it reads a host pair's candidates the cheapest way the provider
offers: one template lookup, then one pass over the kernel's columns (the
two access links once, then each candidate's middle row, stopping at its
first link too full for the flow) with only the chosen candidate built as
a path object; or — for a provider that offers only ``paths()``, a pair it
cannot template, or a network over another link table — one path object
at a time. Both readings keep candidate order, the feasibility comparison,
the host-cap arithmetic and the RNG draws identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TypeVar

from repro.core.exceptions import InsufficientBandwidthError
from repro.core.flow import Flow, FlowKind
from repro.network.link import EPS
from repro.network.network import Network
from repro.network.routing.provider import PathProvider
from repro.traces.base import TraceGenerator

_T = TypeVar("_T")


@dataclass
class LoadReport:
    """Outcome of a background-loading run.

    Attributes:
        placed: flows successfully placed, in placement order.
        rejected: how many sampled flows found no feasible path, or were
            refused by a full switch rule table, and were dropped (rises
            sharply near high utilization — this is exactly the effect the
            paper's Fig. 1 measures).
        utilization: average switch-link utilization reached.
    """

    placed: list[Flow]
    rejected: int
    utilization: float


def _mean(terms: list[float]) -> float:
    """:meth:`Network.average_utilization`'s arithmetic over ``terms``."""
    return sum(terms) / len(terms) if terms else 0.0


class BackgroundLoader:
    """Greedy best-fit loader of trace flows into a network.

    Args:
        network: live network to load.
        provider: candidate-path lookup for the network's topology.
        trace: flow generator to draw from.
        rng: randomness for path tiebreaks (independent of the trace's RNG
            so loading policy changes do not perturb the trace).
    """

    PATH_POLICIES = ("random", "best")

    def __init__(self, network: Network, provider: PathProvider,
                 trace: TraceGenerator, rng: random.Random | None = None,
                 host_link_cap: float = 0.9, path_policy: str = "random"):
        if not 0.0 < host_link_cap <= 1.0:
            raise ValueError("host_link_cap must be in (0, 1]")
        if path_policy not in self.PATH_POLICIES:
            raise ValueError(f"unknown path policy {path_policy!r}; "
                             f"pick one of {self.PATH_POLICIES}")
        self._network = network
        self._provider = provider
        self._trace = trace
        self._rng = rng or random.Random(0)
        self._host_link_cap = host_link_cap
        self._path_policy = path_policy
        # Index rows are only meaningful against the table they were baked
        # for; a provider without them, or over another graph's table, is
        # read path by path.
        self._template = (
            getattr(provider, "template", None)
            if getattr(provider, "table", None) is network.link_table()
            else None)

    @property
    def rng(self) -> random.Random:
        """The loader's path-tiebreak RNG (checkpointed by the crash-
        recovery snapshots so respawn placement resumes exactly)."""
        return self._rng

    @property
    def host_link_cap(self) -> float:
        """Maximum utilization background traffic may impose on host access
        links (the first and last hop of every path).

        Unlike fabric links, a host's access link appears on *every* path of
        that host's flows, so traffic on it can never be migrated away
        (paper Definition 1 has no alternate path to offer). The default cap
        of 0.9 leaves at least 100 Mbit/s of access headroom per host, which
        together with the event generator's per-host demand cap (also
        100 Mbit/s by default) guarantees update events remain placeable at
        every utilization level the paper evaluates (50–90%).
        """
        return self._host_link_cap

    def load_to_utilization(self, target: float, permanent: bool = True,
                            max_rejects: int = 2000,
                            max_flows: int = 100000) -> LoadReport:
        """Place flows until average switch-link utilization >= ``target``.

        Stop rule: the mean of the per-switch-link terms
        :meth:`Network.average_utilization` sums reaches ``target``. It is
        asked before the first sample and after each placed flow, never
        after a rejected sample, which changes nothing. A placed flow
        rewrites only its own switch links' terms, so the test is the same
        ``sum`` over the same values in the same order as a full re-scan
        and stops at the same flow.

        Args:
            target: desired average utilization in ``[0, 1)``.
            permanent: when True the placed flows have no duration (static
                background); when False they carry trace durations and the
                simulator may churn them.
            max_rejects: give up after this many consecutive unplaceable
                flows (the network is saturated for this trace's demands).
            max_flows: absolute cap on placed flows.

        Returns:
            A :class:`LoadReport`; ``utilization`` may fall short of the
            target if the network saturates first.
        """
        if not 0.0 <= target < 1.0:
            raise ValueError(f"target utilization must be in [0, 1), "
                             f"got {target}")
        network = self._network
        terms = network.switch_utilizations()
        placed: list[Flow] = []
        rejected = 0
        consecutive_rejects = 0
        below = _mean(terms) < target
        while below and len(placed) < max_flows:
            flow = self._trace.sample_flow(kind=FlowKind.BACKGROUND,
                                           permanent=permanent)
            path = self.best_path(flow)
            if path is None:
                rejected += 1
                consecutive_rejects += 1
                if consecutive_rejects >= max_rejects:
                    break
                continue
            try:
                placement = network.place(flow, path)
            except InsufficientBandwidthError:
                # best_path checks bandwidth; a switch rule table may still
                # reject the placement on rule-limited networks.
                rejected += 1
                consecutive_rejects += 1
                if consecutive_rejects >= max_rejects:
                    break
                continue
            for position, term in network.switch_utilizations_of(placement):
                terms[position] = term
            consecutive_rejects = 0
            placed.append(flow)
            below = _mean(terms) < target
        return LoadReport(placed=placed, rejected=rejected,
                          utilization=network.average_utilization())

    def best_path(self, flow: Flow) -> tuple[str, ...] | None:
        """A feasible path for ``flow``, or None.

        With the default ``random`` policy a uniformly random feasible
        candidate is chosen, modelling ECMP hashing (and leaving the
        utilization variance across links that real hashing produces — the
        congested links that update events then have to migrate around).
        The ``best`` policy picks the largest bottleneck residual instead,
        giving a near-perfectly balanced, lower-variance background.

        Paths whose host access links would exceed ``host_link_cap`` are
        rejected even when raw capacity remains (see :attr:`host_link_cap`).
        """
        src, dst = flow.src, flow.dst
        structure = (self._template(src, dst)
                     if self._template is not None else None)
        if structure is None:
            return self._choose(self._feasible_paths(flow))
        up, down, (__, rows) = structure
        feasible = self._feasible_rows(flow.demand, up, down, rows)
        if not feasible:
            return None
        if self._path_policy == "random":
            chosen = self._rng.choice(feasible)
        else:
            chosen = self._choose(feasible)
        return self._provider.join(src, dst, chosen, structure)

    def _choose(self, feasible: list[tuple[float, _T]]) -> _T | None:
        """One of the ``(residual, candidate)`` entries by the path policy;
        the draw depends only on how many there are and their residuals."""
        if not feasible:
            return None
        if self._path_policy == "random":
            return self._rng.choice(feasible)[1]
        best_residual = max(r for r, __ in feasible)
        choices = [c for r, c in feasible if r >= best_residual - EPS]
        return self._rng.choice(choices)

    def _feasible_rows(self, demand: float, up: int, down: int,
                       rows: tuple[tuple[int, ...], ...]) -> list:
        """A templated pair's feasible candidates in one pass over the
        columns: their indices under the ``random`` policy, whose draw
        needs only their count, and ``(residual, index)`` under ``best``.

        Every candidate shares the two access links, so their residual and
        the host cap are asked once for the pair; a candidate then adds
        only its row of middle links. A candidate is infeasible when
        ``min(access, row minimum) + EPS < demand``; float addition is
        monotone, so that holds exactly when some link's
        ``residual + EPS < demand``, and the ``random`` scan stops there.
        """
        network, limit = self._network, self._host_link_cap
        cap, used = network.capacity_col(), network.used_col()
        cap_up, used_up = cap[up], used[up]
        cap_down, used_down = cap[down], used[down]
        access = min(cap_up - used_up, cap_down - used_down)
        if (access + EPS < demand or used_up + demand > limit * cap_up
                or used_down + demand > limit * cap_down):
            return []
        feasible: list = []
        if self._path_policy == "random":
            for n, row in enumerate(rows):
                for i in row:
                    if cap[i] - used[i] + EPS < demand:
                        break
                else:
                    feasible.append(n)
            return feasible
        for n, row in enumerate(rows):
            residual = access
            for i in row:
                res = cap[i] - used[i]
                if res < residual:
                    residual = res
            if residual + EPS < demand:
                continue
            feasible.append((residual, n))
        return feasible

    def _feasible_paths(self, flow: Flow
                        ) -> list[tuple[float, tuple[str, ...]]]:
        """``(residual, path)`` of the pair's feasible candidates, one path
        object at a time: what any provider's ``paths()`` supports."""
        feasible = []
        # The host-cap answer depends only on a path's access links, which
        # can differ between candidates only for a multi-homed host.
        capped: dict[tuple[str, str, str, str], bool] = {}
        for path in self._provider.paths(flow.src, flow.dst):
            residual = self._network.path_residual(path)
            if residual + EPS < flow.demand:
                continue
            access = (path[0], path[1], path[-2], path[-1])
            over = capped.get(access)
            if over is None:
                over = capped[access] = self._exceeds_host_cap(
                    path, flow.demand)
            if over:
                continue
            feasible.append((residual, path))
        return feasible

    def _exceeds_host_cap(self, path: tuple[str, ...],
                          demand: float) -> bool:
        for u, v in (path[0], path[1]), (path[-2], path[-1]):
            cap = self._network.capacity(u, v)
            if self._network.used(u, v) + demand > self._host_link_cap * cap:
                return True
        return False

    def would_fit(self, flow: Flow) -> bool:
        """Feasibility probe without placement (Fig. 1's success test)."""
        return self.best_path(flow) is not None
