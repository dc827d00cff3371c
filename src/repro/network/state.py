"""The abstract network-state interface.

The live :class:`~repro.network.network.Network` and the probe cache's
:class:`~repro.network.footprint.FootprintRecorder` implement this
interface. The planner and schedulers try changes on the state itself, in a
:meth:`NetworkState.trial` they drop afterwards, so probing an update's cost
leaves no side effect — the heart of LMTF's cheap cost sampling.

Both share the network's one :class:`~repro.network.link.LinkTable`
(``link_table()``; the network adds reads indexed by it: the raw
``capacity_col``/``used_col`` columns and ``link_version_idx``), and every
path they hold is a :class:`~repro.network.routing.candidate.CandidatePath`
of that table: a plain node sequence is converted once, at ``place``. The
string-keyed reads below are one index lookup each.
"""

from __future__ import annotations

import abc
from typing import Iterable, Iterator, Sequence

from repro.core.exceptions import PlacementError, TopologyError
from repro.core.flow import Flow, Placement
from repro.network.link import EPS, LinkId


class NetworkState(abc.ABC):
    """Read/write view of link residuals and flow placements."""

    # ------------------------------------------------------------------ reads

    @abc.abstractmethod
    def capacity(self, u: str, v: str) -> float:
        """Capacity of directed link ``(u, v)`` in Mbit/s."""

    @abc.abstractmethod
    def used(self, u: str, v: str) -> float:
        """Bandwidth currently consumed on ``(u, v)`` in Mbit/s."""

    @abc.abstractmethod
    def flows_on_link(self, u: str, v: str) -> frozenset[str]:
        """Ids of flows whose path traverses ``(u, v)``."""

    @abc.abstractmethod
    def has_flow(self, flow_id: str) -> bool:
        """True when a flow with this id is placed."""

    @abc.abstractmethod
    def placement(self, flow_id: str) -> Placement:
        """The placement of a flow; raises ``UnknownFlowError`` if absent."""

    @abc.abstractmethod
    def flow_ids(self) -> Iterator[str]:
        """Iterate over the ids of all placed flows."""

    @abc.abstractmethod
    def links(self) -> Iterable[LinkId]:
        """Iterate over all directed links."""

    # ------------------------------------------------------------- versioning
    #
    # Monotonic per-link (and, on rule-tracking states, per-node) version
    # counters let probe results be memoized: a cached plan is provably still
    # valid when every link/node of its read/write footprint reports the same
    # version it had at planning time. States that do not implement
    # versioning report ``supports_versions = False`` and are simply never
    # cached against.

    @property
    def supports_versions(self) -> bool:
        """True when this state maintains mutation version counters."""
        return False

    def link_version(self, u: str, v: str) -> int:
        """Monotonic counter bumped on every mutation touching ``(u, v)``.

        Only meaningful when :attr:`supports_versions` is True; the default
        implementation returns 0 for every link.
        """
        return 0

    def node_version(self, node: str) -> int:
        """Monotonic counter bumped whenever ``node``'s rule-table occupancy
        changes. Always 0 on states that do not track rules."""
        return 0

    # -------------------------------------------------------------- mutations

    @abc.abstractmethod
    def place(self, flow: Flow, path: Sequence[str]) -> Placement:
        """Place ``flow`` on ``path``, consuming its demand on every link.

        Raises:
            InsufficientBandwidthError: some link lacks residual bandwidth.
            DuplicateFlowError: the flow id is already placed.
            InvalidPathError: the path is not a simple path in the graph.
        """

    @abc.abstractmethod
    def remove(self, flow_id: str) -> Placement:
        """Remove a placed flow, releasing its bandwidth; returns the old
        placement. Raises ``UnknownFlowError`` if absent."""

    @abc.abstractmethod
    def trial(self):
        """Open a nested savepoint (a
        :class:`~repro.network.network.Trial`): changes made until it is
        dropped are undone exactly, and a kept trial's changes stay."""

    def reroute(self, flow_id: str, new_path: Sequence[str]) -> Placement:
        """Atomically move a placed flow onto ``new_path``.

        The flow's own demand on shared links is released before feasibility
        is checked, so rerouting onto a path that overlaps the old one is
        allowed as long as the *net* usage fits. For a single unsplittable
        flow this condition coincides with the make-before-break transient
        condition (links shared with the old path already carry the flow;
        new-only links need the full demand either way) — see
        :mod:`repro.core.consistency` for the *plan-level* one-shot
        transition analysis, where the distinction is real. On *any*
        placement failure — insufficient bandwidth, a full rule table, an
        invalid or nonexistent path — the flow is restored to its old path
        before the error propagates, so a failed reroute never loses the
        flow.
        """
        old = self.remove(flow_id)
        try:
            return self.place(old.flow, new_path)
        except (PlacementError, TopologyError):
            self.place(old.flow, old.path)
            raise

    # ------------------------------------------------------------- rule space
    #
    # Default implementations model unlimited rule tables so states that do
    # not track rules (and overlays over them) pay nothing.

    def rule_capacity(self, node: str) -> int | None:
        """Rule-table size of ``node``; None means unlimited."""
        return None

    def rules_used(self, node: str) -> int:
        """Forwarding rules currently installed on ``node``."""
        return 0

    @property
    def tracks_rules(self) -> bool:
        """True when at least one node has a finite rule table."""
        return False

    # ------------------------------------------------------------ conveniences

    def residual(self, u: str, v: str) -> float:
        """Free bandwidth on ``(u, v)`` in Mbit/s (never below zero)."""
        return max(0.0, self.capacity(u, v) - self.used(u, v))

    @abc.abstractmethod
    def path_residual(self, path: Sequence[str],
                      ignore: frozenset[str] = frozenset()) -> float:
        """Bottleneck residual bandwidth along ``path``: the minimum of
        ``capacity - used`` over its links, in link order.

        Args:
            ignore: flow ids whose consumption should be discounted — used to
                ask "would this path fit if those flows were migrated away?".
        """

    @abc.abstractmethod
    def path_residuals(self, path: Sequence[str]) -> list[float]:
        """Per-link residuals along ``path``, in link order.

        Each entry equals :meth:`residual` of that link (clamped at zero),
        so congestion scans (:meth:`~repro.core.migration.MigrationPlanner.
        congested_links`) and deficit estimates can consume one vectorized
        read instead of a string-keyed call per link.
        """

    def path_feasible(self, path: Sequence[str], demand: float,
                      ignore: frozenset[str] = frozenset()) -> bool:
        """True when every link of ``path`` can absorb ``demand``."""
        return self.path_residual(path, ignore=ignore) + EPS >= demand

    def utilization(self, u: str, v: str) -> float:
        """Fraction of ``(u, v)``'s capacity in use (0 when capacity is 0)."""
        cap = self.capacity(u, v)
        return self.used(u, v) / cap if cap > 0 else 0.0
