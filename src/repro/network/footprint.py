"""Footprint recording for memoizable cost probes.

A probe's *footprint* is the set of links (and, on rule-tracking networks,
nodes) whose state the planner read or wrote while planning an event. When
every footprint member still reports the version it had at planning time
(see :meth:`NetworkState.link_version`), the live state is provably
unchanged on everything the plan depends on, so the cached
:class:`~repro.core.plan.EventPlan` — cost, migrations, paths, even
``planning_ops`` — is exactly what a fresh plan would produce.

Two pieces make that proof sound:

* :class:`FootprintRecorder` wraps the probed base state and records every
  primitive read. The planner plans on a ``NetworkView`` over the recorder,
  so every base access funnels through it; overlay-served reads were first
  populated from a recorded base read. Reads whose dependency set cannot be
  bounded to specific links (``flow_ids``/``links`` enumeration) mark the
  footprint *unbounded*, which vetoes caching.
* :class:`DrawCountingRandom` counts RNG draws. A plan that consumed
  randomness is **not** a pure function of the recorded reads — replanning
  at a different RNG-stream position could choose differently — so only
  zero-draw plans are memoized. This is what lets a cache-enabled run stay
  bit-identical to an uncached run: a cache hit skips a replan that would
  provably have made zero draws, leaving the shared planner RNG stream
  untouched either way.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.core.exceptions import TopologyError
from repro.core.flow import Flow, Placement
from repro.network.link import LinkId
from repro.network.routing.candidate import CandidatePath
from repro.network.state import NetworkState


@dataclass(frozen=True)
class Footprint:
    """The bounded read/write set of one planning run.

    ``link_idx`` holds the links as dense integer indices into the probed
    network's link table, which is what the probe cache validates against
    (one flat column read per member); ``nodes`` the rule-tracked nodes.
    """

    link_idx: frozenset[int]
    nodes: frozenset[str]

    def link_versions(self, state: NetworkState) -> dict[int, int]:
        """Snapshot the current version of every footprint link, by
        index."""
        version = state.link_version_idx
        return {i: version(i) for i in self.link_idx}

    def node_versions(self, state: NetworkState) -> dict[str, int]:
        return {node: state.node_version(node) for node in self.nodes}


class DrawCountingRandom(random.Random):
    """Delegates all entropy to a base RNG, counting the draws.

    Overriding ``random`` and ``getrandbits`` is sufficient: every other
    ``random.Random`` method (``choice``, ``sample``, ``shuffle``,
    ``uniform``, ...) derives its entropy from those two, so the base RNG's
    stream advances exactly as if it had been called directly.
    """

    def __init__(self, base: random.Random):
        super().__init__()
        self._base = base
        self.draws = 0

    def random(self) -> float:
        self.draws += 1
        return self._base.random()

    def getrandbits(self, k: int) -> int:
        self.draws += 1
        return self._base.getrandbits(k)


class FootprintRecorder(NetworkState):
    """Read-through wrapper that records which links/nodes a probe touched.

    ``placement``/``has_flow`` reads record the links of the flow's current
    path: any later reroute or removal of that flow bumps those links'
    versions, so the read is covered. A ``has_flow`` miss records nothing —
    flow ids are globally unique, so the id can only appear later through
    the very admission whose cache key already distinguishes that state.
    """

    def __init__(self, base: NetworkState):
        self._base = base
        self._table = base.link_table()
        #: Links read, by integer index.
        self.read_idx: set[int] = set()
        self.read_nodes: set[str] = set()
        #: False after a read whose dependencies span the whole state.
        self.bounded = True

    @property
    def base(self) -> NetworkState:
        return self._base

    def footprint(self) -> Footprint | None:
        """The recorded footprint, or None when it is unbounded."""
        if not self.bounded:
            return None
        return Footprint(link_idx=frozenset(self.read_idx),
                         nodes=frozenset(self.read_nodes))

    # ----------------------------------------------------------------- reads

    def capacity(self, u: str, v: str) -> float:
        # Capacities are immutable; reading one creates no dependency.
        return self._base.capacity(u, v)

    def used(self, u: str, v: str) -> float:
        used = self._base.used(u, v)
        self.read_idx.add(self._table.index[u, v])
        return used

    def flows_on_link(self, u: str, v: str) -> frozenset[str]:
        flows = self._base.flows_on_link(u, v)
        self.read_idx.add(self._table.index[u, v])
        return flows

    def has_flow(self, flow_id: str) -> bool:
        present = self._base.has_flow(flow_id)
        if present:
            self._record_placement_links(self._base.placement(flow_id))
        return present

    def placement(self, flow_id: str) -> Placement:
        placement = self._base.placement(flow_id)
        self._record_placement_links(placement)
        return placement

    def flow_ids(self) -> Iterator[str]:
        self.bounded = False
        return self._base.flow_ids()

    def links(self) -> Iterable[LinkId]:
        self.bounded = False
        return self._base.links()

    # ------------------------------------------------------- indexed kernel
    #
    # Views over the recorder resolve their chain through these, so
    # int-keyed reads are recorded exactly like their string-keyed
    # equivalents (capacity excepted — it is immutable, hence dependency-free).

    def link_table(self):
        return self._table

    def capacity_col(self):
        return self._base.capacity_col()

    def capacity_idx(self, i: int) -> float:
        return self._base.capacity_idx(i)

    def used_idx(self, i: int) -> float:
        self.read_idx.add(i)
        return self._base.used_idx(i)

    def flows_idx(self, i: int):
        self.read_idx.add(i)
        return self._base.flows_idx(i)

    def link_version_idx(self, i: int) -> int:
        return self._base.link_version_idx(i)

    def _record_placement_links(self, placement: Placement) -> None:
        self.read_idx.update(placement.path.link_idx)

    def path_residual(self, path: Sequence[str],
                      ignore: frozenset[str] = frozenset()) -> float:
        # An ignored flow joins or leaves a link only by bumping its
        # version, so the path's links cover the ``ignore`` term too.
        path = CandidatePath.of(path, self._table, TopologyError)
        self.read_idx.update(path.link_idx)
        return self._base.path_residual(path, ignore)

    def path_residuals(self, path: Sequence[str]) -> list[float]:
        path = CandidatePath.of(path, self._table, TopologyError)
        self.read_idx.update(path.link_idx)
        return self._base.path_residuals(path)

    # ------------------------------------------------------------ rule space

    def rule_capacity(self, node: str) -> int | None:
        # Rule capacities are immutable, like link capacities.
        return self._base.rule_capacity(node)

    def rules_used(self, node: str) -> int:
        self.read_nodes.add(node)
        return self._base.rules_used(node)

    @property
    def tracks_rules(self) -> bool:
        return self._base.tracks_rules

    # ------------------------------------------------------------ versioning

    @property
    def supports_versions(self) -> bool:
        return self._base.supports_versions

    def link_version(self, u: str, v: str) -> int:
        return self._base.link_version(u, v)

    def node_version(self, node: str) -> int:
        return self._base.node_version(node)

    # ------------------------------------------------------------- mutations
    #
    # Probing plans on a NetworkView over the recorder, so these are never
    # reached with commit=False; they delegate (recording the touched links)
    # so the recorder stays a faithful NetworkState regardless.

    def place(self, flow: Flow, path: Sequence[str]) -> Placement:
        path = CandidatePath.of(path, self._table)
        self.read_idx.update(path.link_idx)
        return self._base.place(flow, path)

    def remove(self, flow_id: str) -> Placement:
        placement = self._base.remove(flow_id)
        self._record_placement_links(placement)
        return placement
