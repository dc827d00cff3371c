"""The live network: link capacities, residuals, and the placed-flow table.

This is the congestion-free substrate of paper §III-A: every flow is
unsplittable, consumes its demand ``d^f`` on each link of its single path, and
a placement is rejected (``InsufficientBandwidthError``) rather than allowed
to oversubscribe a link. :meth:`Network.check_invariants` re-derives all link
usage from the flow table and is used by the test suite and (optionally) the
simulator to assert the substrate never drifts.

Link state lives in flat columns indexed by the graph's interned
:class:`~repro.network.link.LinkTable`: ``capacity``/``used`` in
``list[float]`` (a list hands out the float it holds, where an
``array('d')`` boxes a new one on every read, and a k=8 fat-tree's 768
links make the bytes moot), versions in a ``list[int]`` and the ids of the
flows on each link in a ``list[str]`` (in placement order), one slot per
directed link. The flow lists serve Definition 1 alone (the flows on a
congested link) and hold a few dozen ids (at most 62 at k=4 under 85 %
load), so ``list.remove`` is cheap; a set would never shrink after churn's
discards.
The string-keyed API is a thin shim over the columns. Every placed path is
a :class:`~repro.network.routing.candidate.CandidatePath` of the network's
table, carrying its link indices precomputed (a plain node sequence is
converted once, at :meth:`Network.place`), so the hot loops (feasibility
checks, placement, removal, residual scans) iterate int tuples over the
columns with no per-call tuple building or string-pair hashing.

What-if work (cost probes, migration attempts, P-LMTF's batch, the safe
ordering search) runs on the columns themselves inside a :meth:`Network.trial`:
a nested, stack-shaped savepoint. While a trial is open each
``place``/``remove`` appends one entry to a trail (the ``used`` floats it
overwrote, and for a removal the position the id held in each link's flow
list); keeping a trial is O(1), and dropping it undoes the trail newest
first, restoring every column bit for bit. A flow removed inside a trial
keeps its slot in the flow table as a ``None`` tombstone, so a drop puts
it back where it was and the table's order never moves.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.core.exceptions import (
    DuplicateFlowError,
    InsufficientBandwidthError,
    RuleSpaceError,
    TopologyError,
    UnknownFlowError,
)
from repro.core.flow import Flow, Placement
from repro.network.link import (
    EPS,
    LinkId,
    LinkTable,
    format_link,
    link_table_for,
)
from repro.network.routing.candidate import CandidatePath
from repro.network.state import NetworkState

if TYPE_CHECKING:
    from repro.network.topology.base import Graph

#: Trail entry kinds: the first field of every trail tuple.
_PLACE, _REMOVE = 0, 1


class Trial:
    """One open savepoint of a :class:`Network` (see :meth:`Network.trial`).

    Resolve it with :meth:`keep` or :meth:`drop`; leaving a ``with`` block
    drops it unless it was kept, so an exception never leaks a half-tried
    change. Trials nest like a stack: only the innermost open one may be
    resolved.
    """

    __slots__ = ("_network", "_depth")

    def __init__(self, network: "Network", depth: int) -> None:
        self._network = network
        self._depth = depth

    def __enter__(self) -> "Trial":
        return self

    def __exit__(self, *exc) -> None:
        if self._depth:
            self.drop()

    def keep(self) -> None:
        """Keep the trial's changes: they become the enclosing trial's
        (or, for the outermost trial, the network's)."""
        self._network._keep_trial(self._resolve())

    def drop(self) -> None:
        """Undo every change made since the trial opened."""
        self._network._drop_trial(self._resolve())

    def _resolve(self) -> int:
        depth = self._depth
        if not depth or depth != len(self._network._marks):
            raise RuntimeError("only the innermost open trial can be "
                               "resolved, once")
        self._depth = 0
        return depth


class Network(NetworkState):
    """A directed-capacity network holding a table of placed flows.

    Args:
        graph: a directed graph whose edges carry a ``capacity`` attribute in
            Mbit/s. Node attribute ``kind`` (e.g. ``"host"``, ``"edge"``,
            ``"aggr"``, ``"core"``) is preserved for routing and reporting
            but not required. Node attribute ``rule_capacity`` (int) limits
            how many flows a switch's forwarding table can hold.
        default_capacity: capacity assumed for edges without the attribute.
        default_rule_capacity: rule-table size assumed for every non-host
            node without its own ``rule_capacity`` attribute; ``None``
            (default) means unlimited — rule accounting is then skipped
            entirely for nodes without explicit capacities, keeping the
            bandwidth-only hot path unchanged.
    """

    def __init__(self, graph: Graph, default_capacity: float = 1000.0,
                 default_rule_capacity: int | None = None):
        if graph.number_of_nodes() == 0:
            raise TopologyError("cannot build a network from an empty graph")
        self._graph = graph
        self._table = link_table_for(graph)
        caps = []
        for u, v in self._table.ids:
            cap = float(graph.edges[u, v].get("capacity", default_capacity))
            if cap < 0:
                raise TopologyError(f"link {format_link((u, v))} has negative "
                                    f"capacity {cap}")
            caps.append(cap)
        n = len(self._table)
        self._cap_col: list[float] = caps
        self._used_col: list[float] = [0.0] * n
        self._ver_col: list[int] = [0] * n
        self._flows_col: list[list[str]] = [[] for _ in range(n)]
        # flow id -> placement; None is a trial's tombstone (see trial()).
        self._placements: dict[str, Placement | None] = {}
        # The open trials' shared trail (None when no trial is open), and
        # the trail length at each open trial's start, outermost first.
        self._trail: list[tuple] | None = None
        self._marks: list[int] = []
        # Rule-tracking nodes get their own dense index and columns.
        self._node_index: dict[str, int] = {}
        rule_caps: list[int] = []
        for node, data in graph.nodes(data=True):
            explicit = data.get("rule_capacity")
            if explicit is not None:
                if int(explicit) < 0:
                    raise TopologyError(f"{node}: rule_capacity must be "
                                        f">= 0, got {explicit}")
                self._node_index[node] = len(rule_caps)
                rule_caps.append(int(explicit))
            elif (default_rule_capacity is not None
                  and data.get("kind") != "host"):
                if default_rule_capacity < 0:
                    raise TopologyError("default_rule_capacity must be "
                                        ">= 0")
                self._node_index[node] = len(rule_caps)
                rule_caps.append(default_rule_capacity)
        self._rule_cap_col: list[int] = rule_caps
        self._rules_used_col: list[int] = [0] * len(rule_caps)
        # Monotonic mutation counters: bumped for every link (and, on
        # rule-tracking networks, every path node) a place/remove touches.
        # Probe memoization (sched.cache) uses them to prove a cached plan's
        # footprint is unchanged.
        self._node_ver_col: list[int] = [0] * len(rule_caps)
        # Indices of the switch-switch links, in table order: the column
        # the utilization statistics sum over.
        hosts = {n for n, d in graph.nodes(data=True)
                 if d.get("kind") == "host"}
        self._switch_idx: list[int] = [
            i for i, (u, v) in enumerate(self._table.ids)
            if u not in hosts and v not in hosts]
        # Each switch link's position in that column.
        self._switch_pos: dict[int, int] = {
            i: p for p, i in enumerate(self._switch_idx)}

    # ------------------------------------------------------------- structure

    @property
    def graph(self) -> Graph:
        """The underlying topology graph (shared, do not mutate)."""
        return self._graph

    def hosts(self) -> list[str]:
        """Nodes whose ``kind`` attribute is ``"host"``."""
        return [n for n, d in self._graph.nodes(data=True)
                if d.get("kind") == "host"]

    def switches(self) -> list[str]:
        """Nodes that are not hosts."""
        return [n for n, d in self._graph.nodes(data=True)
                if d.get("kind") != "host"]

    def has_link(self, u: str, v: str) -> bool:
        return (u, v) in self._table.index

    def links(self) -> Iterable[LinkId]:
        return self._table.ids

    def switch_links(self) -> list[LinkId]:
        """Links between switches (excludes host access links); utilization
        statistics in the paper's sense are computed over these."""
        ids = self._table.ids
        return [ids[i] for i in self._switch_idx]

    # ------------------------------------------------------- indexed kernel
    #
    # The int-keyed protocol the hot loops run on. Indices are positions in
    # ``link_table()``; only states rooted at the same table may exchange
    # them (a path indexed against another table is re-indexed on entry).

    def link_table(self) -> LinkTable:
        return self._table

    def capacity_col(self) -> list[float]:
        """The raw capacity column (immutable by convention)."""
        return self._cap_col

    def used_col(self) -> list[float]:
        """The raw used column — callers must not mutate it."""
        return self._used_col

    def link_version_idx(self, i: int) -> int:
        return self._ver_col[i]

    def _link_index(self, u: str, v: str) -> int:
        i = self._table.index.get((u, v))
        if i is None:
            raise TopologyError(f"no link {format_link((u, v))}")
        return i

    # ----------------------------------------------------------------- reads

    def capacity(self, u: str, v: str) -> float:
        return self._cap_col[self._link_index(u, v)]

    def used(self, u: str, v: str) -> float:
        return self._used_col[self._link_index(u, v)]

    def flows_on_link(self, u: str, v: str) -> frozenset[str]:
        return frozenset(self._flows_col[self._link_index(u, v)])

    def has_flow(self, flow_id: str) -> bool:
        return self._placements.get(flow_id) is not None

    def placement(self, flow_id: str) -> Placement:
        placement = self._placements.get(flow_id)
        if placement is None:
            raise UnknownFlowError(f"flow {flow_id!r} is not placed")
        return placement

    def flow_ids(self) -> Iterator[str]:
        return iter([fid for fid, placement in self._placements.items()
                     if placement is not None])

    def path_residual(self, path: Sequence[str],
                      ignore: frozenset[str] = frozenset()) -> float:
        if type(path) is not CandidatePath or path.table is not self._table:
            path = CandidatePath.of(path, self._table, TopologyError)
        idx = path.link_idx
        cap, used = self._cap_col, self._used_col
        best = float("inf")
        if not ignore:
            for i in idx:
                res = cap[i] - used[i]
                if res < best:
                    best = res
            return best
        flows_col, placements = self._flows_col, self._placements
        for i in idx:
            res = cap[i] - used[i]
            flows = flows_col[i]
            for fid in ignore:
                if fid in flows:
                    res += placements[fid].flow.demand
            if res < best:
                best = res
        return best

    def path_residuals(self, path: Sequence[str]) -> list[float]:
        if type(path) is not CandidatePath or path.table is not self._table:
            path = CandidatePath.of(path, self._table, TopologyError)
        idx = path.link_idx
        cap, used = self._cap_col, self._used_col
        return [max(0.0, cap[i] - used[i]) for i in idx]

    # ------------------------------------------------------------- mutations

    def place(self, flow: Flow, path: Sequence[str]) -> Placement:
        if self._placements.get(flow.flow_id) is not None:
            raise DuplicateFlowError(f"flow {flow.flow_id!r} already placed")
        if type(path) is not CandidatePath or path.table is not self._table:
            path = CandidatePath.of(path, self._table)
        placement = Placement(flow, path)
        idx = path.link_idx
        cap, used, demand = self._cap_col, self._used_col, flow.demand
        for i in idx:
            free = cap[i] - used[i]
            if free + EPS < demand:
                u, v = self._table.ids[i]
                raise InsufficientBandwidthError(
                    f"link {format_link((u, v))} has {free:.3f} Mbit/s free, "
                    f"flow {flow.flow_id} needs {flow.demand:.3f}",
                    bottleneck=(u, v), deficit=flow.demand - free)
        if self._node_index:
            node_index = self._node_index
            for node in placement.path:
                ni = node_index.get(node)
                if ni is not None \
                        and self._rules_used_col[ni] >= self._rule_cap_col[ni]:
                    raise RuleSpaceError(
                        f"switch {node} rule table full "
                        f"({self._rule_cap_col[ni]} rules), cannot install "
                        f"{flow.flow_id}", switch=node)
        flows_col, ver = self._flows_col, self._ver_col
        fid = flow.flow_id
        if self._trail is not None:
            # A tombstone in the slot means the id was removed earlier in
            # this trial: the placement takes the slot back.
            self._trail.append((_PLACE, fid, placement,
                                [used[i] for i in idx],
                                fid in self._placements))
        for i in idx:
            used[i] += demand
            flows_col[i].append(fid)
            ver[i] += 1
        if self._node_index:
            for node in placement.path:
                ni = self._node_index.get(node)
                if ni is not None:
                    self._rules_used_col[ni] += 1
                    self._node_ver_col[ni] += 1
        self._placements[fid] = placement
        return placement

    def remove(self, flow_id: str) -> Placement:
        placement = self._placements.get(flow_id)
        if placement is None:
            raise UnknownFlowError(f"flow {flow_id!r} is not placed")
        used, flows_col, ver = self._used_col, self._flows_col, self._ver_col
        demand = placement.flow.demand
        if self._trail is None:
            for i in placement.path.link_idx:
                left = used[i] - demand
                # Guard against float drift; usage can never be negative.
                used[i] = left if left >= 0 else 0.0
                flows_col[i].remove(flow_id)
                ver[i] += 1
            del self._placements[flow_id]
        else:
            saved, positions = [], []
            for i in placement.path.link_idx:
                saved.append(used[i])
                left = used[i] - demand
                used[i] = left if left >= 0 else 0.0
                flows = flows_col[i]
                pos = flows.index(flow_id)
                del flows[pos]
                positions.append(pos)
                ver[i] += 1
            self._trail.append((_REMOVE, flow_id, placement, saved,
                                positions))
            self._placements[flow_id] = None
        if self._node_index:
            for node in placement.path:
                ni = self._node_index.get(node)
                if ni is not None:
                    self._rules_used_col[ni] -= 1
                    self._node_ver_col[ni] += 1
        return placement

    # ---------------------------------------------------------------- trials

    def trial(self) -> Trial:
        """Open a savepoint: every later ``place``/``remove`` can be undone.

        Use it as ``with network.trial() as trial: ...; trial.keep()``.
        Inside, reads are the live columns; leaving the block without
        :meth:`Trial.keep` drops the trial, which restores the ``used``
        floats, each flow id's position in the per-link flow lists, the
        version counters, the rule columns and the flow table's order
        exactly. Trials nest; a kept inner trial's changes belong to the
        enclosing one until that one is resolved.
        """
        if self._trail is None:
            self._trail = []
        self._marks.append(len(self._trail))
        return Trial(self, len(self._marks))

    @property
    def trial_open(self) -> bool:
        """True while some trial is open."""
        return self._trail is not None

    def _keep_trial(self, depth: int) -> None:
        self._marks.pop()
        if depth > 1:
            return
        # The outermost trial is kept: order the flow table as the same
        # operations made outside a trial would have (each live placement
        # made in the trial at the end, in the order it was made) and
        # clear the tombstones.
        placements = self._placements
        for kind, fid, placement, __, ___ in self._trail:
            if kind == _PLACE:
                if placements.get(fid) is placement:
                    placements[fid] = placements.pop(fid)
            elif fid in placements and placements[fid] is None:
                del placements[fid]
        self._trail = None

    def _drop_trial(self, depth: int) -> None:
        mark = self._marks.pop()
        trail = self._trail
        used, flows_col, ver = self._used_col, self._flows_col, self._ver_col
        placements, node_index = self._placements, self._node_index
        for k in range(len(trail) - 1, mark - 1, -1):
            kind, fid, placement, saved, extra = trail[k]
            idx = placement.path.link_idx
            if kind == _PLACE:
                # Every later entry is already undone, so the id is last
                # in each of its links' lists.
                for i, value in zip(idx, saved):
                    used[i] = value
                    flows_col[i].pop()
                    ver[i] -= 1
                if extra:
                    placements[fid] = None
                else:
                    del placements[fid]
                step = -1
            else:
                for i, value, pos in zip(idx, saved, extra):
                    used[i] = value
                    flows_col[i].insert(pos, fid)
                    ver[i] -= 1
                placements[fid] = placement
                step = 1
            if node_index:
                for node in placement.path:
                    ni = node_index.get(node)
                    if ni is not None:
                        self._rules_used_col[ni] += step
                        self._node_ver_col[ni] -= 1
        del trail[mark:]
        if depth == 1:
            self._trail = None

    def _set_capacity(self, u: str, v: str, value: float) -> None:
        """Overwrite one link's capacity (failure injection only).

        Capacities are otherwise immutable; ``FailureInjector`` zeroes them
        to take links down and restores them on heal. The link's
        version counter is bumped so every probe-cache entry whose
        footprint touches the link is invalidated: a cached plan computed
        before the failure is provably stale once the capacity changed.
        """
        i = self._link_index(u, v)
        self._cap_col[i] = float(value)
        self._ver_col[i] += 1

    # ----------------------------------------------------------- versioning

    @property
    def supports_versions(self) -> bool:
        return True

    def link_version(self, u: str, v: str) -> int:
        return self._ver_col[self._link_index(u, v)]

    def node_version(self, node: str) -> int:
        ni = self._node_index.get(node)
        return self._node_ver_col[ni] if ni is not None else 0

    def version_snapshot(self) -> tuple[list[int], list[int]]:
        """Copies of the link/node version columns, for
        :meth:`restore_versions`."""
        return list(self._ver_col), list(self._node_ver_col)

    def restore_versions(self,
                         snapshot: tuple[list[int], list[int]]) -> None:
        """Reset the version counters to a snapshot of this network.

        Only valid when the state *content* is bit-identical to what it was
        at snapshot time. The executor uses this after rolling back a
        failed execution attempt: the roll-forward/roll-back pair bumps
        every touched link's counter even though nothing net-changed, and
        restoring the counters keeps memoized probe plans provably fresh
        across the no-op attempt.
        """
        ver, node_ver = snapshot
        self._ver_col[:] = ver
        self._node_ver_col[:] = node_ver

    # ----------------------------------------------------------- rule space

    def rule_capacity(self, node: str) -> int | None:
        """Rule-table size of ``node``; None means unlimited."""
        ni = self._node_index.get(node)
        return self._rule_cap_col[ni] if ni is not None else None

    def rules_used(self, node: str) -> int:
        """Forwarding rules currently installed on ``node``."""
        ni = self._node_index.get(node)
        return self._rules_used_col[ni] if ni is not None else 0

    def rules_free(self, node: str) -> int | None:
        """Remaining rule slots on ``node``; None means unlimited."""
        ni = self._node_index.get(node)
        if ni is None:
            return None
        return self._rule_cap_col[ni] - self._rules_used_col[ni]

    @property
    def tracks_rules(self) -> bool:
        """True when at least one node has a finite rule table."""
        return bool(self._node_index)

    # ------------------------------------------------------------ statistics

    def average_utilization(self, links: Iterable[LinkId] | None = None) -> float:
        """Mean utilization over ``links`` (default: switch-switch links)."""
        terms = self._utilizations(links)
        return sum(terms) / len(terms) if terms else 0.0

    def max_utilization(self, links: Iterable[LinkId] | None = None) -> float:
        return max(self._utilizations(links), default=0.0)

    def _utilizations(self, links: Iterable[LinkId] | None) -> list[float]:
        """Per-link utilization of ``links``, or of the switch-link column
        when ``None`` — same order and arithmetic as :meth:`utilization`
        over :meth:`switch_links`, without the string-keyed lookups."""
        if links is not None:
            return [self.utilization(u, v) for u, v in links]
        return self.switch_utilizations()

    def switch_utilizations(self) -> list[float]:
        """Utilization of each switch link, in :meth:`switch_links` order:
        the terms :meth:`average_utilization` sums."""
        return self._switch_terms(self._switch_idx)

    def switch_utilizations_of(self, placement: Placement
                               ) -> list[tuple[int, float]]:
        """``(position, utilization)`` of each switch link on
        ``placement``'s path, positions into :meth:`switch_utilizations`'
        list: the only entries placing or removing it can change."""
        pos = self._switch_pos
        idx = [i for i in placement.path.link_idx if i in pos]
        return list(zip([pos[i] for i in idx], self._switch_terms(idx)))

    def _switch_terms(self, idx: Iterable[int]) -> list[float]:
        cap, used = self._cap_col, self._used_col
        return [used[i] / cap[i] if cap[i] > 0 else 0.0 for i in idx]

    def total_capacity(self) -> float:
        return sum(self._cap_col)

    def total_used(self) -> float:
        return sum(self._used_col)

    # ------------------------------------------------------------- invariants

    def check_invariants(self) -> None:
        """Re-derive link usage from the flow table and assert consistency.

        Raises:
            AssertionError: a trial is open, usage bookkeeping drifted from
                the flow table, a link is oversubscribed, or a link-flow
                index is stale.
        """
        assert self._trail is None, (
            f"{len(self._marks)} trial(s) still open")
        n = len(self._table)
        derived_used = [0.0] * n
        derived_flows: list[set[str]] = [set() for _ in range(n)]
        for fid, placement in self._placements.items():
            for i in placement.path.link_idx:
                derived_used[i] += placement.flow.demand
                derived_flows[i].add(fid)
        for i, link in enumerate(self._table.ids):
            assert abs(derived_used[i] - self._used_col[i]) < 1e-3, (
                f"link {format_link(link)}: tracked used {self._used_col[i]} "
                f"!= derived {derived_used[i]}")
            flows = self._flows_col[i]
            assert len(set(flows)) == len(flows) \
                and derived_flows[i] == set(flows), (
                f"link {format_link(link)}: stale flow index")
            assert self._used_col[i] <= self._cap_col[i] + 1e-3, (
                f"link {format_link(link)} oversubscribed: "
                f"{self._used_col[i]} > {self._cap_col[i]}")
        if self._node_index:
            derived_rules = [0] * len(self._rule_cap_col)
            for placement in self._placements.values():
                for node in placement.path:
                    ni = self._node_index.get(node)
                    if ni is not None:
                        derived_rules[ni] += 1
            for node, ni in self._node_index.items():
                assert derived_rules[ni] == self._rules_used_col[ni], (
                    f"switch {node}: tracked rules "
                    f"{self._rules_used_col[ni]} != derived "
                    f"{derived_rules[ni]}")
                assert self._rules_used_col[ni] <= self._rule_cap_col[ni], (
                    f"switch {node} rule table over budget: "
                    f"{self._rules_used_col[ni]} > {self._rule_cap_col[ni]}")

    # ----------------------------------------------------------------- copies

    def copy(self) -> "Network":
        """An independent network with the same placements.

        The topology graph, link table, and node index are shared (they are
        never mutated); the state columns are duplicated — a handful of
        flat list copies rather than per-entry dict rebuilds. Experiments
        load background traffic once and hand each scheduler run its own
        copy, so all schedulers face an identical starting state. No trial
        may be open; the copy has none.
        """
        assert self._trail is None, "copy inside an open trial"
        clone = Network.__new__(Network)
        clone._graph = self._graph
        clone._table = self._table
        clone._cap_col = list(self._cap_col)
        clone._used_col = list(self._used_col)
        clone._ver_col = list(self._ver_col)
        clone._flows_col = [list(flows) for flows in self._flows_col]
        clone._placements = dict(self._placements)
        clone._trail = None
        clone._marks = []
        clone._node_index = self._node_index
        clone._switch_idx = self._switch_idx
        clone._switch_pos = self._switch_pos
        clone._rule_cap_col = list(self._rule_cap_col)
        clone._rules_used_col = list(self._rules_used_col)
        clone._node_ver_col = list(self._node_ver_col)
        return clone
