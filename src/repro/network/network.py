"""The live network: link capacities, residuals, and the placed-flow table.

This is the congestion-free substrate of paper §III-A: every flow is
unsplittable, consumes its demand ``d^f`` on each link of its single path, and
a placement is rejected (``InsufficientBandwidthError``) rather than allowed
to oversubscribe a link. :meth:`Network.check_invariants` re-derives all link
usage from the flow table and is used by the test suite and (optionally) the
simulator to assert the substrate never drifts.

Link state lives in flat columns indexed by the graph's interned
:class:`~repro.network.link.LinkTable`: ``capacity``/``used`` in
``array('d')`` and versions in a ``list[int]``, one slot per directed link.
The string-keyed API is a thin shim over the columns;
:class:`~repro.network.routing.candidate.CandidatePath` objects carry their
link indices precomputed, so the hot loops (feasibility checks, placement,
residual scans) iterate int tuples over the columns with no per-call tuple
building or string-pair hashing.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, Mapping, Sequence

import networkx as nx

from repro.core.exceptions import (
    DuplicateFlowError,
    InsufficientBandwidthError,
    InvalidPathError,
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
    is_simple_path,
    link_table_for,
    path_links,
)
from repro.network.state import NetworkState


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

    def __init__(self, graph: nx.DiGraph, default_capacity: float = 1000.0,
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
        self._cap_col = array("d", caps)
        self._used_col = array("d", bytes(8 * n))
        self._ver_col: list[int] = [0] * n
        self._flows_col: list[set[str]] = [set() for _ in range(n)]
        self._placements: dict[str, Placement] = {}
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
        kinds: Mapping[str, str] = nx.get_node_attributes(graph, "kind")
        self._switch_idx: list[int] = [
            i for i, (u, v) in enumerate(self._table.ids)
            if kinds.get(u) != "host" and kinds.get(v) != "host"]
        # Each switch link's position in that column.
        self._switch_pos: dict[int, int] = {
            i: p for p, i in enumerate(self._switch_idx)}

    # ------------------------------------------------------------- structure

    @property
    def graph(self) -> nx.DiGraph:
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
    # them (views and recorders check table identity before trusting baked
    # ``CandidatePath.link_idx`` tuples).

    def link_table(self) -> LinkTable:
        return self._table

    def capacity_col(self) -> array:
        """The raw capacity column (immutable by convention)."""
        return self._cap_col

    def used_idx(self, i: int) -> float:
        return self._used_col[i]

    def capacity_idx(self, i: int) -> float:
        return self._cap_col[i]

    def link_version_idx(self, i: int) -> int:
        return self._ver_col[i]

    def flows_idx(self, i: int) -> set[str]:
        """The live flow set of link ``i`` — callers must not mutate it."""
        return self._flows_col[i]

    def row_residuals(self,
                      rows: Iterable[Sequence[int]]) -> list[float]:
        """The bottleneck residual of each row of link indices (``inf`` for
        an empty row): :meth:`path_residual` for callers that hold a pair's
        candidates as index rows instead of path objects."""
        cap, used, inf = self._cap_col, self._used_col, float("inf")
        residuals = []
        for row in rows:
            best = inf
            for i in row:
                res = cap[i] - used[i]
                if res < best:
                    best = res
            residuals.append(best)
        return residuals

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
        return flow_id in self._placements

    def placement(self, flow_id: str) -> Placement:
        try:
            return self._placements[flow_id]
        except KeyError:
            raise UnknownFlowError(f"flow {flow_id!r} is not placed") from None

    def flow_ids(self) -> Iterator[str]:
        return iter(list(self._placements))

    def flow_count(self) -> int:
        return len(self._placements)

    def path_residual(self, path: Sequence[str],
                      ignore: frozenset[str] = frozenset()) -> float:
        idx = getattr(path, "link_idx", None)
        if idx is None or path.table is not self._table:
            return super().path_residual(path, ignore=ignore)
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
            for fid in flows_col[i] & ignore:
                res += placements[fid].flow.demand
            if res < best:
                best = res
        return best

    def path_residuals(self, path: Sequence[str]) -> list[float]:
        idx = getattr(path, "link_idx", None)
        if idx is None or path.table is not self._table:
            return super().path_residuals(path)
        cap, used = self._cap_col, self._used_col
        return [max(0.0, cap[i] - used[i]) for i in idx]

    # ------------------------------------------------------------- mutations

    def _path_indices(self, placement: Placement) -> Sequence[int]:
        """The link indices of a placement's path.

        Candidate paths carry them baked; anything else (a plain
        node tuple from a test or trace) is mapped through the table. The
        path was validated at ``place`` time, so every link resolves.
        """
        idx = getattr(placement.path, "link_idx", None)
        if idx is not None and placement.path.table is self._table:
            return idx
        index = self._table.index
        return [index[link] for link in placement.links]

    def place(self, flow: Flow, path: Sequence[str]) -> Placement:
        if flow.flow_id in self._placements:
            raise DuplicateFlowError(f"flow {flow.flow_id!r} already placed")
        placement = Placement(
            flow=flow, path=path if isinstance(path, tuple) else tuple(path))
        idx = getattr(placement.path, "link_idx", None)
        if idx is None or placement.path.table is not self._table:
            # Candidate paths are validated when the provider builds them;
            # anything else is checked here.
            self._validate_path(placement.path)
            index = self._table.index
            idx = [index[link] for link in placement.links]
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
        for i in idx:
            used[i] += demand
            flows_col[i].add(fid)
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
        placement = self.placement(flow_id)
        used, flows_col, ver = self._used_col, self._flows_col, self._ver_col
        demand = placement.flow.demand
        for i in self._path_indices(placement):
            used[i] -= demand
            if used[i] < 0:
                # Guard against float drift; usage can never be negative.
                used[i] = 0.0
            flows_col[i].discard(flow_id)
            ver[i] += 1
        if self._node_index:
            for node in placement.path:
                ni = self._node_index.get(node)
                if ni is not None:
                    self._rules_used_col[ni] -= 1
                    self._node_ver_col[ni] += 1
        del self._placements[flow_id]
        return placement

    def _set_capacity(self, u: str, v: str, value: float) -> None:
        """Overwrite one link's capacity (failure injection only).

        Capacities are otherwise immutable; ``FailureInjector`` zeroes them
        to take links down and restores them on heal. Views pick the change
        up immediately — they read the shared capacity column. The link's
        version counter is bumped so every probe-cache entry whose
        footprint touches the link is invalidated: a cached plan computed
        before the failure is provably stale once the capacity changed.
        """
        i = self._link_index(u, v)
        self._cap_col[i] = value
        self._ver_col[i] += 1

    def _validate_path(self, path: tuple[str, ...]) -> None:
        if not is_simple_path(path):
            raise InvalidPathError(f"path {path!r} is not a simple path")
        index = self._table.index
        for u, v in path_links(path):
            if (u, v) not in index:
                raise InvalidPathError(
                    f"path uses nonexistent link {format_link((u, v))}")

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
        idx = [i for i in self._path_indices(placement) if i in pos]
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
            AssertionError: usage bookkeeping drifted from the flow table, a
                link is oversubscribed, or a link-flow index is stale.
        """
        n = len(self._table)
        derived_used = [0.0] * n
        derived_flows: list[set[str]] = [set() for _ in range(n)]
        for fid, placement in self._placements.items():
            for i in self._path_indices(placement):
                derived_used[i] += placement.flow.demand
                derived_flows[i].add(fid)
        for i, link in enumerate(self._table.ids):
            assert abs(derived_used[i] - self._used_col[i]) < 1e-3, (
                f"link {format_link(link)}: tracked used {self._used_col[i]} "
                f"!= derived {derived_used[i]}")
            assert derived_flows[i] == self._flows_col[i], (
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

    # -------------------------------------------------------- checkpointing

    def export_state(self) -> dict:
        """JSON-ready encoding of the mutable network state.

        The topology graph and link table are rebuildable from the scenario
        spec, so only the state columns and the flow table are exported.
        The float columns are carried verbatim (not re-derived from the
        placements) because the original values embed this run's exact
        addition/subtraction history — re-summing demands in a different
        order rounds differently, and residual comparisons sit on those
        last bits.
        """
        placements = [
            {"flow": p.flow.to_payload(), "path": list(p.path)}
            for p in self._placements.values()]
        return {
            "placements": placements,
            "cap_col": list(self._cap_col),
            "used_col": list(self._used_col),
            "ver_col": list(self._ver_col),
            "rules_used_col": list(self._rules_used_col),
            "node_ver_col": list(self._node_ver_col),
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite this network's mutable state from :meth:`export_state`.

        Must be called on a network built from the *same* topology (same
        link table layout); placements are rebuilt in export order and all
        columns are overwritten bit-exactly.
        """
        n = len(self._table)
        if len(state["used_col"]) != n or len(state["cap_col"]) != n:
            raise TopologyError(
                f"checkpointed network has {len(state['used_col'])} links, "
                f"this topology has {n}; wrong scenario for this state")
        self._placements.clear()
        for col in self._flows_col:
            col.clear()
        index = self._table.index
        for entry in state["placements"]:
            flow = Flow.from_payload(entry["flow"])
            placement = Placement(flow=flow, path=tuple(entry["path"]))
            fid = flow.flow_id
            for link in placement.links:
                self._flows_col[index[link]].add(fid)
            self._placements[fid] = placement
        self._cap_col = array("d", state["cap_col"])
        self._used_col = array("d", state["used_col"])
        self._ver_col[:] = [int(v) for v in state["ver_col"]]
        self._rules_used_col[:] = [int(v) for v in state["rules_used_col"]]
        self._node_ver_col[:] = [int(v) for v in state["node_ver_col"]]

    # ----------------------------------------------------------------- copies

    def copy(self) -> "Network":
        """An independent network with the same placements.

        The topology graph, link table, and node index are shared (they are
        never mutated); the state columns are duplicated — a handful of
        flat-array copies rather than per-entry dict rebuilds. Experiments
        load background traffic once and hand each scheduler run its own
        copy, so all schedulers face an identical starting state.
        """
        clone = Network.__new__(Network)
        clone._graph = self._graph
        clone._table = self._table
        clone._cap_col = array("d", self._cap_col)
        clone._used_col = array("d", self._used_col)
        clone._ver_col = list(self._ver_col)
        clone._flows_col = [set(flows) for flows in self._flows_col]
        clone._placements = dict(self._placements)
        clone._node_index = self._node_index
        clone._switch_idx = self._switch_idx
        clone._switch_pos = self._switch_pos
        clone._rule_cap_col = list(self._rule_cap_col)
        clone._rules_used_col = list(self._rules_used_col)
        clone._node_ver_col = list(self._node_ver_col)
        return clone

    # ----------------------------------------------------------------- views

    def view(self):
        """Return a copy-on-write overlay for what-if planning."""
        from repro.network.view import NetworkView
        return NetworkView(self)
