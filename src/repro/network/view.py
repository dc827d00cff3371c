"""Copy-on-write what-if overlay over a :class:`NetworkState`.

Cost probing is the inner loop of LMTF/P-LMTF: every scheduling round the
scheduler plans ``α+1`` candidate events against the *current* network just to
compare their costs, then executes at most a few of them. Copying the whole
network per probe would dominate runtime, so a :class:`NetworkView` overlays
only the links and flows the probe touches and can be thrown away for free.

Views nest: P-LMTF builds a batch view on the live network, probes each
candidate on a child view of the batch view, and commits the child when the
candidate is admitted to the batch.

Overlays are keyed by the root network's dense integer link index, and
every view precomputes its *view chain* — the list of overlay dicts from
itself down to the root — so a read resolves the whole chain in one flat
loop (first overlay hit wins, else one root column access) instead of
recursing a call per level. Reads that must funnel through a non-view root
(a :class:`~repro.network.footprint.FootprintRecorder`) still do, so
footprint recording semantics are unchanged.
"""

from __future__ import annotations

from typing import Collection, Iterable, Iterator, Sequence

from repro.core.exceptions import (
    DuplicateFlowError,
    InsufficientBandwidthError,
    RuleSpaceError,
    TopologyError,
    UnknownFlowError,
)
from repro.core.flow import Flow, Placement
from repro.network.link import EPS, LinkId, format_link
from repro.network.network import Network
from repro.network.routing.candidate import CandidatePath
from repro.network.state import NetworkState


class NetworkView(NetworkState):
    """A mutable overlay on a base network state.

    Mutations are recorded locally and in an operation log; :meth:`commit`
    replays the log onto the base. Discarding the view discards the what-if.
    """

    def __init__(self, base: NetworkState):
        self._base = base
        # Overlay dicts, keyed by link index. They are cleared in place on
        # reset — child views hold direct references to them in their
        # chain lists.
        self._used_over: dict[int, float] = {}
        self._flows_over: dict[int, set[str]] = {}
        self._ver_over: dict[int, int] = {}
        self._rules_over: dict[str, int] = {}
        # flow_id -> Placement, or None as a tombstone for a removed flow.
        self._placements_over: dict[str, Placement | None] = {}
        self._node_ver_over: dict[str, int] = {}
        self._log: list[tuple] = []
        self._table = base.link_table()
        # The view chain: this view, every NetworkView below it, then the
        # root (a Network or a FootprintRecorder). Bases are fixed at
        # construction, so the chain never changes.
        chain = [self]
        node = base
        while type(node) is NetworkView:
            chain.append(node)
            node = node._base
        self._root = node
        self._used_maps = [view._used_over for view in chain]
        self._flows_maps = [view._flows_over for view in chain]
        self._ver_maps = [view._ver_over for view in chain]
        self._parent_used_maps = self._used_maps[1:]
        self._parent_flows_maps = self._flows_maps[1:]
        if type(node) is Network:
            # Bind the root columns directly: a chain miss costs one flat
            # column access, no method dispatch.
            self._root_used = node._used_col.__getitem__
            self._root_flows = node._flows_col.__getitem__
            self._root_ver = node._ver_col.__getitem__
            self._root_cap = node._cap_col.__getitem__
        else:
            # Root intercepts reads (footprint recorder); capacity is
            # immutable and never recorded, so it may skip the root.
            self._root_used = node.used_idx
            self._root_flows = node.flows_idx
            self._root_ver = node.link_version_idx
            self._root_cap = node.capacity_col().__getitem__

    # ------------------------------------------------------------- structure

    @property
    def base(self) -> NetworkState:
        return self._base

    @property
    def graph(self):
        """The topology graph of the ultimate base network."""
        node = self._base
        while isinstance(node, NetworkView):
            node = node._base
        return node.graph  # type: ignore[attr-defined]

    def links(self) -> Iterable[LinkId]:
        return self._base.links()

    def link_table(self):
        return self._table

    # ----------------------------------------------------------------- reads

    def _link_index(self, u: str, v: str) -> int:
        i = self._table.index.get((u, v))
        if i is None:
            raise TopologyError(f"no link {format_link((u, v))}")
        return i

    def capacity(self, u: str, v: str) -> float:
        return self._root_cap(self._link_index(u, v))

    def used(self, u: str, v: str) -> float:
        return self.used_idx(self._link_index(u, v))

    def flows_on_link(self, u: str, v: str) -> frozenset[str]:
        return frozenset(self.flows_idx(self._link_index(u, v)))

    def has_flow(self, flow_id: str) -> bool:
        if flow_id in self._placements_over:
            return self._placements_over[flow_id] is not None
        return self._base.has_flow(flow_id)

    def placement(self, flow_id: str) -> Placement:
        if flow_id in self._placements_over:
            placement = self._placements_over[flow_id]
            if placement is None:
                raise UnknownFlowError(f"flow {flow_id!r} removed in view")
            return placement
        return self._base.placement(flow_id)

    # ------------------------------------------------------- indexed kernel

    def used_idx(self, i: int) -> float:
        for over in self._used_maps:
            value = over.get(i)
            if value is not None:
                return value
        return self._root_used(i)

    def capacity_idx(self, i: int) -> float:
        return self._root_cap(i)

    def flows_idx(self, i: int) -> Collection[str]:
        """Flows on link ``i``: this chain's copy-on-write set, or the
        root's list when no view touched the link — callers must not
        mutate it."""
        for over in self._flows_maps:
            flows = over.get(i)
            if flows is not None:
                return flows
        return self._root_flows(i)

    def link_version_idx(self, i: int) -> int:
        version = self._root_ver(i)
        for over in self._ver_maps:
            version += over.get(i, 0)
        return version

    def capacity_col(self):
        return self._root.capacity_col()

    def path_residual(self, path: Sequence[str],
                      ignore: frozenset[str] = frozenset()) -> float:
        if type(path) is not CandidatePath or path.table is not self._table:
            path = CandidatePath.of(path, self._table, TopologyError)
        idx = path.link_idx
        used_maps = self._used_maps
        root_used, root_cap = self._root_used, self._root_cap
        best = float("inf")
        if not ignore:
            for i in idx:
                for over in used_maps:
                    value = over.get(i)
                    if value is not None:
                        break
                else:
                    value = root_used(i)
                res = root_cap(i) - value
                if res < best:
                    best = res
            return best
        flows_maps, root_flows = self._flows_maps, self._root_flows
        for i in idx:
            for over in used_maps:
                value = over.get(i)
                if value is not None:
                    break
            else:
                value = root_used(i)
            res = root_cap(i) - value
            for over in flows_maps:
                flows = over.get(i)
                if flows is not None:
                    break
            else:
                flows = root_flows(i)
            for fid in ignore:
                if fid in flows:
                    res += self.placement(fid).flow.demand
            if res < best:
                best = res
        return best

    def path_residuals(self, path: Sequence[str]) -> list[float]:
        if type(path) is not CandidatePath or path.table is not self._table:
            path = CandidatePath.of(path, self._table, TopologyError)
        idx = path.link_idx
        used_maps = self._used_maps
        root_used, root_cap = self._root_used, self._root_cap
        residuals = []
        for i in idx:
            for over in used_maps:
                value = over.get(i)
                if value is not None:
                    break
            else:
                value = root_used(i)
            res = root_cap(i) - value
            residuals.append(res if res > 0.0 else 0.0)
        return residuals

    # ------------------------------------------------------------ versioning

    @property
    def supports_versions(self) -> bool:
        return self._base.supports_versions

    def link_version(self, u: str, v: str) -> int:
        return self.link_version_idx(self._link_index(u, v))

    def node_version(self, node: str) -> int:
        return (self._base.node_version(node)
                + self._node_ver_over.get(node, 0))

    # ------------------------------------------------------------ rule space

    def rule_capacity(self, node: str) -> int | None:
        return self._base.rule_capacity(node)

    def rules_used(self, node: str) -> int:
        override = self._rules_over.get(node)
        if override is not None:
            return override
        return self._base.rules_used(node)

    @property
    def tracks_rules(self) -> bool:
        return self._base.tracks_rules

    def flow_ids(self) -> Iterator[str]:
        for fid in self._base.flow_ids():
            if self._placements_over.get(fid, ...) is not None:
                yield fid
        for fid, placement in self._placements_over.items():
            if placement is not None and not self._base.has_flow(fid):
                yield fid

    # ------------------------------------------------------------- mutations

    def _touch(self, i: int) -> None:
        """Populate this view's overlay slot for link ``i`` from the chain.

        A parent view's overlay wins over the root, exactly as a recursive
        base read would resolve; a root read funnels through the root's
        accessors (recording, when the root is a footprint recorder).
        """
        for over in self._parent_used_maps:
            value = over.get(i)
            if value is not None:
                break
        else:
            value = self._root_used(i)
        for over in self._parent_flows_maps:
            flows = over.get(i)
            if flows is not None:
                break
        else:
            flows = self._root_flows(i)
        self._used_over[i] = value
        self._flows_over[i] = set(flows)

    def place(self, flow: Flow, path: Sequence[str]) -> Placement:
        if self.has_flow(flow.flow_id):
            raise DuplicateFlowError(f"flow {flow.flow_id!r} already placed")
        if type(path) is not CandidatePath or path.table is not self._table:
            path = CandidatePath.of(path, self._table, TopologyError)
        placement = Placement(flow=flow, path=path)
        demand = flow.demand
        idx = path.link_idx
        used_maps = self._used_maps
        root_used, root_cap = self._root_used, self._root_cap
        for pos, i in enumerate(idx):
            for over in used_maps:
                value = over.get(i)
                if value is not None:
                    break
            else:
                value = root_used(i)
            free = root_cap(i) - value
            if free + EPS < demand:
                u, v = path.links[pos]
                raise InsufficientBandwidthError(
                    f"link {format_link((u, v))} has {free:.3f} Mbit/s "
                    f"free in view, flow {flow.flow_id} needs "
                    f"{flow.demand:.3f}",
                    bottleneck=(u, v), deficit=flow.demand - free)
        if self.tracks_rules:
            for node in path:
                limit = self.rule_capacity(node)
                if limit is not None and self.rules_used(node) >= limit:
                    raise RuleSpaceError(
                        f"switch {node} rule table full ({limit} rules) "
                        f"in view, cannot install {flow.flow_id}",
                        switch=node)
        fid = flow.flow_id
        used_over, flows_over, ver_over = \
            self._used_over, self._flows_over, self._ver_over
        for i in idx:
            if i not in used_over:
                self._touch(i)
            used_over[i] += demand
            flows_over[i].add(fid)
            ver_over[i] = ver_over.get(i, 0) + 1
        if self.tracks_rules:
            for node in path:
                if self.rule_capacity(node) is not None:
                    self._rules_over[node] = self.rules_used(node) + 1
                    self._node_ver_over[node] = \
                        self._node_ver_over.get(node, 0) + 1
        self._placements_over[fid] = placement
        self._log.append(("place", flow, path))
        return placement

    def remove(self, flow_id: str) -> Placement:
        placement = self.placement(flow_id)
        demand = placement.flow.demand
        used_over, flows_over, ver_over = \
            self._used_over, self._flows_over, self._ver_over
        for i in placement.path.link_idx:
            if i not in used_over:
                self._touch(i)
            value = used_over[i] - demand
            used_over[i] = value if value > 0.0 else 0.0
            flows_over[i].discard(flow_id)
            ver_over[i] = ver_over.get(i, 0) + 1
        if self.tracks_rules:
            for node in placement.path:
                if self.rule_capacity(node) is not None:
                    self._rules_over[node] = self.rules_used(node) - 1
                    self._node_ver_over[node] = \
                        self._node_ver_over.get(node, 0) + 1
        self._placements_over[flow_id] = None
        self._log.append(("remove", flow_id))
        return placement

    # ------------------------------------------------------------ life cycle

    def commit(self) -> None:
        """Replay this view's mutations onto the base state.

        After a commit the view is reset and tracks the base afresh, so it
        may be reused for further what-if work.
        """
        for op in self._log:
            if op[0] == "place":
                __, flow, path = op
                self._base.place(flow, path)
            else:
                __, flow_id = op
                self._base.remove(flow_id)
        self.reset()

    def reset(self) -> None:
        """Discard all local mutations, making the view transparent again.

        The overlay dicts are cleared in place (never re-bound): child
        views hold references to them in their precomputed chains.
        """
        self._used_over.clear()
        self._flows_over.clear()
        self._rules_over.clear()
        self._placements_over.clear()
        self._ver_over.clear()
        self._node_ver_over.clear()
        self._log.clear()

    @property
    def dirty(self) -> bool:
        """True when the view holds uncommitted mutations."""
        return bool(self._log)
