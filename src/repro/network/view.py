"""Copy-on-write what-if overlay over a :class:`NetworkState`.

Cost probing is the inner loop of LMTF/P-LMTF: every scheduling round the
scheduler plans ``α+1`` candidate events against the *current* network just to
compare their costs, then executes at most a few of them. Copying the whole
network per probe would dominate runtime, so a :class:`NetworkView` overlays
only the links and flows the probe touches and can be thrown away for free.

Views nest: P-LMTF builds a batch view on the live network, probes each
candidate on a child view of the batch view, and commits the child when the
candidate is admitted to the batch.

When the base is rooted at an index-backed :class:`Network`, overlays are
keyed by the dense integer link index and every view precomputes its *view
chain* — the list of overlay dicts from itself down to the root — so a read
resolves the whole chain in one flat loop (first overlay hit wins, else one
root column access) instead of recursing a string-keyed call per level.
Reads that must funnel through a non-view root (e.g. a
:class:`~repro.network.footprint.FootprintRecorder`) still do, so footprint
recording semantics are unchanged.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.core.exceptions import (
    DuplicateFlowError,
    InsufficientBandwidthError,
    InvalidPathError,
    RuleSpaceError,
    UnknownFlowError,
)
from repro.core.flow import Flow, Placement
from repro.network.link import EPS, LinkId, format_link, is_simple_path, path_links
from repro.network.network import Network
from repro.network.state import NetworkState


class NetworkView(NetworkState):
    """A mutable overlay on a base network state.

    Mutations are recorded locally and in an operation log; :meth:`commit`
    replays the log onto the base. Discarding the view discards the what-if.

    Overlay dicts are keyed by the base's integer link index when one
    exists (the common case), by ``LinkId`` otherwise; ``_key_of`` maps a
    link to its overlay key either way.
    """

    def __init__(self, base: NetworkState):
        self._base = base
        # Overlay dicts, keyed by int index (or LinkId without a table).
        # They are cleared in place on reset — child views hold direct
        # references to them in their chain lists.
        self._used_over: dict = {}
        self._flows_over: dict = {}
        self._ver_over: dict = {}
        self._rules_over: dict[str, int] = {}
        # flow_id -> Placement, or None as a tombstone for a removed flow.
        self._placements_over: dict[str, Placement | None] = {}
        self._node_ver_over: dict[str, int] = {}
        self._log: list[tuple] = []
        table = base.link_table()
        self._table = table
        # The view chain: this view, every NetworkView below it, then the
        # root (a Network, a FootprintRecorder, or any other state). Bases
        # are fixed at construction, so the chain never changes.
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
        if table is not None:
            if type(node) is Network:
                # Bind the root columns directly: a chain miss costs one
                # flat array access, no method dispatch.
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
            self._key_of = table.index.get
        else:
            self._root_used = lambda link, r=node: r.used(*link)
            self._root_flows = lambda link, r=node: r.flows_on_link(*link)
            self._root_ver = lambda link, r=node: r.link_version(*link)
            self._root_cap = lambda link, r=node: r.capacity(*link)
            self._key_of = lambda link: link

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

    def capacity(self, u: str, v: str) -> float:
        if self._table is not None:
            i = self._table.index.get((u, v))
            if i is not None:
                return self._root_cap(i)
        return self._base.capacity(u, v)

    def used(self, u: str, v: str) -> float:
        key = self._key_of((u, v))
        if key is None:
            return self._base.used(u, v)  # unknown link: consistent error
        for over in self._used_maps:
            value = over.get(key)
            if value is not None:
                return value
        return self._root_used(key)

    def flows_on_link(self, u: str, v: str) -> frozenset[str]:
        key = self._key_of((u, v))
        if key is None:
            return self._base.flows_on_link(u, v)
        for over in self._flows_maps:
            flows = over.get(key)
            if flows is not None:
                return frozenset(flows)
        return frozenset(self._root_flows(key))

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

    def flows_idx(self, i: int) -> set:
        """Flow set of link ``i`` — callers must not mutate it."""
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
        idx = getattr(path, "link_idx", None)
        if idx is None or self._table is None or path.table is not self._table:
            return super().path_residual(path, ignore=ignore)
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
            for fid in flows & ignore:
                res += self.placement(fid).flow.demand
            if res < best:
                best = res
        return best

    def path_residuals(self, path: Sequence[str]) -> list[float]:
        idx = getattr(path, "link_idx", None)
        if idx is None or self._table is None or path.table is not self._table:
            return super().path_residuals(path)
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
        key = self._key_of((u, v))
        if key is None:
            return self._base.link_version(u, v)
        version = self._root_ver(key)
        for over in self._ver_maps:
            version += over.get(key, 0)
        return version

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

    def _touch(self, key) -> None:
        """Populate this view's overlay slot for ``key`` from the chain.

        A parent view's overlay wins over the root, exactly as a recursive
        base read would resolve; a root read funnels through the root's
        accessors (recording, when the root is a footprint recorder).
        """
        for over in self._parent_used_maps:
            value = over.get(key)
            if value is not None:
                break
        else:
            value = self._root_used(key)
        for over in self._parent_flows_maps:
            flows = over.get(key)
            if flows is not None:
                break
        else:
            flows = self._root_flows(key)
        self._used_over[key] = value
        self._flows_over[key] = set(flows)

    def _path_keys(self, placement: Placement) -> Sequence:
        """Overlay keys of a placement's path links, in order."""
        path = placement.path
        idx = getattr(path, "link_idx", None)
        if idx is not None and self._table is not None \
                and path.table is self._table:
            return idx
        key_of = self._key_of
        return [key_of(link) for link in placement.links]

    def place(self, flow: Flow, path: Sequence[str]) -> Placement:
        if self.has_flow(flow.flow_id):
            raise DuplicateFlowError(f"flow {flow.flow_id!r} already placed")
        placement = Placement(
            flow=flow, path=path if isinstance(path, tuple) else tuple(path))
        path_t = placement.path
        demand = flow.demand
        table = self._table
        idx = getattr(path_t, "link_idx", None)
        if idx is not None and table is not None and path_t.table is table:
            # Indexed path: feasibility over the chain in one flat loop.
            keys: Sequence = idx
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
                    u, v = path_t.links[pos]
                    raise InsufficientBandwidthError(
                        f"link {format_link((u, v))} has {free:.3f} Mbit/s "
                        f"free in view, flow {flow.flow_id} needs "
                        f"{flow.demand:.3f}",
                        bottleneck=(u, v), deficit=flow.demand - free)
        else:
            if not is_simple_path(path_t):
                raise InvalidPathError(f"path {path!r} is not a simple path")
            keys = []
            key_of = self._key_of
            for u, v in path_links(path_t):
                # capacity() raises TopologyError for nonexistent links.
                free = self.capacity(u, v) - self.used(u, v)
                if free + EPS < demand:
                    raise InsufficientBandwidthError(
                        f"link {format_link((u, v))} has {free:.3f} Mbit/s "
                        f"free in view, flow {flow.flow_id} needs "
                        f"{flow.demand:.3f}",
                        bottleneck=(u, v), deficit=flow.demand - free)
                keys.append(key_of((u, v)))
        if self.tracks_rules:
            for node in path_t:
                limit = self.rule_capacity(node)
                if limit is not None and self.rules_used(node) >= limit:
                    raise RuleSpaceError(
                        f"switch {node} rule table full ({limit} rules) "
                        f"in view, cannot install {flow.flow_id}",
                        switch=node)
        fid = flow.flow_id
        used_over, flows_over, ver_over = \
            self._used_over, self._flows_over, self._ver_over
        for key in keys:
            if key not in used_over:
                self._touch(key)
            used_over[key] += demand
            flows_over[key].add(fid)
            ver_over[key] = ver_over.get(key, 0) + 1
        if self.tracks_rules:
            for node in path_t:
                if self.rule_capacity(node) is not None:
                    self._rules_over[node] = self.rules_used(node) + 1
                    self._node_ver_over[node] = \
                        self._node_ver_over.get(node, 0) + 1
        self._placements_over[fid] = placement
        self._log.append(("place", flow, path_t))
        return placement

    def remove(self, flow_id: str) -> Placement:
        placement = self.placement(flow_id)
        demand = placement.flow.demand
        used_over, flows_over, ver_over = \
            self._used_over, self._flows_over, self._ver_over
        for key in self._path_keys(placement):
            if key not in used_over:
                self._touch(key)
            value = used_over[key] - demand
            used_over[key] = value if value > 0.0 else 0.0
            flows_over[key].discard(flow_id)
            ver_over[key] = ver_over.get(key, 0) + 1
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
