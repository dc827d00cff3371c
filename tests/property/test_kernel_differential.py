"""Differential properties: the integer-indexed link-state kernel is
observationally identical to the seed-era dict-keyed semantics.

``RefNetwork``/``RefView`` below are faithful transcriptions of the
string-keyed implementations the kernel replaced: per-link dicts on the
network, copy-on-write overlay dicts plus an operation log on the view.
The state machine drives one random operation sequence through both
implementations — :class:`CandidatePath` objects (or, on some draws, plain
node tuples the kernel must index on entry) on the kernel side, plain node
tuples on the reference side — and asserts that every observable agrees
exactly: residuals (bit-equal floats, same arithmetic order), per-link
usage, flow sets, version counters, placements, and the exception type of
every rejected operation. The kernel's nested trials (``Network.trial``)
run against nested reference views: opening a trial pushes a view, keeping
it commits the view, dropping it discards the view, interleaved at random
with copies of the kernel. A dropped trial
must also leave the kernel's raw columns exactly as they were when it
opened, down to each id's position in the per-link flow lists and the
flow table's order.
"""

import sys
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import diamond_topology  # noqa: E402

from repro.core.exceptions import (
    DuplicateFlowError,
    InsufficientBandwidthError,
    InvalidPathError,
    RuleSpaceError,
    TopologyError,
    UnknownFlowError,
)
from repro.core.flow import Flow, Placement
from repro.network.link import EPS, format_link, is_simple_path, path_links
from repro.network.network import Network
from repro.network.routing.provider import PathProvider
from repro.network.state import NetworkState

TOPO = diamond_topology()
PROVIDER = PathProvider(TOPO)
HOST_PAIRS = [("a", "b"), ("c", "d"), ("e", "f"), ("a", "d"), ("c", "b")]
#: Switch-to-switch links in edge order, derived from the graph's node
#: kinds rather than from the network under test.
_KINDS = dict(TOPO.graph().nodes(data="kind"))
SWITCH_LINKS = [(u, v) for u, v in TOPO.graph().edges()
                if _KINDS.get(u) != "host" and _KINDS.get(v) != "host"]

#: Every operation either succeeds on both implementations or raises the
#: same exception type on both.
OP_ERRORS = (DuplicateFlowError, InsufficientBandwidthError,
             InvalidPathError, RuleSpaceError, TopologyError,
             UnknownFlowError)

#: Demands are dyadic rationals (multiples of 0.25) so every residual and
#: usage value is exactly representable and summation order cannot matter:
#: any divergence the machine reports is a real semantic difference, not
#: float dust from a reordered accumulation.
DEMANDS = st.integers(min_value=2, max_value=240).map(lambda n: n * 0.25)


class RefState(NetworkState):
    """The seed-era string-keyed residual reads both references share."""

    def trial(self):
        raise NotImplementedError("the reference nests RefView overlays")

    def path_residual(self, path, ignore=frozenset()):
        best = float("inf")
        for u, v in path_links(path):
            res = self.capacity(u, v) - self.used(u, v)
            if ignore:
                for fid in self.flows_on_link(u, v) & ignore:
                    res += self.placement(fid).flow.demand
            best = min(best, res)
        return best

    def path_residuals(self, path):
        return [max(0.0, self.capacity(u, v) - self.used(u, v))
                for u, v in path_links(path)]


class RefNetwork(RefState):
    """The seed-era dict-keyed live network (reference semantics)."""

    def __init__(self, graph, default_capacity: float = 1000.0):
        self._graph = graph
        self._capacity: dict = {}
        self._used: dict = {}
        self._link_flows: dict = {}
        self._link_version: dict = {}
        for u, v in graph.edges():
            self._capacity[(u, v)] = float(
                graph.edges[u, v].get("capacity", default_capacity))
            self._used[(u, v)] = 0.0
            self._link_flows[(u, v)] = set()
            self._link_version[(u, v)] = 0
        self._placements: dict[str, Placement] = {}
        self._rule_capacity: dict[str, int] = {
            n: int(c) for n, c in graph.nodes(data="rule_capacity")
            if c is not None}
        self._rules_used = {n: 0 for n in self._rule_capacity}
        self._node_version = {n: 0 for n in self._rule_capacity}

    def links(self):
        return self._capacity.keys()

    def capacity(self, u, v):
        try:
            return self._capacity[(u, v)]
        except KeyError:
            raise TopologyError(f"no link {format_link((u, v))}") from None

    def used(self, u, v):
        try:
            return self._used[(u, v)]
        except KeyError:
            raise TopologyError(f"no link {format_link((u, v))}") from None

    def flows_on_link(self, u, v):
        try:
            return frozenset(self._link_flows[(u, v)])
        except KeyError:
            raise TopologyError(f"no link {format_link((u, v))}") from None

    def has_flow(self, flow_id):
        return flow_id in self._placements

    def placement(self, flow_id):
        try:
            return self._placements[flow_id]
        except KeyError:
            raise UnknownFlowError(f"flow {flow_id!r} is not placed") from None

    def flow_ids(self):
        return iter(list(self._placements))

    @property
    def supports_versions(self):
        return True

    def link_version(self, u, v):
        return self._link_version[(u, v)]

    def node_version(self, node):
        return self._node_version.get(node, 0)

    def rule_capacity(self, node):
        return self._rule_capacity.get(node)

    def rules_used(self, node):
        return self._rules_used.get(node, 0)

    @property
    def tracks_rules(self):
        return bool(self._rule_capacity)

    def place(self, flow, path):
        if flow.flow_id in self._placements:
            raise DuplicateFlowError(f"flow {flow.flow_id!r} already placed")
        placement = Placement(flow=flow, path=tuple(path))
        if not is_simple_path(placement.path):
            raise InvalidPathError(f"path {path!r} is not a simple path")
        for link in placement.links:
            if link not in self._capacity:
                raise InvalidPathError(
                    f"path uses nonexistent link {format_link(link)}")
        for u, v in placement.links:
            free = self._capacity[(u, v)] - self._used[(u, v)]
            if free + EPS < flow.demand:
                raise InsufficientBandwidthError(
                    "ref", bottleneck=(u, v), deficit=flow.demand - free)
        if self._rule_capacity:
            for node in placement.path:
                limit = self._rule_capacity.get(node)
                if limit is not None and self._rules_used[node] >= limit:
                    raise RuleSpaceError("ref", switch=node)
        for link in placement.links:
            self._used[link] += flow.demand
            self._link_flows[link].add(flow.flow_id)
            self._link_version[link] += 1
        if self._rule_capacity:
            for node in placement.path:
                if node in self._rules_used:
                    self._rules_used[node] += 1
                    self._node_version[node] += 1
        self._placements[flow.flow_id] = placement
        return placement

    def remove(self, flow_id):
        placement = self.placement(flow_id)
        for link in placement.links:
            self._used[link] -= placement.flow.demand
            if self._used[link] < 0:
                self._used[link] = 0.0
            self._link_flows[link].discard(flow_id)
            self._link_version[link] += 1
        if self._rule_capacity:
            for node in placement.path:
                if node in self._rules_used:
                    self._rules_used[node] -= 1
                    self._node_version[node] += 1
        del self._placements[flow_id]
        return placement


class RefView(RefState):
    """The seed-era copy-on-write overlay (reference semantics)."""

    def __init__(self, base):
        self._base = base
        self._used_over: dict = {}
        self._flows_over: dict = {}
        self._rules_over: dict = {}
        self._placements_over: dict = {}
        self._ver_over: dict = {}
        self._node_ver_over: dict = {}
        self._log: list[tuple] = []

    def links(self):
        return self._base.links()

    def capacity(self, u, v):
        return self._base.capacity(u, v)

    def used(self, u, v):
        override = self._used_over.get((u, v))
        if override is not None:
            return override
        return self._base.used(u, v)

    def flows_on_link(self, u, v):
        override = self._flows_over.get((u, v))
        if override is not None:
            return frozenset(override)
        return self._base.flows_on_link(u, v)

    def has_flow(self, flow_id):
        if flow_id in self._placements_over:
            return self._placements_over[flow_id] is not None
        return self._base.has_flow(flow_id)

    def placement(self, flow_id):
        if flow_id in self._placements_over:
            placement = self._placements_over[flow_id]
            if placement is None:
                raise UnknownFlowError(f"flow {flow_id!r} removed in view")
            return placement
        return self._base.placement(flow_id)

    def flow_ids(self):
        for fid in self._base.flow_ids():
            if self._placements_over.get(fid, ...) is not None:
                yield fid
        for fid, placement in self._placements_over.items():
            if placement is not None and not self._base.has_flow(fid):
                yield fid

    @property
    def supports_versions(self):
        return self._base.supports_versions

    def link_version(self, u, v):
        return self._base.link_version(u, v) + self._ver_over.get((u, v), 0)

    def node_version(self, node):
        return (self._base.node_version(node)
                + self._node_ver_over.get(node, 0))

    def rule_capacity(self, node):
        return self._base.rule_capacity(node)

    def rules_used(self, node):
        override = self._rules_over.get(node)
        if override is not None:
            return override
        return self._base.rules_used(node)

    @property
    def tracks_rules(self):
        return self._base.tracks_rules

    def _touch_link(self, link):
        if link not in self._used_over:
            self._used_over[link] = self._base.used(*link)
            self._flows_over[link] = set(self._base.flows_on_link(*link))

    def place(self, flow, path):
        if self.has_flow(flow.flow_id):
            raise DuplicateFlowError(f"flow {flow.flow_id!r} already placed")
        placement = Placement(flow=flow, path=tuple(path))
        if not is_simple_path(placement.path):
            raise InvalidPathError(f"path {path!r} is not a simple path")
        # A trial places on the kernel itself, which refuses a path over a
        # nonexistent link as invalid (the overlay it replaced raised
        # TopologyError from the link lookup).
        links = set(self.links())
        for link in placement.links:
            if link not in links:
                raise InvalidPathError(
                    f"path uses nonexistent link {format_link(link)}")
        for u, v in placement.links:
            free = self.capacity(u, v) - self.used(u, v)
            if free + EPS < flow.demand:
                raise InsufficientBandwidthError(
                    "ref", bottleneck=(u, v), deficit=flow.demand - free)
        if self.tracks_rules:
            for node in placement.path:
                limit = self.rule_capacity(node)
                if limit is not None and self.rules_used(node) >= limit:
                    raise RuleSpaceError("ref", switch=node)
        for link in placement.links:
            self._touch_link(link)
            self._used_over[link] += flow.demand
            self._flows_over[link].add(flow.flow_id)
            self._ver_over[link] = self._ver_over.get(link, 0) + 1
        if self.tracks_rules:
            for node in placement.path:
                if self.rule_capacity(node) is not None:
                    self._rules_over[node] = self.rules_used(node) + 1
                    self._node_ver_over[node] = \
                        self._node_ver_over.get(node, 0) + 1
        self._placements_over[flow.flow_id] = placement
        self._log.append(("place", flow, placement.path))
        return placement

    def remove(self, flow_id):
        placement = self.placement(flow_id)
        for link in placement.links:
            self._touch_link(link)
            self._used_over[link] = max(
                0.0, self._used_over[link] - placement.flow.demand)
            self._flows_over[link].discard(flow_id)
            self._ver_over[link] = self._ver_over.get(link, 0) + 1
        if self.tracks_rules:
            for node in placement.path:
                if self.rule_capacity(node) is not None:
                    self._rules_over[node] = self.rules_used(node) - 1
                    self._node_ver_over[node] = \
                        self._node_ver_over.get(node, 0) + 1
        self._placements_over[flow_id] = None
        self._log.append(("remove", flow_id))
        return placement

    def commit(self):
        for op in self._log:
            if op[0] == "place":
                __, flow, path = op
                self._base.place(flow, path)
            else:
                __, flow_id = op
                self._base.remove(flow_id)
        self.reset()

    def reset(self):
        self._used_over.clear()
        self._flows_over.clear()
        self._rules_over.clear()
        self._placements_over.clear()
        self._ver_over.clear()
        self._node_ver_over.clear()
        self._log.clear()


def raw_columns(network):
    """Every raw column of the kernel a dropped trial must restore: the
    ``used`` floats, each link's flow list (order included), the version
    and rule columns, and the flow table with its order."""
    return (list(network._used_col),
            [list(flows) for flows in network._flows_col],
            list(network._ver_col), list(network._rules_used_col),
            list(network._node_ver_col), list(network._placements.items()))


class ProbeAborted(Exception):
    """Raised inside an open trial, as a failing probe would."""


class KernelDifferentialMachine(RuleBasedStateMachine):
    """One random op sequence through both implementations, compared."""

    def __init__(self):
        super().__init__()
        self.kernel = TOPO.network()
        self.ref = RefNetwork(TOPO.graph())
        #: Open kernel trials beside the parallel reference views, with
        #: the kernel's raw columns when each trial opened.
        self.stack: list[tuple] = []
        self.counter = 0
        self.ever_placed: list[str] = []

    # ----------------------------------------------------------- op plumbing

    @property
    def tops(self):
        if self.stack:
            return self.kernel, self.stack[-1][1]
        return self.kernel, self.ref

    def _both(self, op_name, *args, kernel_path=None, ref_path=None):
        """Apply one op to both implementations; exceptions must match."""
        kernel_top, ref_top = self.tops
        kernel_args = args + ((kernel_path,) if kernel_path else ())
        ref_args = args + ((ref_path,) if ref_path else ())
        try:
            kernel_result = getattr(kernel_top, op_name)(*kernel_args)
            kernel_exc = None
        except OP_ERRORS as exc:
            kernel_result, kernel_exc = None, type(exc)
        try:
            ref_result = getattr(ref_top, op_name)(*ref_args)
            ref_exc = None
        except OP_ERRORS as exc:
            ref_result, ref_exc = None, type(exc)
        assert kernel_exc is ref_exc, (
            f"{op_name}{args}: kernel raised {kernel_exc}, "
            f"reference raised {ref_exc}")
        if kernel_result is not None and isinstance(kernel_result, Placement):
            assert tuple(kernel_result.path) == tuple(ref_result.path)
        return kernel_result

    # ------------------------------------------------------------------ rules

    @rule(pair=st.sampled_from(HOST_PAIRS),
          demand=DEMANDS,
          path_index=st.integers(min_value=0, max_value=3),
          plain=st.booleans())
    def place(self, pair, demand, path_index, plain):
        """``plain`` hands the kernel a bare node tuple, which it must
        index once on entry."""
        src, dst = pair
        candidates = PROVIDER.paths(src, dst)
        path = candidates[path_index % len(candidates)]
        fid = f"d{self.counter}"
        self.counter += 1
        flow = Flow(flow_id=fid, src=src, dst=dst, demand=demand)
        placed = self._both("place", flow,
                            kernel_path=tuple(path) if plain else path,
                            ref_path=tuple(path))
        if placed is not None:
            self.ever_placed.append(fid)

    @rule(demand=DEMANDS)
    def place_bad_path(self, demand):
        """Nonexistent links and non-simple paths reject identically."""
        fid = f"bad{self.counter}"
        self.counter += 1
        flow = Flow(flow_id=fid, src="a", dst="b", demand=demand)
        bad = ("a", "s2", "b")  # a-s2 is not an edge of the diamond
        self._both("place", flow, kernel_path=bad, ref_path=bad)

    @rule(index=st.integers(min_value=0, max_value=300))
    def remove(self, index):
        if not self.ever_placed:
            return
        fid = self.ever_placed[index % len(self.ever_placed)]
        self._both("remove", fid)

    @rule(index=st.integers(min_value=0, max_value=300),
          path_index=st.integers(min_value=0, max_value=3))
    def reroute(self, index, path_index):
        if not self.ever_placed:
            return
        fid = self.ever_placed[index % len(self.ever_placed)]
        kernel_top, ref_top = self.tops
        if not kernel_top.has_flow(fid):
            return
        flow = kernel_top.placement(fid).flow
        candidates = PROVIDER.paths(flow.src, flow.dst)
        path = candidates[path_index % len(candidates)]
        self._both("reroute", fid, kernel_path=path, ref_path=tuple(path))

    def _live(self, scope):
        return [fid for fid in self.ever_placed if scope.has_flow(fid)]

    @rule(index=st.integers(min_value=0, max_value=300),
          path_index=st.integers(min_value=0, max_value=3))
    def remove_and_replace(self, index, path_index):
        """The same id leaves and comes back: the root's per-link lists
        must drop it and take it again, never holding it twice."""
        kernel_top, __ = self.tops
        live = self._live(kernel_top)
        if not live:
            return
        fid = live[index % len(live)]
        flow = kernel_top.placement(fid).flow
        self._both("remove", fid)
        candidates = PROVIDER.paths(flow.src, flow.dst)
        path = candidates[path_index % len(candidates)]
        self._both("place", flow, kernel_path=path, ref_path=tuple(path))
        if self.stack:  # check_invariants refuses an open trial
            assert all(len(set(flows)) == len(flows)
                       for flows in self.kernel._flows_col)
        else:
            self.kernel.check_invariants()

    @rule(index=st.integers(min_value=0, max_value=300))
    def copy_then_diverge(self, index):
        """A copy goes on as the live network and loses a flow; the
        original's flow lists and usage must not move with it."""
        live = self._live(self.kernel)
        if self.stack or not live:
            return
        original = self.kernel

        def observed(network):
            return {link: (network.used(*link), network.flows_on_link(*link))
                    for link in self.ref.links()}

        before = observed(original)
        self.kernel = original.copy()
        self._both("remove", live[index % len(live)])
        assert observed(original) == before
        original.check_invariants()
        self.kernel.check_invariants()

    @rule()
    def push_view(self):
        """Open a trial on the kernel, a view on the reference."""
        if len(self.stack) >= 3:
            return
        __, ref_top = self.tops
        self.stack.append((self.kernel.trial(), RefView(ref_top),
                           raw_columns(self.kernel)))

    @rule()
    def commit_top(self):
        """Keep the innermost trial, commit the innermost view."""
        if not self.stack:
            return
        trial, ref_view, __ = self.stack.pop()
        trial.keep()
        ref_view.commit()

    @rule()
    def discard_top(self):
        """Drop the innermost trial: every raw column is back exactly."""
        if not self.stack:
            return
        trial, __, opened = self.stack.pop()
        trial.drop()
        assert raw_columns(self.kernel) == opened

    @rule(pair=st.sampled_from(HOST_PAIRS), demand=DEMANDS,
          index=st.integers(min_value=0, max_value=300),
          path_index=st.integers(min_value=0, max_value=3))
    def raise_inside_trial(self, pair, demand, index, path_index):
        """A probe raises with its trial open: the ``with`` block drops
        the trial, and the raw columns are exactly what they were — a
        removed flow back in its slot of every list and of the flow
        table, a rerouted one on its old path, a placed one gone."""
        before = raw_columns(self.kernel)
        src, dst = pair
        candidates = PROVIDER.paths(src, dst)
        with pytest.raises(ProbeAborted):
            with self.kernel.trial():
                live = self._live(self.kernel)
                if live:
                    self.kernel.remove(live[index % len(live)])
                if len(live) > 1:
                    fid = live[(index + 1) % len(live)]
                    flow = self.kernel.placement(fid).flow
                    paths = PROVIDER.paths(flow.src, flow.dst)
                    try:
                        self.kernel.reroute(fid,
                                            paths[path_index % len(paths)])
                    except OP_ERRORS:
                        pass
                try:
                    self.kernel.place(
                        Flow(flow_id=f"probe{self.counter}", src=src,
                             dst=dst, demand=demand),
                        candidates[path_index % len(candidates)])
                except OP_ERRORS:
                    pass
                raise ProbeAborted
        assert raw_columns(self.kernel) == before

    # -------------------------------------------------------------- oracles

    @invariant()
    def links_agree(self):
        kernel_top, ref_top = self.tops
        for u, v in self.ref.links():
            assert kernel_top.used(u, v) == ref_top.used(u, v)
            assert kernel_top.capacity(u, v) == ref_top.capacity(u, v)
            assert kernel_top.flows_on_link(u, v) == \
                ref_top.flows_on_link(u, v)
            assert kernel_top.link_version(u, v) == ref_top.link_version(u, v)

    @invariant()
    def residuals_agree(self):
        kernel_top, ref_top = self.tops
        ignore = frozenset(self.ever_placed[:2])
        for src, dst in HOST_PAIRS:
            for path in PROVIDER.paths(src, dst):
                plain = tuple(path)
                assert kernel_top.path_residual(path) == \
                    ref_top.path_residual(plain)
                assert kernel_top.path_residuals(path) == \
                    ref_top.path_residuals(plain)
                assert kernel_top.path_residual(path, ignore=ignore) == \
                    ref_top.path_residual(plain, ignore=ignore)

    @invariant()
    def placements_agree(self):
        kernel_top, ref_top = self.tops
        for fid in self.ever_placed:
            assert kernel_top.has_flow(fid) == ref_top.has_flow(fid)
            if kernel_top.has_flow(fid):
                assert tuple(kernel_top.placement(fid).path) == \
                    tuple(ref_top.placement(fid).path)
        assert sorted(kernel_top.flow_ids()) == sorted(ref_top.flow_ids())

    @invariant()
    def utilization_agrees(self):
        """The switch-link index column reproduces the per-link reference
        sum bit for bit (same links, same order, same arithmetic) — on the
        live network (inside any open trial) and, with no trial open, on a
        copy, which shares the column."""
        __, ref_top = self.tops
        terms = [ref_top.utilization(u, v) for u, v in SWITCH_LINKS]
        networks = [self.kernel]
        if not self.stack:
            networks.append(self.kernel.copy())
        for network in networks:
            assert network.switch_links() == SWITCH_LINKS
            assert network.average_utilization() == sum(terms) / len(terms)
            assert network.max_utilization() == max(terms)
            assert network.average_utilization(SWITCH_LINKS) == \
                network.average_utilization()
            assert network.max_utilization(SWITCH_LINKS) == \
                network.max_utilization()

    def teardown(self):
        while self.stack:
            trial, ref_view, __ = self.stack.pop()
            trial.keep()
            ref_view.commit()
        assert not self.kernel.trial_open
        for u, v in self.ref.links():
            assert self.kernel.used(u, v) == self.ref.used(u, v)
            assert self.kernel.link_version(u, v) == \
                self.ref.link_version(u, v)
        self.kernel.check_invariants()


KernelDifferentialMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None)
TestKernelDifferential = KernelDifferentialMachine.TestCase


class TestRuleSpaceDifferential:
    """Rule-table accounting agrees on a rule-capacity-annotated diamond."""

    def _rules_pair(self, top_rules=2):
        topo = diamond_topology()
        graph = topo.graph().copy()
        graph.nodes["top"]["rule_capacity"] = top_rules
        from repro.network.network import Network
        return Network(graph), RefNetwork(graph)

    def test_rule_exhaustion_matches(self):
        kernel, ref = self._rules_pair(top_rules=2)
        top_path = ("a", "s1", "top", "s2", "b")
        for i in range(2):
            flow = Flow(flow_id=f"r{i}", src="a", dst="b", demand=1.0)
            kernel.place(flow, top_path)
            ref.place(flow, top_path)
        overflow = Flow(flow_id="r2", src="a", dst="b", demand=1.0)
        with pytest.raises(RuleSpaceError):
            kernel.place(overflow, top_path)
        with pytest.raises(RuleSpaceError):
            ref.place(overflow, top_path)
        assert kernel.rules_used("top") == ref.rules_used("top") == 2
        assert kernel.node_version("top") == ref.node_version("top")
        kernel.remove("r0")
        ref.remove("r0")
        assert kernel.rules_used("top") == ref.rules_used("top") == 1
        assert kernel.node_version("top") == ref.node_version("top")
