"""Property-based tests: the network substrate never violates its
congestion-free invariants under arbitrary operation sequences."""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import diamond_topology  # noqa: E402

from repro.core.exceptions import (
    DuplicateFlowError,
    InsufficientBandwidthError,
)
from repro.core.flow import Flow
from repro.network.network import Network
from repro.network.routing.provider import PathProvider

TOPO = diamond_topology()
PROVIDER = PathProvider(TOPO)
HOST_PAIRS = [("a", "b"), ("c", "d"), ("e", "f"), ("a", "d"), ("c", "b")]


def all_paths(src, dst):
    return PROVIDER.paths(src, dst)


class NetworkMachine(RuleBasedStateMachine):
    """Random place/remove/reroute sequences keep the network consistent."""

    def __init__(self):
        super().__init__()
        self.network = TOPO.network()
        self.counter = 0
        self.placed: dict[str, tuple[str, str]] = {}

    @rule(pair=st.sampled_from(HOST_PAIRS),
          demand=st.floats(min_value=0.5, max_value=60.0),
          path_index=st.integers(min_value=0, max_value=3))
    def place(self, pair, demand, path_index):
        src, dst = pair
        paths = all_paths(src, dst)
        path = paths[path_index % len(paths)]
        fid = f"pf{self.counter}"
        self.counter += 1
        flow = Flow(flow_id=fid, src=src, dst=dst, demand=demand)
        try:
            self.network.place(flow, path)
        except InsufficientBandwidthError:
            return
        self.placed[fid] = pair

    @rule(index=st.integers(min_value=0, max_value=200))
    def remove(self, index):
        if not self.placed:
            return
        fid = sorted(self.placed)[index % len(self.placed)]
        self.network.remove(fid)
        del self.placed[fid]

    @rule(index=st.integers(min_value=0, max_value=200),
          path_index=st.integers(min_value=0, max_value=3))
    def reroute(self, index, path_index):
        if not self.placed:
            return
        fid = sorted(self.placed)[index % len(self.placed)]
        src, dst = self.placed[fid]
        paths = all_paths(src, dst)
        try:
            self.network.reroute(fid, paths[path_index % len(paths)])
        except InsufficientBandwidthError:
            pass  # flow must stay on its old path; invariant checks below

    @invariant()
    def bookkeeping_consistent(self):
        self.network.check_invariants()

    @invariant()
    def no_link_oversubscribed(self):
        for u, v in self.network.links():
            assert self.network.used(u, v) <= \
                self.network.capacity(u, v) + 1e-6


TestNetworkMachine = NetworkMachine.TestCase


class ViewMachine(RuleBasedStateMachine):
    """A kept trial's state always equals direct application, and a
    dropped nested trial leaves no trace."""

    def __init__(self):
        super().__init__()
        self.base = TOPO.network()
        self.mirror = TOPO.network()
        self.trial = self.base.trial()
        self.counter = 0
        self.live: dict[str, tuple[str, str]] = {}

    @rule(pair=st.sampled_from(HOST_PAIRS),
          demand=st.floats(min_value=0.5, max_value=50.0),
          path_index=st.integers(min_value=0, max_value=3))
    def place(self, pair, demand, path_index):
        src, dst = pair
        paths = all_paths(src, dst)
        path = paths[path_index % len(paths)]
        fid = f"vf{self.counter}"
        self.counter += 1
        flow = Flow(flow_id=fid, src=src, dst=dst, demand=demand)
        try:
            self.base.place(flow, path)
        except InsufficientBandwidthError:
            with pytest.raises(InsufficientBandwidthError):
                self.mirror.place(flow, path)
            return
        self.mirror.place(flow, path)
        self.live[fid] = pair

    @rule(index=st.integers(min_value=0, max_value=100))
    def remove(self, index):
        if not self.live:
            return
        fid = sorted(self.live)[index % len(self.live)]
        self.base.remove(fid)
        self.mirror.remove(fid)
        del self.live[fid]

    @rule(index=st.integers(min_value=0, max_value=100),
          path_index=st.integers(min_value=0, max_value=3))
    def tried_and_dropped(self, index, path_index):
        """A nested trial reroutes a flow and places another; dropping it
        restores every column exactly."""
        before = (list(self.base._used_col),
                  [list(f) for f in self.base._flows_col],
                  list(self.base._ver_col), list(self.base.flow_ids()))
        with self.base.trial():
            if self.live:
                fid = sorted(self.live)[index % len(self.live)]
                src, dst = self.live[fid]
                paths = all_paths(src, dst)
                try:
                    self.base.reroute(fid, paths[path_index % len(paths)])
                except InsufficientBandwidthError:
                    pass
            try:
                self.base.place(Flow(flow_id="tried", src="a", dst="b",
                                     demand=1.0), all_paths("a", "b")[0])
            except InsufficientBandwidthError:
                pass
        assert (list(self.base._used_col),
                [list(f) for f in self.base._flows_col],
                list(self.base._ver_col), list(self.base.flow_ids())) \
            == before

    @invariant()
    def view_matches_mirror(self):
        for link in self.mirror.links():
            assert self.base.used(*link) == self.mirror.used(*link)

    def teardown(self):
        self.trial.keep()
        for link in self.mirror.links():
            assert self.base.used(*link) == self.mirror.used(*link)
            assert self.base.link_version(*link) == \
                self.mirror.link_version(*link)
        assert list(self.base.flow_ids()) == list(self.mirror.flow_ids())
        self.base.check_invariants()


TestViewMachine = ViewMachine.TestCase


class TestPathResidualProperties:
    @given(demands=st.lists(st.floats(min_value=1.0, max_value=30.0),
                            min_size=1, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_residual_decreases_by_exact_demand(self, demands):
        network = TOPO.network()
        path = all_paths("a", "b")[0]
        before = network.path_residual(path)
        placed = 0.0
        for index, demand in enumerate(demands):
            flow = Flow(flow_id=f"r{index}", src="a", dst="b",
                        demand=demand)
            try:
                network.place(flow, path)
            except InsufficientBandwidthError:
                break
            placed += demand
        assert network.path_residual(path) == \
            pytest.approx(before - placed, abs=1e-6)

    @given(demand=st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_feasibility_matches_residual(self, demand):
        network = TOPO.network()
        path = all_paths("a", "b")[0]
        blocker = Flow(flow_id="blk", src="a", dst="b", demand=40.0)
        network.place(blocker, path)
        feasible = network.path_feasible(path, demand)
        assert feasible == (demand <= network.path_residual(path) + 1e-6)
