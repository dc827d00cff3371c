"""Unit tests for the Flow/Placement value objects."""

import copy
import math
import pickle

import pytest

from repro.core.flow import Flow, FlowKind, Placement, next_flow_id
from repro.network.routing.provider import PathProvider
from repro.network.topology.fattree import FatTreeTopology


def flow(**overrides):
    base = dict(flow_id="f-test", src="a", dst="b", demand=10.0)
    base.update(overrides)
    return Flow(**base)


class TestFlowValidation:
    def test_valid_flow(self):
        f = flow()
        assert f.demand == 10.0
        assert f.kind is FlowKind.BACKGROUND

    def test_zero_demand_rejected(self):
        with pytest.raises(ValueError, match="demand must be positive"):
            flow(demand=0.0)

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError, match="demand must be positive"):
            flow(demand=-5.0)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError, match="size must be >= 0"):
            flow(size=-1.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="duration must be >= 0"):
            flow(duration=-0.1)

    def test_same_endpoints_rejected(self):
        with pytest.raises(ValueError, match="two endpoints"):
            flow(dst="a")

    def test_flow_is_frozen(self):
        f = flow()
        with pytest.raises(AttributeError):
            f.demand = 99.0


class TestServiceTime:
    def test_explicit_duration_wins(self):
        f = flow(duration=3.5, size=1000.0)
        assert f.service_time == 3.5

    def test_derived_from_size(self):
        f = flow(size=50.0, demand=10.0)
        assert f.service_time == pytest.approx(5.0)

    def test_permanent_flow_is_infinite(self):
        f = flow()
        assert math.isinf(f.service_time)

    def test_zero_duration_allowed(self):
        f = flow(duration=0.0)
        assert f.service_time == 0.0


class TestReplace:
    def test_replace_creates_modified_copy(self):
        f = flow()
        g = f.replace(demand=20.0)
        assert g.demand == 20.0
        assert f.demand == 10.0
        assert g.flow_id == f.flow_id

    def test_replace_validates(self):
        with pytest.raises(ValueError):
            flow().replace(demand=-1.0)


class TestNextFlowId:
    def test_ids_are_unique(self):
        ids = {next_flow_id() for __ in range(100)}
        assert len(ids) == 100

    def test_id_format(self):
        assert next_flow_id().startswith("f")


class TestPlacement:
    def test_links_of_path(self):
        p = Placement(flow=flow(), path=("a", "s1", "s2", "b"))
        assert p.links == (("a", "s1"), ("s1", "s2"), ("s2", "b"))

    def test_short_path_rejected(self):
        with pytest.raises(ValueError, match="at least two nodes"):
            Placement(flow=flow(), path=("a",))

    def test_endpoint_mismatch_rejected(self):
        with pytest.raises(ValueError, match="do not match"):
            Placement(flow=flow(), path=("a", "s1", "c"))

    def test_src_mismatch_rejected(self):
        with pytest.raises(ValueError, match="do not match"):
            Placement(flow=flow(), path=("x", "s1", "b"))


class TestSlots:
    """Flows and placements carry no per-instance ``__dict__``, and still
    pickle and copy (the parallel runner and checkpoint tests rely on
    both)."""

    def values(self):
        update = flow(flow_id="f-u", src="h0_0_0", dst="h1_0_0", size=5.0,
                      duration=2.5, event_id="U1", kind=FlowKind.UPDATE)
        path = PathProvider(FatTreeTopology(k=4)).paths("h0_0_0",
                                                        "h1_0_0")[1]
        return [update, Placement(flow=update, path=path),
                Placement(flow=update, path=tuple(path))]

    def test_no_instance_dict(self):
        for value in self.values():
            assert not hasattr(value, "__dict__")
            with pytest.raises((AttributeError, TypeError)):
                value.extra = 1

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy,
        lambda value: pickle.loads(pickle.dumps(value))])
    def test_round_trips(self, clone):
        for value in self.values():
            twin = clone(value)
            assert type(twin) is type(value) and twin == value
        placement = self.values()[1]
        twin = clone(placement)
        assert twin.path.link_idx == placement.path.link_idx
        assert twin.links == placement.links
