"""Property-based tests for the DES engine and metric aggregation."""

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationEngine
from repro.sim.hooks import (
    EventAdmitted,
    EventArrived,
    EventCompleted,
    HookBus,
)
from repro.sim.metrics import MetricsCollector, percentile


class TestEngineProperties:
    @given(times=st.lists(st.floats(min_value=0.0, max_value=1e6,
                                    allow_nan=False),
                          min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_events_fire_in_nondecreasing_time_order(self, times):
        engine = SimulationEngine()
        fired = []
        for t in times:
            engine.schedule_at(t, lambda t=t: fired.append(engine.now))
        engine.run()
        assert fired == sorted(fired)
        assert len(fired) == len(times)

    @given(times=st.lists(st.floats(min_value=0.0, max_value=100.0),
                          min_size=2, max_size=30),
           cancel_index=st.integers(min_value=0, max_value=29))
    @settings(max_examples=50, deadline=None)
    def test_cancellation_removes_exactly_one(self, times, cancel_index):
        engine = SimulationEngine()
        fired = []
        handles = [engine.schedule_at(t, lambda i=i: fired.append(i))
                   for i, t in enumerate(times)]
        victim = cancel_index % len(handles)
        handles[victim].cancel()
        engine.run()
        assert len(fired) == len(times) - 1
        assert victim not in fired


#: One engine operation: schedule at ``now + offset`` (small integer
#: offsets, so equal times and the ``seq`` tie-break are common), cancel
#: up to ``n`` live entries (every other one, from the oldest; enough of
#: them trips compaction) or step once.
ENGINE_OPS = st.lists(st.one_of(
    st.tuples(st.just("schedule"), st.integers(0, 4)),
    st.tuples(st.just("cancel"), st.integers(1, 60)),
    st.tuples(st.just("step"), st.just(0)),
), max_size=200)


class TestEngineHeapOrder:
    """The ``(time, seq, handle)`` heap pops exactly in ``sorted((time,
    seq))`` order of the live entries, through cancels and the
    compactions they trigger; ``pending`` never drifts from the heap
    recount."""

    @given(prefill=st.integers(0, 20) | st.integers(64, 160), ops=ENGINE_OPS)
    @settings(max_examples=150, deadline=None)
    def test_pop_order_matches_sorted_reference(self, prefill, ops):
        engine = SimulationEngine()
        fired: list[int] = []
        live: dict[int, tuple[float, int]] = {}  # serial -> (time, seq)
        handles = {}
        next_seq = 0

        def callback(serial):
            return lambda: fired.append(serial)

        def schedule(offset):
            nonlocal next_seq
            serial = next_seq
            time = engine.now + offset
            handles[serial] = engine.schedule_callback(
                time, callback(serial), tag=f"e:{serial}")
            live[serial] = (time, next_seq)
            next_seq += 1

        def check():
            assert engine.pending == engine.live_pending() == len(live)

        for i in range(prefill):
            schedule(i % 5)
        check()
        compacted = False
        for op, arg in ops:
            if op == "schedule":
                schedule(arg)
            elif op == "cancel":
                for victim in sorted(live)[::2][:arg]:
                    before = len(engine._heap)
                    handles.pop(victim).cancel()
                    del live[victim]
                    compacted |= len(engine._heap) < before
                    check()
            elif op == "step":
                expected = min(live, key=live.__getitem__) if live else None
                assert engine.step() is (expected is not None)
                if expected is not None:
                    assert fired[-1] == expected
                    assert engine.now == live.pop(expected)[0]
                    del handles[expected]
            check()
        order = sorted(live, key=live.__getitem__)
        del fired[:]
        engine.run()
        assert fired == order
        assert engine.pending == engine.live_pending() == 0
        event("compacted" if compacted else "not compacted")


class TestPercentileProperties:
    @given(values=st.lists(st.floats(min_value=-1e6, max_value=1e6),
                           min_size=1, max_size=100),
           q=st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=100, deadline=None)
    def test_percentile_is_an_element_within_bounds(self, values, q):
        result = percentile(values, q)
        assert result in values
        assert min(values) <= result <= max(values)

    @given(values=st.lists(st.floats(min_value=-1e6, max_value=1e6),
                           min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_percentile_monotone_in_q(self, values):
        qs = [10, 50, 90, 100]
        results = [percentile(values, q) for q in qs]
        assert results == sorted(results)


class TestCollectorProperties:
    @given(ects=st.lists(st.floats(min_value=0.1, max_value=1e4),
                         min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_aggregates_bound_each_other(self, ects):
        bus = HookBus()
        collector = MetricsCollector("prop", bus)
        for index, ect in enumerate(ects):
            eid = f"E{index}"
            bus.emit(EventArrived(0.0, eid, 1, "submitted"))
            bus.emit(EventAdmitted(0.0, eid, cost=0.0, migrations=0,
                                   flows=1, setup_done_time=0.0))
            bus.emit(EventCompleted(ect, eid))
        metrics = collector.finalize()
        assert metrics.average_ect <= metrics.tail_ect + 1e-9
        assert metrics.p95_ect <= metrics.p99_ect + 1e-9
        assert metrics.p99_ect <= metrics.tail_ect + 1e-9
        assert metrics.average_ect == pytest.approx(sum(ects) / len(ects))
        assert metrics.makespan == pytest.approx(max(ects))
