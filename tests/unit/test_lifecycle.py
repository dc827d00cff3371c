"""Unit tests for the event-lifecycle state machine and its event rows
(sim/lifecycle.py)."""

import pytest

from repro.sim.lifecycle import (
    LEGAL_TRANSITIONS,
    TERMINAL_STATES,
    EventLifecycle,
    EventState,
    IllegalTransitionError,
)


class TestStateMachineShape:
    def test_terminal_states_are_completed_and_dropped(self):
        assert TERMINAL_STATES == {EventState.COMPLETED, EventState.DROPPED}

    def test_every_state_has_a_transition_entry(self):
        assert set(LEGAL_TRANSITIONS) == set(EventState)

    def test_every_nonterminal_state_reaches_a_terminal_state(self):
        # No livelock pockets: from any state some path ends the event.
        reachable = {}
        for state in EventState:
            seen = {state}
            frontier = [state]
            while frontier:
                nxt = frontier.pop()
                for succ in LEGAL_TRANSITIONS[nxt]:
                    if succ not in seen:
                        seen.add(succ)
                        frontier.append(succ)
            reachable[state] = seen
        for state in EventState:
            assert reachable[state] & TERMINAL_STATES, state


class TestRegister:
    def test_register_enters_queued(self):
        lc = EventLifecycle()
        row = lc.register("U1", at=2.5, flow_count=3)
        assert lc.state("U1") is EventState.QUEUED
        assert lc.row("U1") is row
        assert (row.event_id, row.arrival_time, row.flow_count, row.index,
                row.origin) == ("U1", 2.5, 3, 0, "submitted")
        assert lc.register("U2", at=3.0).index == 1

    def test_register_twice_raises(self):
        lc = EventLifecycle()
        lc.register("U1", at=0.0)
        with pytest.raises(IllegalTransitionError, match="registered twice"):
            lc.register("U1", at=1.0)

    def test_repair_origin_is_kept(self):
        lc = EventLifecycle()
        lc.register("repair-1", at=3.0, origin="repair")
        assert lc.row("repair-1").origin == "repair"


class TestAdvance:
    def _admitted(self):
        lc = EventLifecycle()
        lc.register("U1", at=0.0)
        lc.advance("U1", EventState.PROBED, 1.0)
        lc.advance("U1", EventState.ADMITTED, 1.0)
        return lc

    def test_happy_path_to_completed(self):
        lc = self._admitted()
        lc.advance("U1", EventState.EXECUTING, 1.0)
        lc.advance("U1", EventState.COMPLETED, 5.0)
        assert lc.state("U1") is EventState.COMPLETED

    def test_defer_requeue_drop_path(self):
        lc = self._admitted()
        lc.advance("U1", EventState.EXECUTING, 1.0)
        lc.advance("U1", EventState.DEFERRED, 2.0)
        lc.advance("U1", EventState.QUEUED, 2.0)
        lc.advance("U1", EventState.PROBED, 3.0)
        lc.advance("U1", EventState.QUEUED, 3.0)  # not selected
        lc.advance("U1", EventState.DEFERRED, 4.0)  # stall pass
        lc.advance("U1", EventState.DROPPED, 4.0)
        assert lc.state("U1") is EventState.DROPPED

    def test_unknown_event_raises(self):
        lc = EventLifecycle()
        with pytest.raises(IllegalTransitionError, match="unknown event"):
            lc.advance("ghost", EventState.PROBED, 0.0)

    def test_illegal_transition_raises_and_names_legal_moves(self):
        lc = EventLifecycle()
        lc.register("U1", at=0.0)
        with pytest.raises(IllegalTransitionError,
                           match="queued → executing"):
            lc.advance("U1", EventState.EXECUTING, 0.0)
        # The failed move must not corrupt the registry.
        assert lc.state("U1") is EventState.QUEUED

    def test_skipping_admitted_raises(self):
        lc = EventLifecycle()
        lc.register("U1", at=0.0)
        lc.advance("U1", EventState.PROBED, 0.0)
        with pytest.raises(IllegalTransitionError):
            lc.advance("U1", EventState.COMPLETED, 0.0)

    @pytest.mark.parametrize("terminal",
                             [EventState.COMPLETED, EventState.DROPPED])
    def test_terminal_states_accept_nothing(self, terminal):
        lc = self._admitted()
        lc.advance("U1", EventState.EXECUTING, 1.0)
        if terminal is EventState.COMPLETED:
            lc.advance("U1", EventState.COMPLETED, 2.0)
        else:
            lc.advance("U1", EventState.DEFERRED, 2.0)
            lc.advance("U1", EventState.DROPPED, 2.0)
        for target in EventState:
            with pytest.raises(IllegalTransitionError):
                lc.advance("U1", target, 3.0)

    def test_queued_cannot_reenter_queued_directly(self):
        # Requeue is only legal through DEFERRED (charged) or PROBED
        # (round bookkeeping); a silent QUEUED->QUEUED would hide lost
        # deferral accounting.
        lc = EventLifecycle()
        lc.register("U1", at=0.0)
        with pytest.raises(IllegalTransitionError):
            lc.advance("U1", EventState.QUEUED, 1.0)


class TestQueries:
    def test_counts_and_remaining(self):
        lc = EventLifecycle()
        lc.register("U1", at=0.0)
        lc.register("U2", at=0.0)
        lc.advance("U1", EventState.PROBED, 1.0)
        counts = lc.counts()
        assert counts[EventState.QUEUED] == 1
        assert counts[EventState.PROBED] == 1
        assert counts[EventState.COMPLETED] == 0
        assert len(lc) == 2
        assert lc.remaining == 2
        settle(lc, "U2")
        assert lc.remaining == 1
        assert lc.counts()[EventState.COMPLETED] == 1


class TestRow:
    def test_terminal_move_stamps_completion_and_makespan(self):
        lc = EventLifecycle()
        for event_id in ("U1", "U2"):
            lc.register(event_id, at=0.0)
        settle(lc, "U1")
        settle(lc, "U2", to=EventState.DROPPED)
        done, dropped = lc.row("U1"), lc.row("U2")
        assert done.completion_time == 2.0 and done.completed
        assert not done.dropped
        assert dropped.dropped and dropped.completion_time is None
        assert lc.makespan == 2.0

    def test_queue_stay_charges_the_rounds_settled_inside_it(self):
        lc = EventLifecycle()
        lc.settle_round()
        lc.register("U1", at=0.0)
        lc.settle_round()
        lc.advance("U1", EventState.PROBED, 1.0)
        lc.advance("U1", EventState.QUEUED, 1.0)   # still in the queue
        lc.settle_round()
        lc.advance("U1", EventState.PROBED, 2.0)
        lc.advance("U1", EventState.ADMITTED, 2.0)   # the stay ends
        lc.settle_round()
        assert lc.row("U1").rounds_waited == 2
        lc.advance("U1", EventState.EXECUTING, 2.0)
        lc.advance("U1", EventState.QUEUED, 2.0)   # a second stay
        lc.settle_round()
        # an open stay is charged when the rows are read
        assert lc.row("U1").rounds_waited == 2
        assert lc.records()["U1"].rounds_waited == 3
        lc.settle_round()
        assert lc.records()["U1"].rounds_waited == 4


def settle(lc, event_id, to=EventState.COMPLETED):
    """Drive ``event_id`` to ``to``; returns its terminal journal record
    (kind, event and :meth:`EventLifecycle.settled_entry`)."""
    for state in (EventState.PROBED, EventState.ADMITTED,
                  EventState.EXECUTING):
        lc.advance(event_id, state, 1.0)
    if to is EventState.DROPPED:
        lc.advance(event_id, EventState.DEFERRED, 2.0)
    lc.advance(event_id, to, 2.0)
    kind = {EventState.COMPLETED: "complete",
            EventState.DROPPED: "drop"}[to]
    return {"kind": kind, "event": event_id, **lc.settled_entry(event_id)}


class TestCheckpointing:
    """A settled event's entry goes out in its terminal journal record
    (:meth:`EventLifecycle.settled_entry`); a live event has none yet."""

    def build(self):
        lc = EventLifecycle()
        for event_id, origin in (("U1", "stream"), ("U2", "repair"),
                                 ("U3", "stream"), ("U4", "stream")):
            lc.register(event_id, at=0.0, origin=origin)
        self.settled = [settle(lc, "U3"),
                        settle(lc, "U1", to=EventState.DROPPED)]
        lc.advance("U4", EventState.PROBED, 3.0)
        return lc

    def test_export_splits_live_from_settled(self):
        lc = self.build()
        assert [lc.state(event_id) for event_id in ("U2", "U4")] == [
            EventState.QUEUED, EventState.PROBED]
        assert lc.counts()[EventState.COMPLETED] == 1
        assert self.settled == [
            {"kind": "complete", "event": "U3", "index": 2,
             "origin": "stream"},
            {"kind": "drop", "event": "U1", "index": 0, "origin": "stream"}]
        # Every settled row keeps its entry; a live one has none.
        assert lc.settled_entry("U3") == {"index": 2, "origin": "stream"}
        for event_id in ("U2", "U4"):
            with pytest.raises(IllegalTransitionError, match="not settled"):
                lc.settled_entry(event_id)
