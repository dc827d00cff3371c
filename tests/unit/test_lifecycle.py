"""Unit tests for the event-lifecycle state machine (sim/lifecycle.py)."""

import pytest

from repro.sim.lifecycle import (
    LEGAL_TRANSITIONS,
    OUTCOME_STATES,
    TERMINAL_STATES,
    EventLifecycle,
    EventState,
    IllegalTransitionError,
    TransitionRecord,
    in_registration_order,
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
        record = lc.register("U1", at=0.0)
        assert lc.state("U1") is EventState.QUEUED
        assert record == TransitionRecord("U1", None, EventState.QUEUED, 0.0)
        assert lc.origin("U1") == "submitted"

    def test_register_twice_raises(self):
        lc = EventLifecycle()
        lc.register("U1", at=0.0)
        with pytest.raises(IllegalTransitionError, match="registered twice"):
            lc.register("U1", at=1.0)

    def test_repair_origin_is_kept(self):
        lc = EventLifecycle()
        lc.register("repair-1", at=3.0, origin="repair")
        assert lc.origin("repair-1") == "repair"


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


class TestQueriesAndHistory:
    def test_history_records_moves_in_order(self):
        lc = EventLifecycle()
        lc.register("U1", at=0.0)
        lc.advance("U1", EventState.PROBED, 1.5)
        history = lc.history("U1")
        assert [r.to for r in history] == [EventState.QUEUED,
                                           EventState.PROBED]
        assert history[1].at == 1.5
        assert "queued→probed" in str(history[1])

    def test_history_is_bounded(self):
        lc = EventLifecycle(history_limit=3)
        lc.register("U1", at=0.0)
        for tick in range(5):
            lc.advance("U1", EventState.PROBED, float(tick))
            lc.advance("U1", EventState.QUEUED, float(tick))
        assert len(lc.history("U1")) == 3

    def test_counts_and_in_state(self):
        lc = EventLifecycle()
        lc.register("U1", at=0.0)
        lc.register("U2", at=0.0)
        lc.advance("U1", EventState.PROBED, 1.0)
        counts = lc.counts()
        assert counts[EventState.QUEUED] == 1
        assert counts[EventState.PROBED] == 1
        assert counts[EventState.COMPLETED] == 0
        assert lc.in_state(EventState.QUEUED) == ("U2",)
        assert len(lc) == 2
        assert lc.transition_count == 3  # two registrations + one advance

    def test_knows(self):
        lc = EventLifecycle()
        assert not lc.knows("U1")
        lc.register("U1", at=0.0)
        assert lc.knows("U1")

    def test_history_limit_validation(self):
        with pytest.raises(ValueError):
            EventLifecycle(history_limit=0)


def settle(lc, event_id, to=EventState.COMPLETED):
    """Drive ``event_id`` to ``to``; returns its terminal journal record
    (kind, event and :meth:`EventLifecycle.settled_entry`)."""
    for state in (EventState.PROBED, EventState.ADMITTED,
                  EventState.EXECUTING):
        lc.advance(event_id, state, 1.0)
    if to is EventState.DROPPED:
        lc.advance(event_id, EventState.DEFERRED, 2.0)
    lc.advance(event_id, to, 2.0)
    kind = {state: kind for kind, state in OUTCOME_STATES.items()}[to]
    return {"kind": kind, "event": event_id, **lc.settled_entry(event_id)}


class TestCheckpointing:
    def test_in_registration_order_fills_the_gaps(self):
        assert in_registration_order([(2, "c"), (0, "a")], ["b", "d"]) \
            == ["a", "b", "c", "d"]
        assert in_registration_order([], ["x"]) == ["x"]

    @pytest.mark.parametrize("settled", [[(2, "c")], [(0, "a"), (0, "b")],
                                         [(-1, "a")]])
    def test_in_registration_order_rejects_halves_that_do_not_tile(
            self, settled):
        with pytest.raises(ValueError, match="do not tile"):
            in_registration_order(settled, ["x"])

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
        state = lc.export_state()
        assert list(state["states"]) == ["U2", "U4"]
        assert list(state["origins"]) == ["U2", "U4"]
        assert list(state["histories"]) == ["U2", "U4"]
        assert state["counts"]["completed"] == 1
        assert self.settled == [
            {"kind": "complete", "event": "U3", "index": 2,
             "origin": "stream"},
            {"kind": "drop", "event": "U1", "index": 0, "origin": "stream"}]
        # Only the event that settled last has its entry at hand.
        assert lc.settled_entry("U1") == {"index": 0, "origin": "stream"}
        for event_id in ("U3", "U2"):
            with pytest.raises(IllegalTransitionError, match="settled last"):
                lc.settled_entry(event_id)

    def test_restore_round_trips_order_counts_and_cursors(self):
        lc = self.build()
        restored = EventLifecycle()
        restored.restore_state(lc.export_state(), self.settled)
        assert restored.in_state(EventState.QUEUED) == ("U2",)
        assert [restored.state(e) for e in ("U1", "U2", "U3", "U4")] == \
            [lc.state(e) for e in ("U1", "U2", "U3", "U4")]
        assert restored.origin("U2") == "repair"
        assert restored.counts() == lc.counts()
        assert restored.transition_count == lc.transition_count
        assert restored.history("U4") == lc.history("U4")
        # The restored registry keeps exporting where the original would.
        entries = []
        for registry in (lc, restored):
            registry.register("U5", at=4.0)
            entries.append(settle(registry, "U2"))
        assert restored.export_state() == lc.export_state()
        assert entries[0] == entries[1] == {
            "kind": "complete", "event": "U2", "index": 1,
            "origin": "repair"}
