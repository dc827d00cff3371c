"""The pipeline probes what the scheduler reports, not the whole queue.

``RoundDecision.probed`` is the only thing the pipeline moves through the
PROBED lifecycle state, so a sampling scheduler's round costs O(α)
lifecycle traffic however deep the queue is (paper §IV-B/C: "checks only
the sampled candidates, not the whole queue"). The stall fallback may
still admit an event the scheduler never probed; the pipeline repairs that
event's lifecycle path (QUEUED→PROBED→ADMITTED) and carries the
scheduler's telemetry over.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import ab_flow, cd_flow, diamond_setup, spy_moves  # noqa: E402

from repro.core.event import make_event
from repro.sched import build_scheduler
from repro.sim.hooks import PreRound
from repro.sim.lifecycle import EventState
from repro.sim.simulator import SimulationConfig, UpdateSimulator

ALPHA = 4
DEPTH = 500
ROUNDS = 12
BLOCKED = 6


class ProbeCounter:
    """Counts moves into PROBED per round (PreRound closes a round) and
    keeps every event's moves."""

    def __init__(self, sim):
        self.per_round: list[int] = []
        self.admitted: list[tuple[str, ...]] = []
        self.skipped: list[int] = []
        self._open = 0
        self.moves: dict[str, list] = {}
        spy_moves(sim, self._on_move)
        sim.hooks.subscribe(PreRound, self._on_pre_round)

    def _on_move(self, event_id, frm, to):
        self.moves.setdefault(event_id, []).append((frm, to))
        if to is EventState.PROBED:
            self._open += 1

    def _on_pre_round(self, hook):
        self.per_round.append(self._open)
        self.admitted.append(hook.admitted)
        self.skipped.append(hook.probes_skipped)
        self._open = 0


def deep_queue_rounds(spec):
    """PROBED moves per round over ``ROUNDS`` rounds of a 500-deep queue."""
    net, provider = diamond_setup()
    sim = UpdateSimulator(net, provider, build_scheduler(spec),
                          config=SimulationConfig(seed=1), audit=True)
    counter = ProbeCounter(sim)
    sim.start()
    for i in range(DEPTH):
        sim.pipeline.enqueue(
            make_event([cd_flow(f"q{i}", 0.1, 1.0)]), kick=False)
    sim.pipeline.schedule_round()
    while sim.pipeline.round_count < ROUNDS and sim.engine.step():
        pass
    assert sim.pipeline.round_count == ROUNDS
    return counter.per_round, sim.pipeline.queue_depth


class TestRoundIsOAlpha:
    @pytest.mark.parametrize("kind", ["lmtf", "plmtf", "learned",
                                      "staged-plmtf"])
    def test_sampling_round_probes_at_most_alpha_plus_one(self, kind):
        per_round, _depth = deep_queue_rounds(
            {"kind": kind, "alpha": ALPHA, "seed": 3})
        assert max(per_round) <= ALPHA + 1, per_round
        assert min(per_round) >= 1

    def test_fifo_still_sweeps_the_whole_queue(self):
        per_round, depth = deep_queue_rounds({"kind": "fifo"})
        assert per_round[0] == DEPTH
        assert per_round[-1] == depth + 1  # one admission per round


def stalled_run(spec):
    """A run whose first ``BLOCKED`` events can never be placed.

    A permanent hog leaves 5 Mbit/s on host a's uplink, so every a->b
    event is infeasible; the one placeable (c->d) event sits at the back
    of the queue. ``max_deferrals`` lets the run drain by dropping the
    blocked events; the auditor checks every round.
    """
    net, provider = diamond_setup()
    net.place(ab_flow("hog", 95.0, duration=None),
              ("a", "s1", "top", "s2", "b"))
    scheduler = build_scheduler(spec)
    sim = UpdateSimulator(
        net, provider, scheduler,
        config=SimulationConfig(seed=1, verify_invariants=True,
                                max_deferrals=1),
        audit=True)
    counter = ProbeCounter(sim)
    events = [make_event([ab_flow(f"big{i}", 50.0, 1.0)],
                         label=f"blocked{i}") for i in range(BLOCKED)]
    small = make_event([cd_flow("tiny", 2.0, 1.0)], label="small")
    sim.submit(events + [small])
    metrics = sim.run()
    sim.auditor.assert_drained()
    return sim, counter, metrics, small


class TestFallbackOutsideProbedSet:
    def test_unsampled_admission_is_routed_through_probed(self):
        # alpha=1 samples the head plus one of six non-head events; with
        # this seed no pre-fallback round draws the placeable one, so the
        # stall fallback admits an event the scheduler never probed.
        sim, counter, metrics, small = stalled_run(
            {"kind": "lmtf", "alpha": 1, "seed": 0})
        assert metrics.event_count == 1
        assert metrics.dropped_events == BLOCKED
        index = counter.admitted.index((small.event_id,))
        # the alpha+1 sampled candidates, plus the repaired admission
        assert counter.per_round[index] == 1 + 1 + 1
        assert counter.moves[small.event_id][-4:] == [
            (EventState.QUEUED, EventState.PROBED),
            (EventState.PROBED, EventState.ADMITTED),
            (EventState.ADMITTED, EventState.EXECUTING),
            (EventState.EXECUTING, EventState.COMPLETED)]
        assert sim.auditor.audits == metrics.rounds


class TestFallbackKeepsLearnedTelemetry:
    def test_counters_survive_a_stall_fallback_round(self):
        # A confident model (warmup 0) with budget 1 probes only the
        # (infeasible) head and skips the other two sampled candidates;
        # the stall fallback then rebuilds the decision. The skipped
        # probes of that round must still reach PreRound and RunMetrics.
        spec = {"kind": "learned", "alpha": 2, "seed": 0, "budget": 1,
                "warmup": 0, "error_threshold": 1e9}
        sim, counter, metrics, small = stalled_run(spec)
        index = counter.admitted.index((small.event_id,))
        assert counter.skipped[index] == 2
        assert metrics.probes_skipped == sum(counter.skipped)
        # every round up to the admission sampled 3 and probed 1
        assert metrics.probes_skipped >= 2 * (index + 1)
