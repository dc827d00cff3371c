"""Integration: L-LMTF is seed-deterministic, and its drift guard works.

The acceptance claim: with the same seed (and, where used, the same
trained model file), L-LMTF produces an identical schedule across repeat
runs and across ``--jobs`` fan-out of ``ablation-learned`` cells. This
holds because candidate ranking is RNG-free, the sample draws match exact
LMTF's stream, and all model mutation happens in the ``decide`` step.
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import schedule_digest  # noqa: E402

from repro.experiments.ablations import learned_sweep
from repro.experiments.common import DEFAULTS, Scenario
from repro.experiments.runner import hermetic_ids
from repro.traces.events import EventGeneratorConfig

#: Ten events: long enough that rounds past the 32-sample training window
#: run on the trimmed shortlist.
SWEEP = {"events": 10, "budgets": (2,), "thresholds": (2.0,)}


def _scenario(seed: int, utilization: float = 0.5, events: int = 10,
              churn: bool = False, min_flows: int = 4,
              max_flows: int = 8) -> Scenario:
    return Scenario(utilization=utilization, seed=seed, events=events,
                    churn=churn,
                    event_config=EventGeneratorConfig(min_flows=min_flows,
                                                      max_flows=max_flows),
                    defaults=replace(DEFAULTS, k=4))


def _run(scheduler, scenario: Scenario):
    sim = scenario.simulator(scheduler)
    sim.submit(scenario.generate_events())
    return sim.run()


@pytest.fixture(scope="module")
def serial_sweep() -> str:
    result = learned_sweep(jobs=1, **SWEEP)
    assert any(row["probes_skipped"] > 0 for row in result.rows)
    return result.to_json()


class TestLearnedDeterminism:
    def test_repeat_runs_hash_identically(self, serial_sweep):
        assert learned_sweep(jobs=1, **SWEEP).to_json() == serial_sweep

    def test_jobs_fanout_hashes_identically(self, serial_sweep):
        assert learned_sweep(jobs=2, **SWEEP).to_json() == serial_sweep

    def test_pretrained_model_hashes_identically(self, tmp_path):
        from repro.sched.learned.scheduler import LearnedLMTFScheduler

        def run(scheduler):
            # Global flow/event id counters feed the ECMP path hash, so
            # direct (non-cell-runner) runs reset them to compare digests.
            with hermetic_ids():
                return _run(scheduler, _scenario(seed=12))

        donor = LearnedLMTFScheduler(alpha=4, seed=12, budget=2,
                                     warmup=0, error_threshold=1e9)
        run(donor)  # train in-run
        path = tmp_path / "model.json"
        donor.save_model(path)

        digests = [
            schedule_digest(run(LearnedLMTFScheduler(
                alpha=4, seed=12, budget=2, warmup=0,
                error_threshold=1e9, model_path=str(path))))
            for _ in range(2)
        ]
        assert digests[0] == digests[1]


def test_drift_reengages_full_probing():
    """Train on a calm workload, then evaluate on a hot, shifted one.

    The tight error threshold means the model earns confidence on the calm
    distribution (small, low-demand events at 30% load) and must *lose* it
    when the workload shifts (large events at 85% load, churn on, another
    seed): the drift guard has to push the EWMA error past the threshold
    and fall back to probing every candidate.
    """
    from repro.sched.learned.scheduler import LearnedLMTFScheduler

    scheduler = LearnedLMTFScheduler(alpha=4, seed=9, budget=2, warmup=16,
                                     error_threshold=0.35)
    calm = _scenario(seed=0, utilization=0.3, events=20,
                     min_flows=2, max_flows=5)
    hot = _scenario(seed=31, utilization=0.85, events=20, churn=True,
                    min_flows=10, max_flows=24)
    with hermetic_ids():
        train = _run(scheduler, calm)
        evaluation = _run(scheduler, hot)  # same instance: model carries
    assert train.probes_skipped > 0  # confidence was earned ...
    assert evaluation.fallback_rounds > 0  # ... and lost
