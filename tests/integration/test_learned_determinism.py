"""Integration: L-LMTF is seed-deterministic.

The acceptance claim: with the same seed (and, where used, the same
trained model file), L-LMTF produces an identical schedule hash across
repeat runs and across ``--jobs`` fan-out of bench cells. This holds
because candidate ranking is RNG-free, the sample draws match exact LMTF's
stream, and all model mutation happens in the ``decide`` step.
"""

from dataclasses import replace

from repro.experiments.common import DEFAULTS, Scenario
from repro.experiments.learnedbench import quality_cell, schedule_digest
from repro.experiments.runner import Cell, hermetic_ids, run_cells
from repro.traces.events import EventGeneratorConfig

QUALITY_PARAMS = {"style": "fig5", "events": 10, "k": 4, "seed": 3,
                  "min_flows": 4, "max_flows": 8, "warmup": 8}


def _scenario(seed: int = 3) -> Scenario:
    return Scenario(utilization=0.5, seed=seed, events=10, churn=False,
                    event_config=EventGeneratorConfig(min_flows=4,
                                                      max_flows=8),
                    defaults=replace(DEFAULTS, k=4))


def _run(scheduler, seed: int = 3):
    # Global flow/event id counters feed the ECMP path hash, so direct
    # (non-cell-runner) runs must reset them to compare digests.
    with hermetic_ids():
        scenario = _scenario(seed)
        sim = scenario.simulator(scheduler)
        sim.submit(scenario.generate_events())
        return sim.run()


def _hermetic_quality_cell(**params):
    with hermetic_ids():
        return quality_cell(**params)


class TestLearnedDeterminism:
    def test_repeat_runs_hash_identically(self):
        first = _hermetic_quality_cell(**QUALITY_PARAMS)
        second = _hermetic_quality_cell(**QUALITY_PARAMS)
        assert first["digest_learned"] == second["digest_learned"]
        assert first["digest_lmtf"] == second["digest_lmtf"]

    def test_jobs_fanout_hashes_identically(self):
        cells = [Cell(key=f"cell{i}",
                      fn="repro.experiments.learnedbench:quality_cell",
                      params=dict(QUALITY_PARAMS))
                 for i in range(2)]
        serial = run_cells(cells, jobs=1)
        pooled = run_cells(cells, jobs=2)
        for cell in cells:
            assert serial[cell.key].value == pooled[cell.key].value

    def test_pretrained_model_hashes_identically(self, tmp_path):
        from repro.sched.learned.scheduler import LearnedLMTFScheduler

        donor = LearnedLMTFScheduler(alpha=4, seed=12, budget=2,
                                     warmup=0, error_threshold=1e9)
        _run(donor, seed=12)  # train in-run
        path = tmp_path / "model.json"
        donor.save_model(path)

        digests = [
            schedule_digest(_run(LearnedLMTFScheduler(
                alpha=4, seed=12, budget=2, warmup=0,
                error_threshold=1e9, model_path=str(path)), seed=12))
            for _ in range(2)
        ]
        assert digests[0] == digests[1]
