"""Integration: robustness experiments and failure-recovery pipeline."""

import random

import pytest

from repro import (
    BackgroundLoader,
    FailureInjector,
    FatTreeTopology,
    PathProvider,
    PLMTFScheduler,
    SimulationConfig,
    UpdateSimulator,
    YahooLikeTrace,
    repair_event,
)
from repro.experiments import robustness


class TestTopologySweep:
    def test_small_sweep_runs(self):
        result = robustness.topology_sweep(seed=1, events=6,
                                           utilization=0.5, jobs=2)
        assert {row["topology"] for row in result.rows} == \
            {"leaf-spine", "jellyfish"}
        for row in result.rows:
            # gains may be modest off fat-tree, but P-LMTF must not regress
            # catastrophically
            assert row["plmtf_avg_ect_red%"] > -20


class TestOracleComparison:
    def test_small_comparison_runs(self):
        result = robustness.oracle_comparison(seed=1, events=8,
                                              utilization=0.6, jobs=2)
        names = {row["scheduler"] for row in result.rows}
        assert "lmtf" in names
        assert "oracle-sjf-duration" in names
        assert len(result.rows) == 4  # lmtf + 3 oracles


class TestFailureRecoveryPipeline:
    def test_core_failure_repair_end_to_end(self):
        topology = FatTreeTopology(k=4)
        provider = PathProvider(topology)
        network = topology.network()
        trace = YahooLikeTrace(topology.hosts(), seed=30)
        loader = BackgroundLoader(network, provider, trace,
                                  random.Random(31))
        loader.load_to_utilization(0.45)

        injector = FailureInjector(network)
        record = injector.fail_switch("c0_0")
        assert record.stranded  # a 45%-loaded fabric uses every core

        event = repair_event(record, duration=5.0)
        simulator = UpdateSimulator(
            network, provider, PLMTFScheduler(alpha=2, seed=32),
            config=SimulationConfig(seed=33, verify_invariants=True))
        simulator.submit([event])
        metrics = simulator.run()
        assert metrics.event_count == 1
        # nothing routed through the dead switch during the repair
        assert network.capacity("c0_0", "a0_0") == 0.0
        injector.heal(record)
        assert network.capacity("c0_0", "a0_0") == 1000.0

    def test_repair_infeasible_when_everything_dead(self):
        topology = FatTreeTopology(k=4)
        network = topology.network()
        provider = PathProvider(topology)
        from repro.core.flow import Flow
        network.place(Flow(flow_id="x", src="h0_0_0", dst="h1_0_0",
                           demand=10.0, duration=1.0),
                      ("h0_0_0", "e0_0", "a0_0", "c0_0", "a1_0", "e1_0",
                       "h1_0_0"))
        injector = FailureInjector(network)
        record = injector.fail_switch("e0_0")  # the host's only edge switch
        event = repair_event(record, duration=1.0)
        simulator = UpdateSimulator(network, provider,
                                    PLMTFScheduler(alpha=2, seed=1),
                                    config=SimulationConfig(seed=2))
        simulator.submit([event])
        from repro.core.exceptions import SimulationError
        with pytest.raises(SimulationError, match="deadlock"):
            simulator.run()


class TestFailureSweep:
    SWEEP = dict(seed=1, events=5, utilization=0.5,
                 fault_rates=(0.0, 0.05), horizon=60.0)

    def test_small_sweep_runs_with_accounting(self):
        result = robustness.failure_sweep(**self.SWEEP)
        assert len(result.rows) == 2 * 3  # 2 rates x 3 schedulers
        by_rate = {}
        for row in result.rows:
            by_rate.setdefault(row["fault_rate"], []).append(row)
        # The zero-rate rows ran the same unreliable control plane, so
        # retries may be nonzero, but no faults can have been injected.
        for row in by_rate[0.0]:
            assert row["faults"] == 0
        assert any(row["faults"] > 0 for row in by_rate[0.05])

    def test_jobs2_matches_jobs1_byte_identical(self):
        sequential = robustness.failure_sweep(**self.SWEEP, jobs=1)
        parallel = robustness.failure_sweep(**self.SWEEP, jobs=2)
        assert parallel.to_json() == sequential.to_json()

    def test_resume_after_partial_checkpoint(self, tmp_path):
        ck = tmp_path / "failures.jsonl"
        reference = robustness.failure_sweep(**self.SWEEP, jobs=2,
                                             checkpoint=ck)
        lines = ck.read_text().splitlines()
        assert len(lines) == 6
        ck.write_text("\n".join(lines[:3]) + "\n")  # lose half the cells
        resumed = robustness.failure_sweep(**self.SWEEP, jobs=1,
                                           checkpoint=ck, resume=True)
        assert resumed.to_json() == reference.to_json()
