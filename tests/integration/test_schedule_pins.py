"""Pinned end-to-end schedule hashes.

These pins were captured on the dict-keyed link-state implementation
immediately before the integer-indexed kernel landed, so they assert the
strongest contract the kernel makes: the rewrite is *schedule-invisible* —
every RNG draw, tie-break, admission, and reported metric is bit-identical,
all the way to the serialized JSON. A pin failure means some refactor
changed simulated behavior, not just wall-clock speed; the fix is to find
the divergence, not to re-pin (re-pinning is only legitimate for a change
that *intends* to alter planning semantics, e.g. a planner cost-model fix).

Each pin runs twice: plain, and with ``REPRO_AUDIT=1`` so every simulator
in the grid carries a :class:`~repro.sim.audit.LifecycleAuditor`. The
audited digests must equal the plain pins — the auditor only reads state,
so enabling it in production can never change a schedule — and any ledger
drift inside these workloads (faults, churn, retries, drops included)
would surface here as an ``AuditError`` instead of a hash mismatch.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.experiments import fig5, fig6
from repro.experiments.common import DEFAULTS, Scenario
from repro.experiments.robustness import failure_sweep, topology_sweep
from repro.experiments.runner import GridRow, run_scheduler_grid
from repro.sched import staged_scheduler_spec
from repro.traces.events import EventGeneratorConfig

#: fig5.run(seed=0, utilization=0.6, event_counts=(6,)) on the pre-kernel
#: tree (planning-ops accounting fixes included).
FIG5_MINI_SHA256 = \
    "ab18203c7856f8c41d1451003d3c5903d9791d50d071c157b00d1db368a203e0"

#: fig6.run(seed=0, utilization=0.6, event_counts=(6,)) — churny
#: heterogeneous workload through all three schedulers — captured on the
#: monolithic pre-pipeline simulator. Pins the lifecycle/pipeline/hook-bus
#: refactor as behavior-preserving.
FIG6_MINI_SHA256 = \
    "cb9ba7acb7f2a4611b773884587400e7fe713ab672e5f31fe45a6212fe78682e"

#: failure_sweep(seed=1, events=4, utilization=0.5, fault_rates=(0.0, 0.05),
#: horizon=40.0) — faults + background churn + flaky control plane +
#: defer/drop budgets, captured on the monolithic pre-pipeline simulator.
#: The differential test for the refactored round pipeline: every fault
#: injection, repair enqueue, execution retry, deferral and drop must land
#: on identical simulated timestamps and counters.
FAULTED_GRID_SHA256 = \
    "dafdd2d76ac406aaff795e88470ef1e98649b3541940e4d9919c403e7c2dad16"

#: staged-lmtf and staged-plmtf under ``compile_mode="staged"`` plus one
#: augmented ε=0.1 staged-plmtf cell, on a churning k=4 fat-tree (seed 0,
#: 24 events of 3–8 flows, utilization 0.85) — captured before the
#: compiler learned to certify one-stage plans without ordering them and
#: the staged pick stopped compiling probes that cannot tie. Every stage
#: boundary, per-stage install charge and transient overload lands in the
#: metrics hashed here.
STAGED_MINI_SHA256 = \
    "dba9c50587b7f692cb00ed828ab8e4e0726fe96b4f9e8319fbe54a02a0e1ea85"

#: topology_sweep(seed=0, events=6) — FIFO/LMTF/P-LMTF on the leaf-spine
#: and Jellyfish fabrics, the only schedules off Fat-Tree — captured while
#: leaf-spine still built a networkx graph. Pins the graph container's
#: iteration order (hence link indices) and Jellyfish's shortest-path
#: order.
TOPOLOGY_SWEEP_SHA256 = \
    "531c9f6e10fdb49b82e0aa75a1067e169b0ab298eb3677168a8b3b59b59307b1"


def _pinned_digest(run):
    """Digest of ``run()``'s JSON.

    Flow ids feed the ECMP desired-path hash; every pinned run is a grid
    of hermetic cells, each starting its id counters from 0 (how the
    baselines were captured), so the digest is a pure function of the
    run's spec whatever ran earlier in the process.
    """
    return hashlib.sha256(run().to_json().encode()).hexdigest()


def _fig5_digest():
    return _pinned_digest(
        lambda: fig5.run(seed=0, utilization=0.6, event_counts=(6,)))


def _fig6_digest():
    return _pinned_digest(
        lambda: fig6.run(seed=0, utilization=0.6, event_counts=(6,)))


def _faulted_grid_digest():
    # The full fault pipeline in one pin: mid-run link failures with
    # heals, repair events competing in the queue, an unreliable
    # control plane (install/migration failures + jitter) driving
    # retries and deferrals, drop budgets, and background churn — all
    # through FIFO/LMTF/P-LMTF. This is the differential test that the
    # staged round pipeline is byte-identical to the monolith it
    # replaced.
    return _pinned_digest(
        lambda: failure_sweep(seed=1, events=4, utilization=0.5,
                              fault_rates=(0.0, 0.05), horizon=40.0))


def _topology_sweep_digest():
    return _pinned_digest(lambda: topology_sweep(seed=0, events=6))


def _staged_digest():
    scenario = Scenario(
        utilization=0.85, seed=0, events=24, churn=True,
        event_config=EventGeneratorConfig(min_flows=3, max_flows=8),
        defaults=replace(DEFAULTS, k=4))
    rows = [
        GridRow(key="staged", scenario=scenario, compile_mode="staged",
                schedulers=tuple(
                    staged_scheduler_spec(kind, 0, 4, "staged")
                    for kind in ("staged-lmtf", "staged-plmtf"))),
        GridRow(key="augmented", scenario=scenario,
                compile_mode="augmented", compile_epsilon=0.1,
                schedulers=(staged_scheduler_spec(
                    "staged-plmtf", 0, 4, "augmented", 0.1),)),
    ]
    payload = {key: {name: metrics.to_dict()
                     for name, metrics in row.metrics.items()}
               for key, row in run_scheduler_grid(rows).items()}
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.fixture(params=["plain", "audited"])
def audit_mode(request, monkeypatch):
    """Run each pin twice: bare, and with the lifecycle auditor attached."""
    if request.param == "audited":
        monkeypatch.setenv("REPRO_AUDIT", "1")
    else:
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
    return request.param


class TestSchedulePins:
    def test_fig5_mini_run_is_byte_identical(self, audit_mode):
        digest = _fig5_digest()
        assert digest == FIG5_MINI_SHA256, (
            f"fig5 mini-run JSON ({audit_mode}) diverged from the pinned "
            f"pre-kernel schedule: {digest}")

    def test_fig6_mini_run_is_byte_identical(self, audit_mode):
        digest = _fig6_digest()
        assert digest == FIG6_MINI_SHA256, (
            f"fig6 mini-run JSON ({audit_mode}) diverged from the pinned "
            f"pre-pipeline schedule: {digest}")

    def test_faulted_churn_flaky_grid_is_byte_identical(self, audit_mode):
        digest = _faulted_grid_digest()
        assert digest == FAULTED_GRID_SHA256, (
            f"faulted+churn+flaky-control-plane grid JSON ({audit_mode}) "
            f"diverged from the pinned pre-pipeline schedule: {digest}")

    def test_staged_compile_mini_run_is_byte_identical(self, audit_mode):
        digest = _staged_digest()
        assert digest == STAGED_MINI_SHA256, (
            f"staged/augmented compile mini-run JSON ({audit_mode}) "
            f"diverged from the pinned schedule: {digest}")

    def test_topology_sweep_is_byte_identical(self, audit_mode):
        digest = _topology_sweep_digest()
        assert digest == TOPOLOGY_SWEEP_SHA256, (
            f"leaf-spine/Jellyfish sweep JSON ({audit_mode}) diverged "
            f"from the pinned schedule: {digest}")
