"""Pinned journal bytes of a small durable serve.

Every terminal journal record carries the settled event's row (its
registration index, origin and the thirteen record fields, ``rounds_waited``
and ``deferrals`` included), so a change to how an event's row is kept
shows up here as different bytes before it shows anywhere else. The run
is a 60-event ``--state-dir`` serve on a k=4 fat-tree with link faults, a
flaky control plane and a deferral budget of 2, so completions, deferrals,
drops and repair events all reach the journal. Background churn is off:
with it on, an event cut off for good keeps the run spinning.
"""

import hashlib
from collections import Counter
from dataclasses import replace

from repro.experiments.common import DEFAULTS, Scenario
from repro.experiments.runner import hermetic_ids
from repro.sched import build_scheduler
from repro.sim.controlplane import UnreliableControlPlane
from repro.sim.faults import FaultProcess
from repro.sim.journal import scan_journal
from repro.sim.service import ServiceConfig, SimulationService
from repro.sim.snapshot import JOURNAL_FILE
from repro.traces import arrivals
from repro.traces.events import EventGeneratorConfig

#: sha256 of ``journal.wal`` after :func:`serve_durable_faulted`, captured
#: while the collector still kept its own per-event records.
JOURNAL_SHA256 = \
    "60220c37eb119d1f46938627d60862e71ddea49ffad44cad1baa1f704c290d6b"


def serve_durable_faulted(state_dir, events=60, seed=0):
    with hermetic_ids():
        scenario = Scenario(utilization=0.5, seed=seed, churn=False,
                            defaults=replace(DEFAULTS, k=4))
        sim = scenario.simulator(
            build_scheduler({"kind": "plmtf", "alpha": 2, "seed": seed}),
            control_plane=UnreliableControlPlane(
                install_failure_prob=0.3, migration_failure_prob=0.3,
                seed=seed + 11),
            faults=FaultProcess(rate=0.05, horizon=200.0, seed=seed + 13),
            max_deferrals=2)
        stream = arrivals.make_stream(
            "benson", scenario.topology.hosts(), rate=5.0, seed=seed + 7,
            config=EventGeneratorConfig(min_flows=2, max_flows=8))
        SimulationService(sim, stream, ServiceConfig(
            max_events=events, snapshot_every=0, stats_every=0,
            state_dir=state_dir)).serve()
    return state_dir / JOURNAL_FILE


def test_journal_bytes_pinned(tmp_path):
    journal = serve_durable_faulted(tmp_path)
    records = scan_journal(journal).records
    kinds = Counter(record["kind"] for record in records)
    assert kinds["ingest"] == 60 and kinds["drop"] > 0
    assert any(r["record"]["deferrals"] for r in records
               if r["kind"] == "complete")
    assert any(r["origin"] == "repair" for r in records if "origin" in r)
    assert hashlib.sha256(journal.read_bytes()).hexdigest() == JOURNAL_SHA256
