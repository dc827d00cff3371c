#!/usr/bin/env python3
"""Trace analysis: attach a TraceLog and explain a scheduler's decisions.

Runs LMTF and P-LMTF over the same queue with structured run logs attached,
then mines the logs to answer the questions one would otherwise need a
debugger for: how often did LMTF actually jump the queue? How large were
P-LMTF's batches? Which events got deferred the longest? The log is also
written as JSON Lines for external tooling.

Run:  python examples/trace_analysis.py
"""

import random
import tempfile
from pathlib import Path

from repro import (
    BackgroundLoader,
    BensonLikeTrace,
    EventGenerator,
    FatTreeTopology,
    LMTFScheduler,
    PathProvider,
    PLMTFScheduler,
    SimulationConfig,
    UpdateSimulator,
    YahooLikeTrace,
)
from repro.sim.tracelog import TraceLog
from repro.traces.events import EventGeneratorConfig


def run_logged(network, provider, scheduler, events):
    log = TraceLog()
    sim = UpdateSimulator(network.copy(), provider, scheduler,
                          config=SimulationConfig(seed=5), listener=log)
    sim.submit(events)
    metrics = sim.run()
    return log, metrics


def main() -> None:
    topology = FatTreeTopology(k=4)
    provider = PathProvider(topology)
    network = topology.network()
    trace = YahooLikeTrace(topology.hosts(), seed=40)
    BackgroundLoader(network, provider, trace,
                     random.Random(41)).load_to_utilization(0.6)
    events = EventGenerator(
        BensonLikeTrace(topology.hosts(), seed=42, duration_median=1.0),
        config=EventGeneratorConfig(min_flows=8, max_flows=30), seed=43,
    ).generate(12)
    arrival_order = [event.event_id for event in events]

    # --- LMTF: how often did sampling actually reorder the queue? ---------
    log, metrics = run_logged(network, provider,
                              LMTFScheduler(alpha=4, seed=44), events)
    executed = [r.data["decided"][0] for r in log.of_kind("round")
                if r.data["decided"]]
    # a "jump" is a round that did NOT execute the current queue head
    done: set[str] = set()
    jumps = 0
    for event_id in executed:
        head = next(e for e in arrival_order if e not in done)
        if event_id != head:
            jumps += 1
        done.add(event_id)
    print(f"LMTF: {metrics.rounds} rounds, {jumps}/{len(executed)} "
          f"head-of-line jumps (avg ECT {metrics.average_ect:.1f}s)")

    # --- P-LMTF: batch sizes and the per-round plan effort ----------------
    log, metrics = run_logged(network, provider,
                              PLMTFScheduler(alpha=4, seed=44), events)
    batches = [len(r.data["decided"]) for r in log.of_kind("round")
               if r.data["decided"]]
    ops = [r.data["ops"] for r in log.of_kind("round")]
    print(f"P-LMTF: {metrics.rounds} rounds, batch sizes {batches} "
          f"(avg ECT {metrics.average_ect:.1f}s)")
    print(f"        planning ops per round: min {min(ops)}, "
          f"max {max(ops)}")

    # --- who waited longest, and when did it finally run? -----------------
    admissions = {r.data["event"]: r.time for r in log.of_kind("admission")}
    waits = sorted(admissions.items(), key=lambda kv: kv[1], reverse=True)
    print("        last three events to start:",
          ", ".join(f"{eid}@{t:.1f}s" for eid, t in waits[:3]))

    # --- export for external tooling ---------------------------------------
    out = Path(tempfile.gettempdir()) / "plmtf_run.jsonl"
    log.save(out)
    print(f"full structured log ({len(log)} records) written to {out}")


if __name__ == "__main__":
    main()
