#!/usr/bin/env python3
"""The repository's benchmark: one command, six workloads, two time bases.

Suite mode (people)::

    python bench/run.py [--seed S] [--workloads a,b] [--repeats N]
                        [--out FILE] [--spans DIR]

runs every workload N times untraced and once traced, prints every
end-to-end metric by name and unit, the per-layer metrics and the time
budget, checks the outputs, writes the JSON result and exits non-zero if
any correctness gate failed.

Contract mode (the driver)::

    python bench/run.py --workload W --seed S --seconds T --trace 0|1

measures one workload and prints one JSON object as the last line:
the ``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``, the
``per_layer`` ones with ``--trace 1``.

Every run of a workload happens in a fresh child interpreter
(``PYTHONHASHSEED=0``), one after the other; nothing runs in parallel.
**host** time is what the program costs to run, **sim** time what the
modelled network would take; every metric says which it is.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"
SCRATCH_ROOT = BENCH_DIR / ".tmp"
SPEC_FILE = REPO / "BENCHMARK.json"

sys.path.insert(0, str(BENCH_DIR))

import stats  # noqa: E402

#: The tail percentile of the round gaps. p95 needs 200 pooled gaps to
#: leave ten beyond it and the k=8 workloads can afford about 100 within
#: the contract's time cap; of the percentiles those support, p80 is the
#: highest whose seed-to-seed spread stays under 13 % on every workload
#: (p90 moves by 39 % on fig6_batch, p50 is bimodal on serve_durable).
TAIL_Q = 80.0
MIN_REPEATS = 3
MAX_REPEATS = 8
CHILD_TIMEOUT_S = 170

#: Contract mode pools at least this many input draws where three are too
#: few: serve_faulted's host speed follows how long the learned ranker stays
#: confident on the draw (170 to 300 events/s, sd 15 %), and a draw costs
#: under 2 s. Twelve bring the seed-to-seed spread from 13 % to 7 %.
MIN_DRAWS = {"serve_faulted": 12}

#: How the suite (one seed, repeats) reports and ``compare.py`` judges the
#: end-to-end metrics that BENCHMARK.json cannot carry, or carries with a
#: different rule, as ``name: (unit, better, bound)``. A bound of ``None``
#: means the value repeats bit for bit at a fixed seed, so any difference is
#: a verdict. The driver compares runs of different seeds, where the sim_*
#: values are properties of the generated input: BENCHMARK.json lists
#: ``sim_avg_ect_s`` and ``sim_qdelay_jain`` with relative bounds that hold
#: across seeds (spreads 4-10 % and 1-5 %), and leaves out the rest — its
#: metrics must never be 0 (``sim_cost_mbit`` and ``failed_share`` are, on
#: some workloads), ``sim_cost_mbit`` moves by 23-50 % between seeds and
#: the median gap is bimodal between seeds on serve_durable.
SUITE_METRICS = {
    "round_gap_ms_p50": ("ms", "lower", 0.15),
    "sim_avg_ect_s": ("s", "lower", None),
    "sim_tail_ect_s": ("s", "lower", None),
    "sim_cost_mbit": ("Mbit", "lower", None),
    "sim_qdelay_jain": ("ratio", "higher", None),
    "failed_share": ("ratio", "lower", None),
}


def load_spec() -> dict:
    return json.loads(SPEC_FILE.read_text(encoding="utf-8"))


# ===================================================================== child

def filesystem_type(path: Path) -> str:
    """The type of the filesystem holding ``path``, from /proc/mounts."""
    target = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text(encoding="utf-8")
    except OSError:
        return fstype
    for line in mounts.splitlines():
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1]
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) >= len(best):
            best, fstype = mount, fields[2]
    return fstype


class RoundClock:
    """Host timestamps of one simulator's ``PostRound`` emissions."""

    def __init__(self, sim) -> None:
        from repro.sim.hooks import PostRound
        self.stamps: list[int] = []
        sim.hooks.subscribe(PostRound, self._on_post_round)

    def _on_post_round(self, _hook) -> None:
        self.stamps.append(time.perf_counter_ns())

    def gaps_ms(self, start_ns: int, end_ns: int) -> list[float]:
        inside = [s for s in self.stamps if start_ns <= s <= end_ns]
        return [(b - a) / 1e6 for a, b in zip(inside, inside[1:])]


class LayerCounters:
    """Counts taken at the hook bus, where the work happens. Only a traced
    run attaches it; ``active`` limits it to the timed region."""

    FIELDS = ("rounds", "empty_rounds", "depth_sum", "planning_ops",
              "cache_hits", "cache_misses", "cache_invalidations",
              "probes_skipped", "fallback_rounds", "admissions", "stages",
              "retries", "failures", "churn_ticks", "faults")

    def __init__(self, sims) -> None:
        from repro.sim import hooks
        self.active = False
        for field in self.FIELDS:
            setattr(self, field, 0)
        for sim in sims:
            bus = sim.hooks
            bus.subscribe(hooks.PreRound, self._on_pre_round)
            bus.subscribe(hooks.EventAdmitted, self._on_admitted)
            bus.subscribe(hooks.ExecutionRetried, self._on_retried)
            bus.subscribe(hooks.ExecutionFailed, self._on_failed)
            bus.subscribe(hooks.ChurnTick, self._on_churn)
            bus.subscribe(hooks.FaultInjected, self._on_fault)

    def _on_pre_round(self, hook) -> None:
        if not self.active:
            return
        self.rounds += 1
        self.empty_rounds += not hook.admitted
        self.depth_sum += hook.queue_depth
        self.planning_ops += hook.planning_ops
        self.cache_hits += hook.cache_hits
        self.cache_misses += hook.cache_misses
        self.cache_invalidations += hook.cache_invalidations
        self.probes_skipped += hook.probes_skipped
        self.fallback_rounds += hook.fallback

    def _on_admitted(self, hook) -> None:
        if self.active:
            self.admissions += 1
            self.stages += hook.stage_count

    def _on_retried(self, hook) -> None:
        if self.active:
            self.retries += hook.retries

    def _on_failed(self, _hook) -> None:
        self.failures += self.active

    def _on_churn(self, _hook) -> None:
        self.churn_ticks += self.active

    def _on_fault(self, _hook) -> None:
        self.faults += self.active


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(aggregate: dict, counters: LayerCounters,
                  outcome_counters: dict, cold_paths: int) -> dict:
    """Every per-layer metric of BENCHMARK.json except
    ``trace.overhead_pct``, which needs the untraced run's wall time."""
    import trace as tracing

    run = aggregate["table"].get(tracing.RUN, {})
    setup = aggregate["table"].get(tracing.SETUP, {})
    spent = tracing.budget(aggregate)

    def calls(*names: str) -> int:
        return sum(run[name][0] for name in names if name in run)

    metrics = dict.fromkeys(sorted(set(tracing.LAYER_OF_SPAN.values())), 0.0)
    metrics.update(spent["rows"])
    # Network.copy is set-up work on every workload: charge both phases.
    metrics["network.copy_ms"] += setup.get("network.copy", (0, 0, 0))[1] / 1e6
    c = counters
    appends = calls("journal.append")
    paths_calls = calls("routing.paths")
    metrics.update({
        "engine.steps": calls("engine.step"),
        "pipeline.rounds": c.rounds,
        "pipeline.rounds_empty_share": ratio(c.empty_rounds, c.rounds),
        "pipeline.queue_depth_mean": ratio(c.depth_sum, c.rounds),
        "lifecycle.advance_calls": calls("lifecycle.advance",
                                         "lifecycle.register"),
        "hooks.emit_calls": calls("hooks.emit"),
        "audit.audit_calls": calls("audit.audit"),
        "sched.select_calls": calls("sched.select"),
        "sched.probes_per_round": ratio(calls("sched.probe_event"),
                                        c.rounds),
        "sched.cache_lookups": calls("sched.cache_lookup"),
        "sched.cache_hit_ratio": ratio(c.cache_hits,
                                       c.cache_hits + c.cache_misses),
        "sched.cache_invalidations": c.cache_invalidations,
        "sched.learned_probes_skipped": c.probes_skipped,
        "sched.learned_fallback_share": ratio(c.fallback_rounds, c.rounds),
        "sched.staged_predict_calls": calls("staged.predict_stages"),
        "planner.plan_calls": calls("planner.plan_event"),
        "planner.planning_ops": c.planning_ops,
        "migration.make_room_calls": calls("migration.make_room"),
        "compile.compile_calls": calls("compile.compile_plan"),
        "compile.stages_per_plan": ratio(c.stages, c.admissions),
        "executor.execute_calls": calls("executor.execute"),
        "executor.retries": c.retries,
        "executor.failures": c.failures,
        "network.place_remove_calls": calls("network.place",
                                            "network.remove"),
        "routing.paths_calls": paths_calls,
        "routing.cold_miss_share": ratio(cold_paths, paths_calls),
        "churn.ticks": c.churn_ticks,
        # Everything a churn tick sets off (removal, respawn, path search,
        # placement) except the round check it ends with, over wall time.
        "churn.wall_share": ratio(
            (run.get("cb.churn", (0, 0, 0))[2] - aggregate["under_ns"].get(
                ("cb.churn", "pipeline.maybe_round"), 0)) / 1e6,
            spent["wall_ms"]),
        "faults.injected": c.faults,
        "journal.appends": appends,
        "journal.fsyncs_per_record": ratio(
            calls("os.fsync@journal.append"), appends),
        "journal.bytes": outcome_counters.get("journal.bytes", 0),
        "snapshot.checkpoints": calls("snapshot.build_checkpoint"),
        "snapshot.checkpoint_bytes": outcome_counters.get(
            "snapshot.checkpoint_bytes", 0),
        "service.backpressure_pauses": outcome_counters.get(
            "service.backpressure_pauses", 0),
        "service.unaccounted_share": ratio(spent["unaccounted_ms"],
                                           spent["wall_ms"]),
    })
    return {"metrics": metrics, "budget": spent}


def calibrate(scratch: Path) -> dict:
    """Three machine constants recorded beside a result, so snapshots from
    different machines normalise: interpreter speed, the kernel's
    ``Network.copy`` and the disk's fsync."""
    import random

    from repro.network.routing.provider import PathProvider
    from repro.network.topology.fattree import FatTreeTopology
    from repro.traces.background import BackgroundLoader
    from repro.traces.yahoo import YahooLikeTrace

    def best_ms(fn, rounds: int) -> float:
        timings = []
        for _ in range(rounds):
            start = time.perf_counter_ns()
            fn()
            timings.append((time.perf_counter_ns() - start) / 1e6)
        return min(timings)

    def pyloop() -> int:
        total = 0
        for i in range(200_000):
            total += i * i % 7
        return total

    topology = FatTreeTopology(k=4)
    network = topology.network()
    BackgroundLoader(network, PathProvider(topology),
                     YahooLikeTrace(topology.hosts(), seed=1),
                     random.Random(2)).load_to_utilization(0.5)
    target = scratch / "fsync.bin"

    def fsync_once() -> None:
        with open(target, "ab") as handle:
            handle.write(b"x" * 512)
            handle.flush()
            os.fsync(handle.fileno())

    return {"calib.pyloop_ms": best_ms(pyloop, 5),
            "calib.network_copy_ms": best_ms(network.copy, 5),
            "calib.fsync_ms": statistics.median(
                [best_ms(fsync_once, 1) for _ in range(20)])}


def child_main(spec: dict) -> int:
    """Run one workload once in this (fresh) interpreter; print one JSON
    line. Exit code 0 even when the gate fails — the line says so."""
    import resource

    sys.path.insert(0, str(SRC))
    scratch = Path(spec["scratch"])
    if spec.get("calibrate"):
        print(json.dumps(calibrate(scratch)))
        return 0

    import trace as tracing
    from workloads import WORKLOADS, sim_metrics

    workload = WORKLOADS[spec["workload"]]
    result = {"workload": workload.name, "seed": spec["seed"],
              "traced": bool(spec["trace"]), "ok": False, "problems": [],
              "attempted": workload.nominal, "dropped": 0,
              "unfinished": workload.nominal,
              "fs_type": filesystem_type(scratch)}
    tracer = None
    try:
        if workload.needs_disk and result["fs_type"] in ("tmpfs", "ramfs"):
            raise RuntimeError(
                f"{workload.name} refused: {scratch} is on "
                f"{result['fs_type']}, where fsync costs nothing")
        if spec["trace"]:
            tracer = tracing.Tracer(run_id=spec["run_id"])
            tracing.install(tracer)
        with tracer.span(tracing.SETUP) if tracer else nullcontext():
            prepared = workload.prepare(spec["seed"], scratch, tracer)
            clocks = [RoundClock(sim) for sim in prepared.sims]
            counters = LayerCounters(prepared.sims) if tracer else None
        result["setup_s"] = (time.clock_gettime(time.CLOCK_MONOTONIC)
                             - spec["t_spawn"])
        window = {}

        @contextmanager
        def timed():
            cold_before = prepared.provider.cache_size()
            if counters is not None:
                counters.active = True
            with tracer.span(tracing.RUN) if tracer else nullcontext():
                window["start"] = time.perf_counter_ns()
                try:
                    yield
                finally:
                    window["end"] = time.perf_counter_ns()
            if counters is not None:
                counters.active = False
            window["cold_paths"] = (prepared.provider.cache_size()
                                    - cold_before)

        outcome = prepared.execute(timed)
        if tracer is not None:
            tracer.restore()
        wall_s = (window["end"] - window["start"]) / 1e9
        problems = prepared.verify(outcome)
        result.update(
            wall_s=wall_s, completed=outcome.completed,
            events_per_s=outcome.completed / wall_s,
            gaps_ms=[clock.gaps_ms(window["start"], window["end"])
                     for clock in clocks],
            peak_rss_mb=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            digest=outcome.digest, sim=sim_metrics(outcome.records),
            attempted=outcome.attempted, dropped=outcome.dropped,
            unfinished=outcome.unfinished, problems=problems,
            ok=not problems)
        if tracer is not None:
            result["layers"] = layer_metrics(
                tracer.aggregate(), counters, outcome.counters,
                window["cold_paths"])
            if spec.get("spans"):
                tracer.dump(spec["spans"])
    except Exception as exc:  # the gate: report, never crash silently
        traceback.print_exc()
        result["problems"].append(f"{type(exc).__name__}: {exc}")
    finally:
        if tracer is not None:
            tracer.restore()
    print(json.dumps(result))
    return 0


# ==================================================================== parent

_child_serial = itertools.count(1)


def run_child(spec: dict) -> dict:
    """Run one child interpreter to completion and return its JSON line."""
    serial = next(_child_serial)
    scratch = SCRATCH_ROOT / f"{os.getpid()}-{serial}"
    scratch.mkdir(parents=True)
    spec = dict(spec, scratch=str(scratch),
                run_id=f"{spec.get('workload', 'calib')}-{spec.get('seed')}"
                       f"-{serial}",
                t_spawn=time.clock_gettime(time.CLOCK_MONOTONIC))
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--child",
             json.dumps(spec)],
            env=dict(os.environ, PYTHONHASHSEED="0"), cwd=str(REPO),
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"child exited with {proc.returncode} and "
                               f"{len(lines)} lines of output")
        return json.loads(lines[-1])
    except (subprocess.TimeoutExpired, RuntimeError, ValueError) as exc:
        return {"ok": False, "problems": [f"{type(exc).__name__}: {exc}"],
                "attempted": 1, "dropped": 0, "unfinished": 1}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH_ROOT.rmdir()
        except OSError:
            pass


def run_untraced(workload: str, seed: int, repeats: int | None,
                 seconds: float) -> list[dict]:
    """Untraced runs of one workload.

    With ``repeats`` given (suite mode) that many runs of the one seed:
    the spread between them is host noise, and they must agree on the
    schedule. Without (contract mode) at least :data:`MIN_REPEATS` (or the
    workload's :data:`MIN_DRAWS`) and on until the timed regions sum to
    ``seconds``, each run on its own input draw derived from ``seed``: host
    time follows the simulated makespan, which moves by some 12 % between
    draws of the heavy-tailed flow durations, so one invocation pools
    several draws.
    """
    least = MIN_DRAWS.get(workload, MIN_REPEATS)
    results: list[dict] = []
    while True:
        draw = seed if repeats is not None else seed * 1000 + len(results)
        results.append(run_child({"workload": workload, "seed": draw,
                                  "trace": 0}))
        done = len(results)
        if not results[-1]["ok"]:
            return results
        if repeats is not None:
            if done >= repeats:
                return results
            continue
        measured = sum(r["wall_s"] for r in results)
        if done >= max(least, MAX_REPEATS) or (done >= least
                                               and measured >= seconds):
            return results


def agreement_problems(results: list[dict]) -> list[str]:
    """Runs of one workload at one seed must agree bit for bit on the
    schedule digest and every sim_* value — across repeats and between the
    traced and the untraced run, so tracing cannot alter a schedule."""
    problems = [p for r in results for p in r["problems"]]
    first: dict[int, dict] = {}
    for run in (r for r in results if r["ok"]):
        base = first.setdefault(run["seed"], run)
        if run["digest"] != base["digest"]:
            problems.append(
                f"schedule digest differs between runs of seed "
                f"{run['seed']} ({base['digest'][:12]} vs "
                f"{run['digest'][:12]})")
        if run["sim"] != base["sim"]:
            problems.append(f"sim_* values differ between runs of seed "
                            f"{run['seed']}")
    return problems


def summarise(results: list[dict], extra: list[dict] = ()) -> dict:
    """Fold untraced runs into the ten end-to-end metrics.

    Repeats of one seed differ only by host noise, so a timed value is
    their median; runs of different seeds are different work, so
    ``events_per_s`` pools them (events completed over time taken) and the
    other host metrics take the median across seeds; the ``sim_*`` values
    take the mean across seeds (of one seed: the value itself, exactly).
    The gap percentiles are taken over the gaps of all runs pooled.
    ``extra`` runs (the traced one) take part in the agreement check only.
    """
    problems = agreement_problems(list(results) + list(extra))
    attempted = sum(r["attempted"] for r in results)
    unfinished = sum(r["unfinished"] for r in results)
    dropped = sum(r["dropped"] for r in results)
    # ``failed`` is what the harness could not carry to a terminal state —
    # every event, if any gate failed. ``failed_share`` also counts the
    # events the simulated policy dropped: to the service's user a dropped
    # update failed, though the simulator did what it was asked.
    summary = {"ok": not problems, "problems": problems,
               "repeats": len(results), "attempted": attempted,
               "failed": attempted if problems else unfinished,
               "metrics": {}, "samples": {}}
    metrics = summary["metrics"]
    metrics["failed_share"] = (
        1.0 if problems else ratio(dropped + unfinished, attempted))
    good = [r for r in results if r["ok"]]
    if not good:
        return summary
    by_seed: dict[int, list[dict]] = {}
    for run in good:
        by_seed.setdefault(run["seed"], []).append(run)

    def across_seeds(name: str) -> list[float]:
        return [statistics.median([r[name] for r in runs])
                for runs in by_seed.values()]

    metrics["setup_s"] = statistics.median(across_seeds("setup_s"))
    metrics["events_per_s"] = (
        sum(runs[0]["completed"] for runs in by_seed.values())
        / sum(across_seeds("wall_s")))
    pooled = [gap for r in good for sim_gaps in r["gaps_ms"]
              for gap in sim_gaps]
    summary["gap_samples"] = len(pooled)
    summary["gap_tail_supported"] = stats.supported(len(pooled), TAIL_Q)
    for name, q in (("round_gap_ms_p50", 50.0),
                    (f"round_gap_ms_p{TAIL_Q:.0f}", TAIL_Q)):
        summary["samples"][name] = [
            stats.percentile([g for s in r["gaps_ms"] for g in s], q)
            for r in good]
        metrics[name] = stats.percentile(pooled, q)
    metrics["peak_rss_mb"] = statistics.median(across_seeds("peak_rss_mb"))
    for name in ("setup_s", "events_per_s", "peak_rss_mb"):
        summary["samples"][name] = [r[name] for r in good]
    for name in good[0]["sim"]:
        metrics[name] = statistics.fmean(runs[0]["sim"][name]
                                         for runs in by_seed.values())
    summary["digest"] = good[0]["digest"]
    summary["wall_s"] = statistics.median([r["wall_s"] for r in good])
    return summary


def finish_layers(traced: dict, untraced_wall_s: float) -> dict:
    """The traced child's per-layer metrics plus the tracing overhead."""
    metrics = dict(traced["layers"]["metrics"])
    metrics["trace.overhead_pct"] = (
        (traced["wall_s"] / untraced_wall_s - 1.0) * 100.0)
    return metrics


# ------------------------------------------------------------ contract mode

def contract_main(args, spec: dict) -> int:
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        base = run_child({"workload": args.workload, "seed": args.seed,
                          "trace": 0})
        traced = run_child({"workload": args.workload, "seed": args.seed,
                            "trace": 1})
        summary = summarise([base], extra=[traced])
        values = {}
        if summary["ok"]:
            layers = finish_layers(traced, base["wall_s"])
            values = {m["name"]: layers[m["name"]]
                      for m in spec["per_layer"]}
    else:
        summary = summarise(run_untraced(args.workload, args.seed, None,
                                         args.seconds))
        values = ({m["name"]: summary["metrics"][m["name"]]
                   for m in spec["end_to_end"]} if summary["ok"] else {})
    for problem in summary["problems"]:
        print(f"FAILED {args.workload}: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": summary["ok"], "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()}}))
    return 0 if summary["ok"] else 1


# --------------------------------------------------------------- suite mode

def print_budget(budget: dict) -> None:
    wall = budget["wall_ms"]
    print(f"  time budget of the traced run (host self time, "
          f"{wall:.0f} ms wall):")
    rows = sorted(budget["rows"].items(), key=lambda kv: -kv[1])
    for layer, ms in rows:
        if ms >= 0.0005 * wall:
            print(f"    {layer:<28} {ms:>10.1f} ms {ms / wall:>7.1%}")
    rest = sum(ms for _, ms in rows if ms < 0.0005 * wall)
    print(f"    {'(rows under 0.05%)':<28} {rest:>10.1f} ms "
          f"{rest / wall:>7.1%}")
    print(f"    {'service.unaccounted':<28} "
          f"{budget['unaccounted_ms']:>10.1f} ms "
          f"{budget['unaccounted_ms'] / wall:>7.1%}")
    total = sum(ms for _, ms in rows) + budget["unaccounted_ms"]
    print(f"    {'sum':<28} {total:>10.1f} ms {total / wall:>7.1%}")


def suite_main(args, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        wanted = args.workloads.split(",")
        unknown = sorted(set(wanted) - set(names))
        if unknown:
            print(f"unknown workloads {unknown}; pick from {names}",
                  file=sys.stderr)
            return 2
        names = wanted
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({name: unit for name, (unit, *_) in SUITE_METRICS.items()})
    if args.spans:
        Path(args.spans).mkdir(parents=True, exist_ok=True)
    started = time.time()
    document = {
        "schema": 1, "seed": args.seed, "repeats": args.repeats,
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "platform": platform.platform(),
                    "fs_type": filesystem_type(BENCH_DIR)},
        "calib": run_child({"calibrate": True}),
        "workloads": {}}
    print("calibration: " + "  ".join(
        f"{k}={v:.3f}" for k, v in document["calib"].items()
        if k.startswith("calib.")))
    ok = True
    for name in names:
        results = run_untraced(name, args.seed, args.repeats, 0.0)
        spans = (str(Path(args.spans).resolve() / f"{name}.spans.json")
                 if args.spans else None)
        traced = run_child({"workload": name, "seed": args.seed, "trace": 1,
                            "spans": spans})
        summary = summarise(results, extra=[traced])
        entry = {"ok": summary["ok"], "problems": summary["problems"],
                 "end_to_end": {}, "per_layer": {}}
        document["workloads"][name] = entry
        ok = ok and summary["ok"]
        print(f"\n== {name}  (seed {args.seed}, {summary['repeats']} "
              f"untraced repeats + 1 traced, "
              f"digest {summary.get('digest', '-')[:16]})")
        for problem in summary["problems"]:
            print(f"  FAILED: {problem}")
        for metric, value in summary["metrics"].items():
            samples = summary["samples"].get(metric)
            entry["end_to_end"][metric] = {
                "value": value, "unit": units[metric],
                **({"samples": samples} if samples else {})}
            note = ""
            if metric.startswith("round_gap"):
                note = f"  ({summary['gap_samples']} gaps pooled"
                if metric.endswith(f"p{TAIL_Q:.0f}"):
                    note += ("" if summary["gap_tail_supported"]
                             else f", FEWER THAN {stats.MIN_BEYOND} BEYOND")
                note += ")"
            print(f"  {metric:<20} {value:>14.6g} {units[metric]}{note}")
        if not (summary["ok"] and traced.get("layers")):
            continue
        layers = finish_layers(traced, summary["wall_s"])
        entry["per_layer"] = {metric: {"value": layers[metric],
                                       "unit": units[metric]}
                              for metric in sorted(layers)}
        entry["budget"] = traced["layers"]["budget"]
        print("  per-layer metrics (traced run):")
        for metric in sorted(layers):
            if layers[metric]:
                print(f"    {metric:<32} {layers[metric]:>14.6g} "
                      f"{units[metric]}")
        print_budget(traced["layers"]["budget"])
    document["elapsed_s"] = time.time() - started
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1,
                                             sort_keys=True) + "\n",
                                  encoding="utf-8")
        print(f"\nwrote {args.out}")
    print(f"\n{'OK' if ok else 'FAILED'}: {len(names)} workloads in "
          f"{document['elapsed_s']:.0f} s")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the input generators (default 0)")
    parser.add_argument("--workloads", help="suite mode: comma-separated "
                        "subset of the workloads")
    parser.add_argument("--repeats", type=int, default=MIN_REPEATS,
                        help=f"suite mode: untraced repeats per workload "
                             f"(default {MIN_REPEATS})")
    parser.add_argument("--out", help="suite mode: write the JSON result")
    parser.add_argument("--spans", metavar="DIR", help="suite mode: also "
                        "write each traced run's raw spans here")
    parser.add_argument("--workload", help="contract mode: the one workload")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="contract mode: keep repeating until the timed "
                             "regions sum to this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="contract mode: 1 reports per-layer metrics")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.child:
        return child_main(json.loads(args.child))
    spec = load_spec()
    if args.workload:
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            print(f"unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        return contract_main(args, spec)
    if args.repeats < MIN_REPEATS:
        print(f"--repeats must be >= {MIN_REPEATS}", file=sys.stderr)
        return 2
    return suite_main(args, spec)


if __name__ == "__main__":
    sys.exit(main())
