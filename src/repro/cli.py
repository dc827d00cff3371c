"""Command-line interface: regenerate any paper figure or ablation, or run
the long-lived service mode.

Examples::

    repro list
    repro fig2
    repro fig6 --seed 3
    repro fig7 --events 30
    repro report --out results/ --quick
    repro serve --stream synthetic --rate 0.5 --events 200
    repro serve --compile-mode staged --scheduler staged-plmtf
    repro ablation-compile --jobs 2
    python -m repro.cli fig9 --utilization 0.7

Each figure command prints the figure's series as an aligned ASCII table;
see EXPERIMENTS.md for the paper-vs-measured comparison. ``repro serve``
ingests an unbounded arrival stream through one scheduler with the
lifecycle auditor attached (see :mod:`repro.sim.service`) and drains
gracefully on Ctrl-C.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce figures from 'An Event-Level Abstraction "
                    "for Achieving Efficiency and Fairness in Network "
                    "Update' (ICDCS 2017)")
    parser.add_argument("figure",
                        help="figure id (fig1..fig9, ablation-*, "
                             "robustness-*), 'list', 'report' or 'serve'")
    parser.add_argument("--seed", type=int, default=0,
                        help="master random seed (default 0)")
    parser.add_argument("--events", type=int, default=None,
                        help="override the number of queued events")
    parser.add_argument("--utilization", type=float, default=None,
                        help="override the target fabric utilization")
    parser.add_argument("--alpha", type=int, default=None,
                        help="override the LMTF/P-LMTF sample size")
    parser.add_argument("--probes", type=int, default=None,
                        help="fig1 only: probe flows per point")
    parser.add_argument("--fault-rates", default=None, metavar="R1,R2,...",
                        help="robustness-failures only: comma-separated "
                             "fault rates (faults/s) to sweep")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="run simulation cells in N worker processes "
                             "(results are identical to the default "
                             "one-process run)")
    parser.add_argument("--resume", action="store_true",
                        help="reuse completed cells from this figure's "
                             "checkpoint instead of recomputing them")
    parser.add_argument("--checkpoint-dir", default="checkpoints",
                        help="directory for per-figure JSONL checkpoints "
                             "(default: checkpoints/)")
    parser.add_argument("--out", default="results",
                        help="report only: output directory")
    parser.add_argument("--quick", action="store_true",
                        help="report only: run just the fast figures")
    parser.add_argument("--figures", default=None,
                        help="report only: comma-separated figure ids "
                             "(default: all)")
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the long-lived service mode: ingest an unbounded "
                    "update-event stream through one scheduler with the "
                    "lifecycle auditor attached.")
    parser.add_argument("--stream", default="synthetic",
                        choices=("benson", "yahoo", "synthetic"),
                        help="flow-shape source for streamed events "
                             "(default synthetic)")
    parser.add_argument("--rate", type=float, default=0.5,
                        help="mean Poisson arrival rate in events/s "
                             "(default 0.5)")
    parser.add_argument("--scheduler", default="plmtf",
                        choices=("fifo", "lmtf", "plmtf", "flow-level",
                                 "l-lmtf", "staged-lmtf", "staged-plmtf"),
                        help="scheduling policy (default plmtf; l-lmtf is "
                             "the learned candidate ranking; staged-* "
                             "tie-break on compiled schedule length)")
    parser.add_argument("--seed", type=int, default=0,
                        help="master random seed (default 0)")
    parser.add_argument("--alpha", type=int, default=4,
                        help="LMTF/P-LMTF sample size (default 4)")
    parser.add_argument("--k", type=int, default=4,
                        help="Fat-Tree arity (default 4; the figures "
                             "use 8)")
    parser.add_argument("--utilization", type=float, default=0.5,
                        help="background fabric utilization (default 0.5)")
    parser.add_argument("--events", type=int, default=None, metavar="N",
                        help="stop ingesting after N events (default: "
                             "run until interrupted)")
    parser.add_argument("--horizon", type=float, default=None, metavar="T",
                        help="stop ingesting past simulated time T")
    parser.add_argument("--min-flows", type=int, default=10,
                        help="minimum flows per event (default 10)")
    parser.add_argument("--max-flows", type=int, default=40,
                        help="maximum flows per event (default 40)")
    parser.add_argument("--queue-cap", type=int, default=64,
                        help="backpressure high watermark (default 64)")
    parser.add_argument("--resume-depth", type=int, default=None,
                        help="backpressure low watermark (default "
                             "queue-cap/2)")
    parser.add_argument("--snapshot-every", type=float, default=60.0,
                        metavar="T",
                        help="simulated seconds between snapshots "
                             "(default 60; 0 disables)")
    parser.add_argument("--snapshot-dir", default="service-snapshots",
                        help="directory for snapshots.jsonl / latest.json "
                             "/ metrics.prom (default service-snapshots/)")
    parser.add_argument("--stats-every", type=int, default=25,
                        help="rounds between stats lines (default 25; "
                             "0 disables)")
    parser.add_argument("--no-audit", action="store_true",
                        help="run without the lifecycle auditor")
    parser.add_argument("--max-deferrals", type=int, default=8,
                        help="deferral budget before an unplaceable event "
                             "is dropped (default 8)")
    parser.add_argument("--compile-mode", default="atomic",
                        choices=("atomic", "staged", "augmented"),
                        help="plan-compilation mode: atomic (one-shot, "
                             "default), staged (congestion-free stages) or "
                             "augmented (staged with epsilon headroom)")
    parser.add_argument("--epsilon", type=float, default=0.0,
                        help="augmented mode only: transient "
                             "over-subscription bound as a fraction of "
                             "link capacity (default 0.0)")
    parser.add_argument("--state-dir", default=None, metavar="DIR",
                        help="enable crash recovery: write-ahead journal, "
                             "restorable checkpoint and supervisor "
                             "heartbeat live here (default: disabled)")
    parser.add_argument("--resume", action="store_true",
                        help="continue the run recorded in --state-dir "
                             "(requires the same spec flags as the "
                             "original run)")
    parser.add_argument("--fresh", action="store_true",
                        help="discard any previous run in --state-dir "
                             "before starting")
    parser.add_argument("--supervise", type=int, default=None, metavar="N",
                        help="run under the crash supervisor: restart a "
                             "crashed or stalled service up to N times "
                             "(requires --state-dir)")
    parser.add_argument("--stall-timeout", type=float, default=120.0,
                        metavar="S",
                        help="supervisor only: kill the child if its "
                             "heartbeat shows no round progress for S "
                             "wall seconds (default 120)")
    return parser


def serve_scheduler_spec(args) -> dict:
    """The scheduler spec dict a ``repro serve`` invocation describes.

    A plain data mapping of the flags, so the fresh run, a ``--resume`` of
    it, and the supervisor's restarts all build byte-identical schedulers.
    """
    from repro.sched import staged_scheduler_spec

    if args.scheduler in ("lmtf", "plmtf"):
        spec = {"kind": args.scheduler, "alpha": args.alpha,
                "seed": args.seed + 9}
    elif args.scheduler in ("staged-lmtf", "staged-plmtf"):
        spec = staged_scheduler_spec(args.scheduler, args.seed, args.alpha,
                                     args.compile_mode, args.epsilon)
    elif args.scheduler == "l-lmtf":
        spec = {"kind": "learned", "alpha": args.alpha,
                "seed": args.seed + 9}
    else:
        spec = {"kind": args.scheduler}
    return spec


def build_service(args, resume: bool = False):
    """Build the (simulator, stream, service) triple for ``repro serve``.

    ``resume`` rebuilds the *identical* spec and asks the service to
    restore the checkpoint in ``--state-dir``; everything else about the
    construction must not depend on it.
    """
    from dataclasses import replace

    from repro.experiments.common import DEFAULTS, Scenario
    from repro.sched import build_scheduler
    from repro.sim.service import ServiceConfig, SimulationService
    from repro.traces.arrivals import make_stream
    from repro.traces.events import EventGeneratorConfig

    scheduler = build_scheduler(serve_scheduler_spec(args))
    scenario = Scenario(utilization=args.utilization, seed=args.seed,
                        defaults=replace(DEFAULTS, k=args.k))
    sim = scenario.simulator(scheduler, max_deferrals=args.max_deferrals,
                             compile_mode=args.compile_mode,
                             compile_epsilon=args.epsilon)
    stream = make_stream(
        args.stream, scenario.topology.hosts(), rate=args.rate,
        seed=args.seed + 7,
        config=EventGeneratorConfig(min_flows=args.min_flows,
                                    max_flows=args.max_flows))
    config = ServiceConfig(
        queue_cap=args.queue_cap,
        resume_depth=(args.queue_cap // 2 if args.resume_depth is None
                      else args.resume_depth),
        max_events=args.events, horizon=args.horizon,
        snapshot_every=args.snapshot_every,
        snapshot_dir=args.snapshot_dir if args.snapshot_every > 0 else None,
        stats_every=args.stats_every, audit=not args.no_audit,
        install_signals=True, state_dir=args.state_dir, resume=resume)
    return scheduler, SimulationService(sim, stream, config)


def _serve(argv: list[str]) -> int:
    from repro.sim.snapshot import RecoveryError, discard_state

    args = build_serve_parser().parse_args(argv)
    if args.epsilon and args.compile_mode != "augmented":
        print("--epsilon > 0 requires --compile-mode augmented",
              file=sys.stderr)
        return 2
    if args.resume and args.state_dir is None:
        print("--resume needs --state-dir pointing at the run to continue",
              file=sys.stderr)
        return 2
    if args.fresh:
        if args.state_dir is None:
            print("--fresh needs --state-dir", file=sys.stderr)
            return 2
        if args.resume:
            print("--fresh and --resume are mutually exclusive",
                  file=sys.stderr)
            return 2
        removed = discard_state(args.state_dir)
        if removed:
            print(f"discarded previous run in {args.state_dir} "
                  f"({', '.join(removed)})")
    if args.supervise is not None:
        return _serve_supervised(args, argv)
    try:
        scheduler, service = build_service(args, resume=args.resume)
    except RecoveryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    verb = "resuming" if args.resume else "serving"
    print(f"{verb} {args.stream} stream at {args.rate}/s through "
          f"{scheduler.name} (k={args.k}, util={args.utilization}); "
          f"Ctrl-C drains gracefully")
    started = time.time()
    try:
        report = service.serve()
    except RecoveryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"stopped ({report.stopped}): ingested={report.ingested} "
          f"completed={report.completed} dropped={report.dropped} "
          f"rounds={report.rounds} audits={report.audits} "
          f"pauses={report.backpressure_pauses} "
          f"snapshots={report.snapshots} "
          f"restarts={report.restarts} "
          f"digest={report.digest[:16]} "
          f"simT={report.final_time:.1f}s "
          f"wall={time.time() - started:.1f}s")
    if report.metrics is not None:
        print(report.metrics.summary())
    return 0


def _serve_supervised(args, argv: list[str]) -> int:
    """Run ``repro serve`` under the crash supervisor (``--supervise N``)."""
    from repro.sim.supervise import Supervisor, SupervisorConfig

    if args.state_dir is None:
        print("--supervise needs --state-dir (the supervisor watches its "
              "heartbeat and restarts with --resume)", file=sys.stderr)
        return 2
    if args.supervise < 0:
        print(f"--supervise must be >= 0, got {args.supervise}",
              file=sys.stderr)
        return 2
    supervisor = Supervisor(
        argv=_child_argv(argv), state_dir=args.state_dir,
        config=SupervisorConfig(max_restarts=args.supervise,
                                stall_timeout_s=args.stall_timeout))
    return supervisor.run()


def _child_argv(argv: list[str]) -> list[str]:
    """The supervised child's serve argv: drop the supervisor-only flags."""
    child = [sys.executable, "-m", "repro.cli", "serve"]
    skip = False
    for arg in argv:
        if skip:
            skip = False
            continue
        if arg in ("--supervise", "--stall-timeout"):
            skip = True
            continue
        if arg.startswith("--supervise=") or arg.startswith(
                "--stall-timeout="):
            continue
        child.append(arg)
    return child


def main(argv: list[str] | None = None) -> int:
    from repro.experiments import FIGURES

    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return _serve(argv[1:])
    args = build_parser().parse_args(argv)
    if args.figure == "list":
        print("available figures:")
        for name, runner in FIGURES.items():
            print(f"  {name:20s} {_describe(runner)}")
        return 0
    if args.figure == "report":
        return _report(args)
    runner = FIGURES.get(args.figure)
    if runner is None:
        print(f"unknown figure {args.figure!r}; try 'repro list'",
              file=sys.stderr)
        return 2
    kwargs = {}
    accepted = inspect.signature(runner).parameters
    for name in ("seed", "events", "utilization", "alpha", "probes"):
        value = getattr(args, name)
        if value is not None and name in accepted:
            kwargs[name] = value
    if args.fault_rates is not None and "fault_rates" in accepted:
        kwargs["fault_rates"] = tuple(
            float(r) for r in args.fault_rates.split(",") if r.strip())
    kwargs.update(_parallel_kwargs(args, args.figure, accepted))
    started = time.time()
    result = runner(**kwargs)
    print(result.to_table())
    print(f"\n[{args.figure} completed in {time.time() - started:.1f}s]")
    return 0


def _describe(runner) -> str:
    """One line for ``repro list``: a figure module's ``run`` speaks for
    its module; any other runner shares a module and describes itself."""
    owner = (sys.modules[runner.__module__] if runner.__name__ == "run"
             else runner)
    doc = inspect.getdoc(owner) or ""
    return doc.splitlines()[0] if doc else ""


def _parallel_kwargs(args, figure: str, accepted) -> dict:
    """kwargs implementing ``--jobs``/``--resume`` for one figure runner.

    Checkpoints land in ``<checkpoint-dir>/<figure>-seed<seed>.jsonl`` so a
    killed sweep resumes with the exact same command plus ``--resume``.
    Figures that are not cell grids get a warning and run in-process.
    """
    from pathlib import Path

    if args.jobs is None and not args.resume:
        return {}
    if "jobs" not in accepted:
        print(f"warning: {figure} does not support --jobs/--resume; "
              f"running sequentially", file=sys.stderr)
        return {}
    from repro.experiments.runner import PrintProgress
    checkpoint_dir = Path(args.checkpoint_dir)
    checkpoint_dir.mkdir(parents=True, exist_ok=True)
    return {"jobs": args.jobs if args.jobs is not None else 1,
            "resume": args.resume,
            "checkpoint": checkpoint_dir / f"{figure}-seed{args.seed}.jsonl",
            "listener": PrintProgress()}


def _report(args) -> int:
    from repro.analysis.report import (
        QUICK_FIGURES,
        run_figures,
        write_report,
    )
    from repro.experiments import FIGURES

    if args.figures:
        names = [n.strip() for n in args.figures.split(",") if n.strip()]
        unknown = [n for n in names if n not in FIGURES]
        if unknown:
            print(f"unknown figures: {unknown}; try 'repro list'",
                  file=sys.stderr)
            return 2
    elif args.quick:
        names = list(QUICK_FIGURES)
    else:
        names = list(FIGURES)
    overrides = {"seed": args.seed}
    if args.jobs is not None:
        # Per-figure checkpoints don't compose with a multi-figure report;
        # forward the worker-pool fan-out alone.
        overrides["jobs"] = args.jobs
    results = run_figures(names, progress=print, **overrides)
    path = write_report(results, args.out)
    print(f"report written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
